"""Unit tests for the memory RAS engine and end-to-end integrity story.

Covers the tentpole guarantees directly:

* single latent flip => CE (corrected, never visible to software);
* multiple latent flips => UE => typed :class:`PoisonError` — corrupted
  bytes never flow, and CompCpy aborts without producing output;
* writes repair cells, leaky buckets retire weak rows, the patrol
  scrubber corrects singles before they pair up and is priced in cycles;
* DSA silent data corruption passes the transport CRC by construction
  and is only caught by the semantic end-to-end check, which drives the
  per-lane quarantine through trip -> probation -> re-admission.
"""

import pytest

from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import SessionConfig, SmartDIMMSession, TAG_SIZE
from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.dram.physical_memory import PhysicalMemory
from repro.dram.ras import MemoryRas, RasConfig
from repro.faults.errors import FaultError, PoisonError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.ras.quarantine import LaneQuarantine
from repro.ulp.gcm import AESGCM

KEY = bytes(range(16))
NONCE = bytes(12)


@pytest.fixture
def ras_session():
    """A small session with the RAS engine attached (no fault plan)."""
    return SmartDIMMSession(SessionConfig(
        memory_bytes=16 * 1024 * 1024, llc_bytes=512 * 1024,
        ras=RasConfig(),
    ))


def _resident(session, pages=1, fill=0xA5):
    """Write `pages` of data and flush it out of the LLC (data at rest)."""
    base = session.driver.alloc_pages(pages)
    data = bytes([fill]) * (pages * PAGE_SIZE)
    session.write(base, data)
    session.llc.flush_range(base, pages * PAGE_SIZE)
    return base, data


class TestCorrectableErrors:
    def test_single_flip_is_corrected_transparently(self, ras_session):
        base, data = _resident(ras_session)
        ras_session.ras.inject_flips(base, bits=1)
        assert ras_session.read(base, CACHELINE_SIZE) == data[:CACHELINE_SIZE]
        report = ras_session.ras.report()
        assert report["ce_corrected"] == 1
        assert report["ce_demand"] == 1
        assert report["latent_lines"] == 0

    def test_write_repairs_latent_flips(self, ras_session):
        base, data = _resident(ras_session)
        ras_session.ras.inject_flips(base, bits=2)
        ras_session.write(base, data[:CACHELINE_SIZE])
        ras_session.llc.flush_range(base, CACHELINE_SIZE)
        # The rewrite cleared both flips: no CE, no UE, clean read.
        assert ras_session.read(base, CACHELINE_SIZE) == data[:CACHELINE_SIZE]
        report = ras_session.ras.report()
        assert report["ue_poisoned"] == 0
        assert report["latent_lines"] == 0


class TestPoisonEscalation:
    def test_multi_flip_read_raises_typed_poison_error(self, ras_session):
        base, _ = _resident(ras_session)
        ras_session.ras.inject_flips(base, bits=2)
        with pytest.raises(PoisonError) as excinfo:
            ras_session.read(base, CACHELINE_SIZE)
        assert excinfo.value.address == base
        assert excinfo.value.row == base // ras_session.ras.config.row_bytes
        # PoisonError is a FaultError: the session resilience guard can
        # catch it and onload, exactly like any other typed DSA fault.
        assert isinstance(excinfo.value, FaultError)

    def test_poisoned_line_keeps_refusing_until_rewritten(self, ras_session):
        base, data = _resident(ras_session)
        ras_session.ras.inject_flips(base, bits=2)
        for _ in range(2):
            with pytest.raises(PoisonError):
                ras_session.read(base, CACHELINE_SIZE)
        assert ras_session.ras.report()["poison_reads"] == 2
        ras_session.write(base, data[:CACHELINE_SIZE])
        ras_session.llc.flush_range(base, CACHELINE_SIZE)
        assert ras_session.read(base, CACHELINE_SIZE) == data[:CACHELINE_SIZE]
        assert ras_session.ras.report()["poisons_cleared"] == 1

    def test_compcpy_on_poisoned_input_aborts_without_output(self, ras_session):
        """Poison propagation: the offload dies typed, the DSA never runs."""
        session = ras_session
        sbuf = session.driver.alloc_pages(1)
        dbuf = session.driver.alloc_pages(1)
        payload = bytes(range(256)) * (PAGE_SIZE // 256)
        session.write(sbuf, payload)
        session.llc.flush_range(sbuf, PAGE_SIZE)
        session.ras.inject_flips(sbuf, bits=2)  # first source line is bad
        context = TLSOffloadContext(
            key=KEY, nonce=NONCE, record_length=PAGE_SIZE - TAG_SIZE,
            aad=b"", decrypt=False)
        with pytest.raises(PoisonError):
            session.compcpy.compcpy(
                dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT)
        # No output was produced anywhere: the copy aborted on the first
        # line, so the DSA saw nothing and nothing was finalized.
        stats = session.device.stats
        assert stats.dsa_lines_processed == 0
        assert stats.offloads_finalized == 0


    def test_poison_inside_a_session_copy_onloads_and_leaks_nothing(self):
        """A poisoned source line read by CompCpy's copy, after the offload
        registered: CompCpy aborts it, so the op onloads, the device holds
        no live offload, and the next op offloads from a clean slate."""
        session = SmartDIMMSession(SessionConfig(
            fault_plan=FaultPlan(seed=1),
            ras=RasConfig(scrub_lines_per_pass=0)))
        register = session.driver.register_offload

        def register_then_poison(kind, context, sbuf, dbuf, pages, **kwargs):
            # CompCpy flushed the source before registering, so the copy
            # reads these flips from DRAM.
            session.driver.register_offload = register
            offload = register(kind, context, sbuf, dbuf, pages, **kwargs)
            session.ras.inject_flips(sbuf + 5 * CACHELINE_SIZE, bits=2)
            return offload

        session.driver.register_offload = register_then_poison
        gcm = AESGCM(KEY)
        payload = bytes(range(256)) * 8
        for op in range(3):
            nonce = op.to_bytes(12, "little")
            ct, tag = gcm.encrypt(nonce, payload, b"")
            assert session.tls_encrypt(KEY, nonce, payload) == ct + tag
            assert session.device._offloads == {}
        assert session.ras.report()["poison_reads"] == 1
        assert session.device.stats.offloads_aborted == 1
        assert session.resilience_stats.onloaded_ops == 1
        assert session.resilience_stats.offloaded_ops == 2


class TestRowRetirement:
    def test_leaky_bucket_retires_a_weak_row(self, ras_session):
        base, data = _resident(ras_session)
        row_bytes = ras_session.ras.config.row_bytes
        threshold = ras_session.ras.config.ce_bucket_threshold
        # threshold+1 CEs in the same row with no scrub pass in between:
        # the bucket overflows and the row retires to its spare.
        for k in range(threshold + 1):
            address = base + k * CACHELINE_SIZE
            assert address // row_bytes == base // row_bytes
            ras_session.ras.inject_flips(address, bits=1)
            session_data = ras_session.read(address, CACHELINE_SIZE)
            assert session_data == data[:CACHELINE_SIZE]
        report = ras_session.ras.report()
        assert report["rows_retired"] == 1
        assert base // row_bytes in ras_session.ras.retired_rows


class TestPatrolScrub:
    def test_scrub_corrects_single_before_it_pairs_up(self):
        memory = PhysicalMemory(1024 * 1024)
        ras = MemoryRas(memory, config=RasConfig())
        memory.attach_ras(ras)
        memory.write(0, bytes(PAGE_SIZE))
        ras.inject_flips(0, bits=1)
        cycles = ras.advance(ras.config.scrub_interval_cycles)
        report = ras.report()
        assert report["ce_patrol"] == 1
        assert report["latent_lines"] == 0
        # A second flip on the now-clean line is a CE again, not a UE.
        ras.inject_flips(0, bits=1)
        memory.read_line(0)
        assert ras.report()["ue_poisoned"] == 0
        # Scrub bandwidth is priced: the burst returned controller cycles.
        assert cycles > 0
        assert cycles == report["scrub_cycles"]

    def test_scrub_off_lets_flips_pair_into_ue(self):
        memory = PhysicalMemory(1024 * 1024)
        ras = MemoryRas(memory, config=RasConfig(scrub_lines_per_pass=0))
        memory.attach_ras(ras)
        memory.write(0, bytes(PAGE_SIZE))
        ras.inject_flips(0, bits=1)
        assert ras.advance(10 * ras.config.scrub_interval_cycles) == 0
        ras.inject_flips(0, bits=1)  # the second hit nobody corrected
        with pytest.raises(PoisonError):
            memory.read_line(0)


class TestSilentDataCorruption:
    def test_sdc_passes_transport_crc_but_fails_auth_tag(self):
        """The device CRC snapshots *after* the flip: only the semantic
        end-to-end check (auth-tag recompute) catches the corruption."""
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(FaultSite.DSA_SDC, probability=1.0, max_fires=1),
        ))
        session = SmartDIMMSession(SessionConfig(
            memory_bytes=16 * 1024 * 1024, llc_bytes=512 * 1024,
            fault_plan=plan,
        ))
        payload = bytes(range(256)) * 8
        # tls_encrypt returned normally: verify_destination's transport
        # CRC matched the corrupted bytes by construction.
        result = session.tls_encrypt(KEY, NONCE, payload)
        assert session.device.stats.injected_sdc == 1
        assert session.resilience_stats.onloaded_ops == 0
        ct, tag = AESGCM(KEY).encrypt(NONCE, payload, b"")
        assert result != ct + tag
        assert (AESGCM(KEY).tag(NONCE, result[:-TAG_SIZE], b"")
                != result[-TAG_SIZE:])

    def test_clean_session_injects_nothing(self):
        session = SmartDIMMSession(SessionConfig(
            memory_bytes=16 * 1024 * 1024, llc_bytes=512 * 1024))
        payload = bytes(range(256)) * 8
        ct, tag = AESGCM(KEY).encrypt(NONCE, payload, b"")
        assert session.tls_encrypt(KEY, NONCE, payload) == ct + tag
        assert session.device.stats.injected_sdc == 0


class TestLaneQuarantine:
    def test_trip_spill_probe_and_readmit(self):
        quarantine = LaneQuarantine(failure_threshold=2, cooldown_ops=3)
        for _ in range(2):
            assert quarantine.allow("tls")
            quarantine.record("tls", ok=False)
        assert quarantine.state("tls") == "open"
        # Quarantined: work spills to the CPU until the cooldown elapses.
        assert not quarantine.allow("tls")
        assert not quarantine.allow("tls")
        assert quarantine.spilled == 2
        # Probation probe; a clean verdict re-admits the lane.
        assert quarantine.allow("tls")
        quarantine.record("tls", ok=True)
        assert quarantine.state("tls") == "closed"
        summary = quarantine.summary()
        assert summary["lanes"]["tls"]["breaker"]["opens"] == 1
        assert summary["lanes"]["tls"]["breaker"]["closes"] == 1

    def test_failed_probe_reopens(self):
        quarantine = LaneQuarantine(failure_threshold=1, cooldown_ops=2)
        assert quarantine.allow("deflate")
        quarantine.record("deflate", ok=False)
        assert not quarantine.allow("deflate")
        assert quarantine.allow("deflate")  # probation probe
        quarantine.record("deflate", ok=False)  # still corrupting
        assert quarantine.state("deflate") == "open"
        assert quarantine.summary()["lanes"]["deflate"]["breaker"]["opens"] == 2

    def test_lanes_are_independent(self):
        quarantine = LaneQuarantine(failure_threshold=1, cooldown_ops=8)
        assert quarantine.allow("tls")
        quarantine.record("tls", ok=False)
        assert not quarantine.allow("tls")
        assert quarantine.allow("deflate")
        assert quarantine.state("deflate") == "closed"
