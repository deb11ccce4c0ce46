"""The memory-RAS / end-to-end-integrity sweep behind the ``ras`` target.

Three experiments, committed as ``BENCH_ras.json`` and run with
``python -m repro matrix --only ras [--quick|--check|--update]`` (the
target in :mod:`repro.exp.targets` owns the gate thresholds):

* **grid** — scrub-rate x SDC-rate over the micro stack: every cell runs
  TLS offloads against a session with latent ``dram.cell_flip`` deposits
  (the :class:`~repro.dram.ras.MemoryRas` engine) plus ``dsa.sdc`` kernel
  corruption, while demand reads sweep an at-rest working set.  Reported
  per cell: undetected-corruption count (the gate keeps it at zero with
  verification on), detection coverage, retired rows, poison reads, and
  the goodput cost of patrol scrubbing (scrub cycles / total cycles —
  gated <= 10% at the default scrub rate).  The scrub-off column is the
  causal contrast: without patrol scrubbing, single-bit flips accumulate
  into multi-bit (at-risk) lines that scrubbing would have corrected.

* **sdc** — the detection/quarantine story per kernel lane.  A bounded
  SDC storm (``max_fires``) corrupts GHASH lanes (TLS) and match streams
  (DEFLATE); the transport CRC passes by construction (the device
  checksums *after* the flip), so only the semantic check — auth-tag
  recompute, decompress + CRC32 compare (the gzip trailer model) —
  catches it.  Each detection feeds :class:`repro.ras.quarantine.
  LaneQuarantine`; the lane trips OPEN (work spills to the CPU), and a
  probation probe re-admits it after the storm ends.  The verify-off arm
  shows the exposure: the same corruptions sail through.

* **fleet** — an ``sdc_storm`` :class:`~repro.cluster.chaos.FaultWindow`
  on the event-tier cluster (full coverage vs a coverage gap) plus
  per-node RAS telemetry: every node runs its own
  :class:`~repro.dram.ras.MemoryRas` with a node-seeded flip stream and
  reports scrub/CE/retirement/poison counters.

Determinism contract: identical seeds produce byte-identical payloads
(``tests/ras/test_ras_smoke.py``).
"""

from __future__ import annotations

import random
import zlib

from repro.cluster.chaos import FaultWindow, FleetFaultInjector
from repro.cluster.scenario import ClusterScenario, run_scenario
from repro.core.offload_api import SessionConfig, SmartDIMMSession, TAG_SIZE
from repro.dram.commands import CACHELINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from repro.dram.physical_memory import PhysicalMemory
from repro.dram.ras import MemoryRas, RasConfig
from repro.faults.errors import PoisonError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.ras.quarantine import LaneQuarantine
from repro.ulp.deflate import deflate_decompress
from repro.ulp.gcm import AESGCM

#: Patrol-scrub arms: resident lines scrubbed per burst (0 = scrub off;
#: 8 = the RasConfig default the overhead gate is judged at).
SCRUB_ARMS = (("off", 0), ("default", 8), ("aggressive", 32))

#: DSA silent-corruption probability per completed scratchpad line.
SDC_RATES = (0.0, 0.02, 0.08)

#: Patrol-scrub goodput overhead ceiling at the default scrub rate,
#: written into the payload's summary for the ``ras`` target's gate.
SCRUB_OVERHEAD_CEILING = 0.10

KEY = bytes(range(16))


# -- grid: scrub rate x SDC rate over the micro stack --------------------------------


#: Controller cycles of idle time simulated between operations: the window
#: in which latent flips accumulate and the patrol scrubber earns its keep.
IDLE_CYCLES_PER_OP = 20_000


def _micro_cell(seed: int, scrub_lines: int, sdc_rate: float,
                ops: int, wset_pages: int = 4,
                payload_bytes: int = 2048) -> dict:
    """One grid cell: TLS traffic + at-rest demand reads under RAS + SDC."""
    specs = [FaultSpec(FaultSite.DRAM_CELL_FLIP, probability=1.0)]
    if sdc_rate > 0.0:
        specs.append(FaultSpec(FaultSite.DSA_SDC, probability=sdc_rate))
    plan = FaultPlan(seed=seed, specs=tuple(specs))
    session = SmartDIMMSession(SessionConfig(
        fault_plan=plan,
        ras=RasConfig(scrub_lines_per_pass=scrub_lines),
    ))
    gcm = AESGCM(KEY)
    harness = random.Random(seed ^ 0x5A5A)
    # At-rest working set: written once, flushed out of the LLC, then
    # demand-read line by line so latent flips are actually observed.
    wset = session.driver.alloc_pages(wset_pages)
    golden = {}
    for page in range(wset_pages):
        golden[page] = harness.randbytes(PAGE_SIZE)
        session.write(wset + page * PAGE_SIZE, golden[page])
    session.llc.flush_range(wset, wset_pages * PAGE_SIZE)
    total_lines = wset_pages * LINES_PER_PAGE
    corrupted = detected = undetected = 0
    counts = {"poison_reads": 0, "repairs": 0, "rest_mismatches": 0}

    def probe_line(line: int) -> None:
        """Demand-read one at-rest line; repair poisoned lines from the
        golden copy (the upstream-replica model of UE recovery)."""
        address = wset + line * CACHELINE_SIZE
        session.llc.flush_range(address, CACHELINE_SIZE)
        page, offset = divmod(line * CACHELINE_SIZE, PAGE_SIZE)
        expect = golden[page][offset:offset + CACHELINE_SIZE]
        try:
            if session.read(address, CACHELINE_SIZE) != expect:
                counts["rest_mismatches"] += 1
        except PoisonError:
            counts["poison_reads"] += 1
            session.write(address, expect)
            session.llc.flush_range(address, CACHELINE_SIZE)
            counts["repairs"] += 1

    for op in range(ops):
        # Idle gap between requests: flips land, the scrubber sweeps (and
        # is charged for the bandwidth via pump_ras).
        session.mc.cycle += IDLE_CYCLES_PER_OP
        session.pump_ras()
        payload = harness.randbytes(payload_bytes)
        nonce = op.to_bytes(12, "little")
        ct, tag = gcm.encrypt(nonce, payload, b"")
        result = session.tls_encrypt(KEY, nonce, payload)
        if result != ct + tag:
            corrupted += 1
            # The receiver's end-to-end check: recompute the auth tag over
            # the ciphertext it actually received.
            if gcm.tag(nonce, result[:-TAG_SIZE], b"") != result[-TAG_SIZE:]:
                detected += 1
            else:
                undetected += 1
        for k in range(8):
            probe_line((op * 8 + k) % total_lines)
    # Final audit: read back the whole working set, so every at-rest UE
    # surfaces as a typed PoisonError (never as silent bad data).
    for line in range(total_lines):
        probe_line(line)
    session.pump_ras()
    ras = session.ras.report()
    # Lines that have silently accumulated >= 2 latent flips: the next
    # read poisons them.  Scrubbing exists to keep this population down.
    at_risk = ras["ue_poisoned"] + sum(
        1 for bits in session.ras.latent.values() if len(bits) >= 2)
    total_cycles = session.mc.cycle
    return {
        "scrub_lines_per_pass": scrub_lines,
        "sdc_rate": sdc_rate,
        "ops": ops,
        "cycles_total": total_cycles,
        "cycles_per_op": total_cycles / ops,
        "scrub_overhead": (
            ras["scrub_cycles"] / total_cycles if total_cycles else 0.0),
        "sdc_injected": session.device.stats.injected_sdc,
        "corrupted": corrupted,
        "detected": detected,
        "undetected": undetected,
        "detection_coverage": detected / corrupted if corrupted else 1.0,
        "poison_reads": counts["poison_reads"],
        "repairs": counts["repairs"],
        "rest_mismatches": counts["rest_mismatches"],
        "at_risk_lines": at_risk,
        "onloaded_ops": session.resilience_stats.onloaded_ops,
        "ras": ras,
    }


# -- sdc: per-lane detection + quarantine --------------------------------------------


def _sdc_session(seed: int) -> SmartDIMMSession:
    plan = FaultPlan(seed=seed, specs=(
        FaultSpec(FaultSite.DSA_SDC, probability=1.0),
    ))
    return SmartDIMMSession(SessionConfig(fault_plan=plan))


def _end_storm(session: SmartDIMMSession) -> None:
    """The transient glitch window closes: further decisions never fire."""
    session.config.fault_plan.add(
        FaultSpec(FaultSite.DSA_SDC, probability=0.0))


def _tls_arm(seed: int, ops: int, verify: bool,
             storm_detections: int = None,
             quarantine: LaneQuarantine = None) -> dict:
    """Flipped-GHASH-lane storm against the TLS offload."""
    session = _sdc_session(seed)
    gcm = AESGCM(KEY)
    harness = random.Random(seed ^ 0x715)
    corrupted = detected = undetected = spilled = 0
    for op in range(ops):
        payload = harness.randbytes(2048)
        nonce = op.to_bytes(12, "little")
        ct, tag = gcm.encrypt(nonce, payload, b"")
        if quarantine is not None and not quarantine.allow("tls"):
            spilled += 1  # lane quarantined: the CPU path is bit-identical
            continue
        onloads = session.resilience_stats.onloaded_ops
        result = session.tls_encrypt(KEY, nonce, payload)
        if session.resilience_stats.onloaded_ops > onloads:
            continue  # recovered on the CPU: not an SDC observation
        bad = result != ct + tag
        corrupted += bad
        if verify:
            caught = (gcm.tag(nonce, result[:-TAG_SIZE], b"")
                      != result[-TAG_SIZE:])
            detected += caught
            undetected += bad and not caught
            if quarantine is not None:
                quarantine.record("tls", ok=not caught)
            if storm_detections is not None and detected >= storm_detections:
                _end_storm(session)
        else:
            undetected += bad
    return {
        "ops": ops, "verify": verify,
        "sdc_injected": session.device.stats.injected_sdc,
        "corrupted": corrupted, "detected": detected,
        "undetected": undetected, "spilled": spilled,
        "detection_coverage": detected / corrupted if corrupted else 1.0,
    }


def _deflate_arm(seed: int, ops: int, verify: bool,
                 storm_detections: int = None,
                 quarantine: LaneQuarantine = None) -> dict:
    """Bad-match storm against the DEFLATE offload, caught by the gzip
    CRC model (decompress and compare CRC32 against the original)."""
    page = (b"SmartDIMM deflate integrity probe: " * 120)[:PAGE_SIZE]
    oracle = SmartDIMMSession().deflate_page(page)  # clean hardware output
    session = _sdc_session(seed)
    crc = zlib.crc32(page)
    corrupted = detected = undetected = spilled = refused = 0
    for op in range(ops):
        if quarantine is not None and not quarantine.allow("deflate"):
            spilled += 1
            continue
        onloads = session.resilience_stats.onloaded_ops
        try:
            stream = session.deflate_page(page)
        except Exception:
            # Framing so corrupt the offload path refused to return it —
            # a detection with no output delivered.
            stream = None
        if session.resilience_stats.onloaded_ops > onloads:
            continue
        if stream is None:
            refused += 1  # nothing delivered: counts as a caught failure
            if quarantine is not None:
                quarantine.record("deflate", ok=False)
            if (storm_detections is not None
                    and detected + refused >= storm_detections):
                _end_storm(session)
            continue
        bad = stream != oracle
        corrupted += bad
        if verify:
            try:
                caught = zlib.crc32(
                    deflate_decompress(stream, max_output=2 * PAGE_SIZE)
                ) != crc
            except Exception:
                caught = True
            detected += caught
            undetected += bad and not caught
            if quarantine is not None:
                quarantine.record("deflate", ok=not caught)
            if (storm_detections is not None
                    and detected + refused >= storm_detections):
                _end_storm(session)
        else:
            undetected += bad
    return {
        "ops": ops, "verify": verify,
        "sdc_injected": session.device.stats.injected_sdc,
        "corrupted": corrupted, "detected": detected,
        "undetected": undetected, "spilled": spilled, "refused": refused,
        "detection_coverage": (
            (detected + refused) / (corrupted + refused)
            if corrupted + refused else 1.0),
    }


def run_sdc(seed: int, ops: int) -> dict:
    """Verify-on (with quarantine) vs verify-off arms per kernel lane.

    The storm ends after the detections that trip the lane's breaker
    (a transient glitch window), so the quarantine's probation probe
    finds a clean lane and re-admits it before the run ends.
    """
    quarantine = LaneQuarantine(failure_threshold=2, cooldown_ops=3)
    tls_on = _tls_arm(seed, ops, True, storm_detections=2,
                      quarantine=quarantine)
    deflate_on = _deflate_arm(seed, ops, True, storm_detections=2,
                              quarantine=quarantine)
    return {
        "tls": {
            "verify_on": tls_on,
            "verify_off": _tls_arm(seed, max(6, ops // 3), False),
        },
        "deflate": {
            "verify_on": deflate_on,
            "verify_off": _deflate_arm(seed, max(6, ops // 3), False),
        },
        "quarantine": quarantine.summary(),
    }


# -- fleet: sdc_storm windows + per-node RAS telemetry -------------------------------


def _fleet_arm(seed: int, duration_s: float, warmup_s: float,
               coverage: float) -> dict:
    scenario = ClusterScenario(
        duration_s=duration_s, warmup_s=warmup_s, seed=seed,
        servers=2, channels=2, threads=4,
        ulp="tls", placement="smartdimm", message_bytes=4096,
        mode="open", arrival="poisson",
    )
    window = duration_s - warmup_s
    injector = FleetFaultInjector(
        [FaultWindow(kind="sdc_storm", server=0,
                     start_s=warmup_s + 0.25 * window,
                     duration_s=0.5 * window, sdc_rate=0.3)],
        sdc_plan=FaultPlan(seed=seed),
        verify_coverage=coverage,
    )
    report = run_scenario(scenario, fault_injector=injector)
    chaos = report.chaos
    return {
        "verify_coverage": coverage,
        "rps": report.rps,
        "availability": chaos["availability"],
        "sdc_injected": chaos["sdc_injected"],
        "sdc_detected": chaos["sdc_detected"],
        "sdc_undetected": chaos["sdc_undetected"],
        "breaker_spills": chaos["breaker_spills"],
        "windows": chaos["windows"],
    }


def _node_telemetry(seed: int, servers: int, steps: int,
                    pages: int = 8) -> dict:
    """Per-node MemoryRas counters: each node its own flip stream."""
    nodes = {}
    for server in range(servers):
        memory = PhysicalMemory(4 * 1024 * 1024)
        plan = FaultPlan(seed=seed + server, specs=(
            FaultSpec(FaultSite.DRAM_CELL_FLIP, probability=1.0),
        ))
        ras = MemoryRas(memory, plan=plan, config=RasConfig())
        memory.attach_ras(ras)
        rng = random.Random(seed * 1000 + server)
        for page in range(pages):
            memory.write(page * PAGE_SIZE, rng.randbytes(PAGE_SIZE))
        total_lines = pages * LINES_PER_PAGE
        poison_reads = 0
        for step in range(1, steps + 1):
            ras.advance(step * 8192)
            for k in range(4):
                line = (step * 4 + k) % total_lines
                address = line * CACHELINE_SIZE
                try:
                    memory.read_line(address)
                except PoisonError:
                    poison_reads += 1
                    memory.write_line(address, bytes(CACHELINE_SIZE))
        nodes["node%d" % server] = dict(
            ras.report(), demand_poison_reads=poison_reads)
    return nodes


def run_fleet(seed: int, duration_s: float, warmup_s: float,
              steps: int) -> dict:
    """Fleet sdc_storm arms (full vs gapped verify coverage) + node RAS."""
    return {
        "full_coverage": _fleet_arm(seed, duration_s, warmup_s, 1.0),
        "coverage_gap": _fleet_arm(seed, duration_s, warmup_s, 0.7),
        "nodes": _node_telemetry(seed, servers=2, steps=steps),
    }


# -- experiment-matrix points --------------------------------------------------------


def matrix_points(seed: int, quick: bool) -> dict:
    """This sweep's matrix points, ``{label: (function, kwargs)}``."""
    table = {"grid/%s/%g" % (arm, rate): (_micro_cell, {
                 "seed": seed, "scrub_lines": scrub_lines, "sdc_rate": rate,
                 "ops": 16 if quick else 48})
             for arm, scrub_lines in SCRUB_ARMS for rate in SDC_RATES}
    table["sdc"] = (run_sdc, {"seed": seed, "ops": 12 if quick else 16})
    table["fleet"] = (run_fleet, {
        "seed": seed, "duration_s": 0.008 if quick else 0.02,
        "warmup_s": 0.002 if quick else 0.005,
        "steps": 48 if quick else 160})
    return table


def rollup(results: dict, seed: int, quick: bool) -> dict:
    """Per-instance results -> the complete CLI/BENCH payload."""
    report = {
        "seed": seed,
        "quick": quick,
        "grid": {
            arm: {"%g" % rate: results["grid/%s/%g" % (arm, rate)]
                  for rate in SDC_RATES}
            for arm, _ in SCRUB_ARMS
        },
        "sdc": results["sdc"],
        "fleet": results["fleet"],
    }
    report["summary"] = _summary(report)
    return report


def _summary(report: dict) -> dict:
    grid = report["grid"]
    sdc = report["sdc"]
    fleet = report["fleet"]
    cells = [cell for arm in grid.values() for cell in arm.values()]
    grid_undetected = sum(
        cell["undetected"] + cell["rest_mismatches"] for cell in cells)
    grid_corrupted = sum(cell["corrupted"] for cell in cells)
    grid_detected = sum(cell["detected"] for cell in cells)
    quarantine = sdc["quarantine"]["lanes"]
    return {
        "grid_undetected": grid_undetected,
        "grid_detection_coverage": (
            grid_detected / grid_corrupted if grid_corrupted else 1.0),
        "grid_retired_rows": sum(
            cell["ras"]["rows_retired"] for cell in cells),
        "grid_poison_reads": sum(cell["poison_reads"] for cell in cells),
        "scrub_overhead_default": max(
            cell["scrub_overhead"] for cell in grid["default"].values()),
        "scrub_overhead_ceiling": SCRUB_OVERHEAD_CEILING,
        "at_risk_scrub_off": sum(
            cell["at_risk_lines"] for cell in grid["off"].values()),
        "at_risk_scrub_default": sum(
            cell["at_risk_lines"] for cell in grid["default"].values()),
        "sdc_undetected_verify_on": (
            sdc["tls"]["verify_on"]["undetected"]
            + sdc["deflate"]["verify_on"]["undetected"]),
        "sdc_undetected_verify_off": (
            sdc["tls"]["verify_off"]["undetected"]
            + sdc["deflate"]["verify_off"]["undetected"]),
        "quarantine_trips": sum(
            lane["breaker"]["opens"] for lane in quarantine.values()),
        "quarantine_readmissions": sum(
            lane["breaker"]["closes"] for lane in quarantine.values()),
        "fleet_undetected_full_coverage": (
            fleet["full_coverage"]["sdc_undetected"]),
        "fleet_detected_full_coverage": (
            fleet["full_coverage"]["sdc_detected"]),
    }


def render(report: dict) -> str:
    """Human-readable CLI summary."""
    summary = report["summary"]
    lines = []
    lines.append(
        "ras sweep (seed %d%s): scrub arms %s x sdc rates %s"
        % (report["seed"], ", quick" if report["quick"] else "",
           "/".join(name for name, _ in SCRUB_ARMS),
           "/".join("%g" % r for r in SDC_RATES)))
    lines.append("  %-10s %-6s %9s %9s %6s %6s %7s %7s %5s %6s" % (
        "scrub", "sdc", "cyc/op", "scrub%", "CE", "UE", "retired",
        "poison", "det", "undet"))
    for arm, _ in SCRUB_ARMS:
        for rate in SDC_RATES:
            cell = report["grid"][arm]["%g" % rate]
            lines.append(
                "  %-10s %-6g %9.0f %8.2f%% %6d %6d %7d %7d %5d %6d" % (
                    arm, rate, cell["cycles_per_op"],
                    100.0 * cell["scrub_overhead"],
                    cell["ras"]["ce_corrected"], cell["ras"]["ue_poisoned"],
                    cell["ras"]["rows_retired"], cell["poison_reads"],
                    cell["detected"],
                    cell["undetected"] + cell["rest_mismatches"]))
    lines.append(
        "  at-risk lines: %d scrub-off vs %d default (scrubbing corrects "
        "singles before they pair up)"
        % (summary["at_risk_scrub_off"], summary["at_risk_scrub_default"]))
    for lane in ("tls", "deflate"):
        on = report["sdc"][lane]["verify_on"]
        off = report["sdc"][lane]["verify_off"]
        lines.append(
            "sdc %-8s verify-on: %d corrupted, %d detected, %d undetected, "
            "%d spilled | verify-off: %d undetected"
            % (lane, on["corrupted"], on["detected"], on["undetected"],
               on["spilled"], off["undetected"]))
    lines.append(
        "quarantine: %d trips, %d probation re-admissions"
        % (summary["quarantine_trips"], summary["quarantine_readmissions"]))
    fleet = report["fleet"]["full_coverage"]
    lines.append(
        "fleet sdc_storm: %d injected, %d detected, %d undetected at full "
        "coverage (%d with a 30%% coverage gap)"
        % (fleet["sdc_injected"], fleet["sdc_detected"],
           fleet["sdc_undetected"],
           report["fleet"]["coverage_gap"]["sdc_undetected"]))
    nodes = report["fleet"]["nodes"]
    lines.append("node telemetry: " + "; ".join(
        "%s CE=%d UE=%d retired=%d scrubbed=%d" % (
            name, node["ce_corrected"], node["ue_poisoned"],
            node["rows_retired"], node["scrubbed_lines"])
        for name, node in sorted(nodes.items())))
    return "\n".join(lines)
