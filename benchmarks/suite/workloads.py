"""The benchmark's four workloads.

A workload is built from its seed alone (``inputs``) and then driven in
*passes*: one pass runs the workload's fixed batch of operations against
freshly constructed program objects, so every pass of a run computes the
same simulated results.  That lets one run time many passes and check
that they all agree (``Pass.digest``).

Every call into the program goes through a :class:`Recorder`, which times
it and, in the traced run, opens the root frame the per-layer tracer
hangs its layer frames under.  Exceptions raised by an operation are
recorded as failures, never propagated.

Times are CPU seconds of the benchmark's own process
(``time.process_time``), not wall time, and every operation's time is
rescaled to a reference speed by the calibration samples taken just
before and after it (around every call, and between matrix points).
The benchmark shares its machine: wall time also counts the moments the
process waits for a core, and a busy neighbour can slow the core itself
by half, for milliseconds or for minutes.  CPU time removes the first
effect and the adjacent calibration most of the second (README.md has
the numbers).

Imports of program modules happen inside ``imports`` and the pass
functions, never at module import, so the set-up probe in ``worker.py``
can time exactly the imports each workload needs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import traceback
from dataclasses import asdict, dataclass, field
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

TAG_BYTES = 16

#: CPU seconds :func:`calibration_s` takes on the reference machine (the
#: 2-core x86-64 box the bounds were measured on, Python 3.11, quiet).
#: Reported times are rescaled to it.
REFERENCE_CALIBRATION_S = 0.0008


def calibration_s() -> float:
    """CPU seconds of a fixed pure-Python loop: the machine's speed now.

    About a millisecond, so that it can run next to every operation.
    """
    start = process_time()
    table = {}
    total = 0
    for i in range(10_000):
        total += i * i
        table[i & 1023] = total
    return process_time() - start


@dataclass
class Pass:
    """What one pass measured and produced."""

    cpu_s: float                  # first op start to last op end
    op_cpu_s: list                # one CPU time per operation
    calibrations: list            # (ops done before it, calibration_s())
    outputs: list                 # per-op outputs (kept for the first pass)
    sim: dict                     # simulated statistics after the pass
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)   # host-time side data
    digest: str = ""

    def seal(self) -> None:
        """Hash every simulated statistic and output into ``digest``."""
        hasher = hashlib.sha256()
        hasher.update(json.dumps(self.sim, sort_keys=True).encode())
        for output in self.outputs:
            for part in output if isinstance(output, tuple) else (output,):
                if isinstance(part, (bytes, bytearray)):
                    hasher.update(b"b%d:" % len(part))
                    hasher.update(part)
                else:
                    hasher.update(repr(part).encode())
        self.digest = hasher.hexdigest()


class OpError:
    """Stands in for the output of an operation that raised."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return "OpError(%s)" % self.text.strip().splitlines()[-1]


class Recorder:
    """Times (and, given a tracer, traces) each operation of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_cpu_s = []
        self.calibrations = []
        self.errors = []
        self.first_start = None
        self.last_end = None
        self.excluded_s = 0.0

    def calibrate(self, position: int = None) -> None:
        """Take a calibration sample after ``position`` operations (default:
        those recorded so far); one taken mid-pass is not pass time."""
        start = process_time()
        if position is None:
            position = len(self.op_cpu_s)
        self.calibrations.append((position, calibration_s()))
        if self.first_start is not None:
            self.excluded_s += process_time() - start

    def call(self, label: str, fn, *args):
        """Run ``fn(*args)`` as one timed operation, after a calibration
        sample; returns its result, or an :class:`OpError` if it raised."""
        self.calibrate()
        tracer = self.tracer
        start = process_time()
        if self.first_start is None:
            self.first_start = start
        try:
            if tracer is None:
                result = fn(*args)
            else:
                with tracer.op(label):
                    result = fn(*args)
        except Exception:  # an operation failing is a measured outcome
            result = OpError(traceback.format_exc(limit=4))
            self.errors.append("%s raised %r" % (label, result))
        end = process_time()
        self.op_cpu_s.append(end - start)
        self.last_end = end
        return result

    def finish(self, outputs: list, sim: dict, extra: dict = None) -> Pass:
        """Close the pass with a calibration sample after its last op."""
        cpu_s = self.last_end - self.first_start - self.excluded_s
        self.calibrate()
        return Pass(cpu_s=cpu_s, op_cpu_s=self.op_cpu_s,
                    calibrations=self.calibrations, outputs=outputs, sim=sim,
                    errors=self.errors, extra=extra or {})


class Checks:
    """Counts output checks and keeps a message per failed one."""

    def __init__(self):
        self.made = 0
        self.failures = []

    def expect(self, ok: bool, message: str) -> None:
        self.made += 1
        if not ok:
            self.failures.append(message)


class Workload:
    """One benchmark workload; see the module docstring for the protocol."""

    name = ""

    @staticmethod
    def warmup(inputs: list) -> list:
        """The input of the one operation set-up runs before timing."""
        return inputs[:1]


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _session_sim(session) -> dict:
    """Every simulated statistic of a micro-tier session."""
    return {
        "mc_cycle": session.mc.cycle,
        "mc": asdict(session.mc.stats),
        "llc": asdict(session.llc.stats),
        "smartdimm": asdict(session.device.stats),
        "compcpy": asdict(session.compcpy.stats),
        "resilience": asdict(session.resilience_stats),
    }


def _micro_counts(sim: dict, offloaded_bytes: int) -> dict:
    """Simulated per-layer ratios of a micro-tier pass (Figs. 3/11)."""
    kb = offloaded_bytes / 1024.0
    mc, llc = sim["mc"], sim["llc"]
    row_accesses = mc["row_hits"] + mc["row_misses"]
    llc_accesses = llc["hits"] + llc["misses"]
    return {
        "sim.cycles_per_kb": sim["mc_cycle"] / kb,
        "mc.dram_bytes_per_kb": (mc["bytes_read"] + mc["bytes_written"]) / kb,
        "mc.row_hit_frac": mc["row_hits"] / row_accesses if row_accesses else 0.0,
        "llc.miss_frac": llc["misses"] / llc_accesses if llc_accesses else 0.0,
        "smartdimm.dsa_lines": sim["smartdimm"]["dsa_lines_processed"],
        "compcpy.flushed_dirty_lines": sim["compcpy"]["flushed_dirty_lines"],
    }


# -- tls_records ---------------------------------------------------------------------

#: Record sizes and their weights (1:2:1).  A pass holds 12 records per
#: unit of weight: 12 x 4 KB, 24 x 16 KB, 12 x 64 KB.  The counts are fixed
#: and only the contents are drawn from the seed, so every seed costs the
#: same host time.
TLS_SIZES = ((4096, 1), (16384, 2), (65536, 1))
TLS_RECORDS_PER_WEIGHT = 12
TEXT_KINDS = ("html", "text", "json", "log")


@dataclass
class Record:
    plaintext: bytes
    key: bytes
    nonce: bytes
    aad: bytes


class TlsRecords(Workload):
    """AES-GCM records through the full SmartDIMM stack, both directions."""

    name = "tls_records"

    @staticmethod
    def imports() -> None:
        import repro.core.offload_api  # noqa: F401

    @staticmethod
    def inputs(seed: int, scale: float) -> list:
        from repro.workloads.corpus import CorpusKind, generate_corpus

        rng = random.Random(seed)
        records = []
        for size, weight in TLS_SIZES:
            for _ in range(_scaled(TLS_RECORDS_PER_WEIGHT * weight, scale)):
                kind = CorpusKind(rng.choice(TEXT_KINDS))
                records.append(Record(
                    plaintext=generate_corpus(kind, size, rng.getrandbits(31)),
                    key=rng.randbytes(16), nonce=rng.randbytes(12),
                    aad=rng.randbytes(13)))
        rng.shuffle(records)
        return records

    @staticmethod
    def run_pass(records: list, recorder: Recorder) -> Pass:
        from repro.core.offload_api import SmartDIMMSession

        session = SmartDIMMSession()
        outputs = []
        for record in records:
            sealed = recorder.call("tls_encrypt/%d" % len(record.plaintext),
                                   session.tls_encrypt, record.key,
                                   record.nonce, record.plaintext, record.aad)
            opened = None
            if isinstance(sealed, bytes):
                opened = recorder.call(
                    "tls_decrypt/%d" % len(record.plaintext),
                    session.tls_decrypt, record.key, record.nonce,
                    sealed[:-TAG_BYTES], record.aad)
            outputs.append((sealed, opened))
        return recorder.finish(outputs, _session_sim(session))

    @staticmethod
    def check(records: list, first: Pass, checks: Checks) -> None:
        from repro.ulp.gcm import AESGCM

        for index, (record, (sealed, opened)) in enumerate(
                zip(records, first.outputs)):
            ciphertext, tag = AESGCM(record.key).encrypt(
                record.nonce, record.plaintext, record.aad)
            checks.expect(sealed == ciphertext + tag,
                          "record %d: ciphertext||tag differs from AESGCM"
                          % index)
            checks.expect(opened == record.plaintext + tag,
                          "record %d: decrypt did not return plaintext||tag"
                          % index)

    @staticmethod
    def counts(records: list, first: Pass) -> dict:
        offloaded = 2 * sum(len(record.plaintext) for record in records)
        return _micro_counts(first.sim, offloaded)


# -- deflate_pages -------------------------------------------------------------------

#: A pass holds 16 pages of each corpus kind; random pages are
#: incompressible and take the hardware-overflow path.
PAGE_KINDS = ("html", "text", "json", "log", "random")
PAGES_PER_KIND = 16


class DeflatePages(Workload):
    """4 KB pages through the DEFLATE DSA, then back through inflate."""

    name = "deflate_pages"

    @staticmethod
    def imports() -> None:
        import repro.core.offload_api  # noqa: F401

    @staticmethod
    def inputs(seed: int, scale: float) -> list:
        from repro.dram.commands import PAGE_SIZE
        from repro.workloads.corpus import CorpusKind, generate_corpus

        rng = random.Random(seed)
        pages = [generate_corpus(CorpusKind(kind), PAGE_SIZE,
                                 rng.getrandbits(31))
                 for kind in PAGE_KINDS
                 for _ in range(_scaled(PAGES_PER_KIND, scale))]
        rng.shuffle(pages)
        return pages

    @staticmethod
    def run_pass(pages: list, recorder: Recorder) -> Pass:
        from repro.core.offload_api import SmartDIMMSession

        session = SmartDIMMSession()
        outputs = []
        for page in pages:
            stream = recorder.call("deflate_page", session.deflate_page, page)
            restored = None
            if isinstance(stream, bytes):
                restored = recorder.call("inflate_page", session.inflate_page,
                                         stream)
            outputs.append((stream, restored))
        return recorder.finish(outputs, _session_sim(session))

    @staticmethod
    def check(pages: list, first: Pass, checks: Checks) -> None:
        from repro.core.dsa.deflate_dsa import HardwareMatcher, MAX_PAYLOAD
        from repro.ulp.bitstream import BitWriter
        from repro.ulp.deflate import deflate_decompress, write_fixed_block

        for index, (page, (stream, restored)) in enumerate(
                zip(pages, first.outputs)):
            if stream is None:
                # None is the hardware-overflow contract: it is correct only
                # when the DSA's own fixed-Huffman stream cannot fit the page.
                writer = BitWriter()
                write_fixed_block(writer, HardwareMatcher().tokenize(page),
                                  final=True)
                checks.expect(len(writer.getvalue()) > MAX_PAYLOAD,
                              "page %d: deflate_page returned None without "
                              "overflowing" % index)
                continue
            checks.expect(isinstance(stream, bytes)
                          and deflate_decompress(stream) == page,
                          "page %d: deflate_decompress(stream) != page"
                          % index)
            checks.expect(restored == page,
                          "page %d: inflate_page(deflate_page(x)) != x"
                          % index)

    @staticmethod
    def counts(pages: list, first: Pass) -> dict:
        streams = [stream for stream, _ in first.outputs
                   if isinstance(stream, bytes)]
        compressed_input = sum(len(page) for page, (stream, _)
                               in zip(pages, first.outputs)
                               if isinstance(stream, bytes))
        offloaded = sum(len(page) for page in pages) + sum(map(len, streams))
        counts = _micro_counts(first.sim, offloaded)
        counts["deflate.overflow_frac"] = 1.0 - len(streams) / len(pages)
        counts["deflate.ratio"] = (sum(map(len, streams)) / compressed_input
                                   if compressed_input else 0.0)
        return counts


# -- fleet_vector --------------------------------------------------------------------

#: Simulated seconds per scenario at scale 1.  The vector tier's epoch is
#: fixed at 1 ms, so these set the number of epochs, not their width.
SPILL_DURATION_S = 0.08
CLOSED_DURATION_S = 0.016
FLEET_SEEDS = 4


def _spill_scenario(seed: int, scale: float):
    """Bursty open-loop DEFLATE pushed past DSA capacity: adaptive spill."""
    from repro.cluster.scenario import ClusterScenario

    duration = SPILL_DURATION_S * scale
    return ClusterScenario(
        servers=2, channels=8, threads=32, ulp="deflate",
        placement="smartdimm", message_bytes=16384, mode="open",
        arrival="bursty", rate_rps=800e3, burst_rps=1280e3,
        base_s=0.008, burst_s=0.014, dsa_bytes_per_sec=600e6,
        scheduler="adaptive-spill", duration_s=duration,
        warmup_s=0.15 * duration, seed=seed, epoch_s=0.001, tier="vector",
        arrival_stream="batch")


def _closed_scenario(seed: int, scale: float):
    """Saturated closed-loop TLS: 8 servers x 6 channels, 4096 clients."""
    from repro.cluster.scenario import ClusterScenario

    duration = CLOSED_DURATION_S * scale
    return ClusterScenario(
        servers=8, channels=6, threads=10, ulp="tls", placement="smartdimm",
        message_bytes=16384, mode="closed", connections=4096,
        duration_s=duration, warmup_s=0.15 * duration, seed=seed,
        epoch_s=0.001, tier="vector")


class FleetVector(Workload):
    """Rack-scale scenarios on the batched-epoch vector tier."""

    name = "fleet_vector"

    @staticmethod
    def imports() -> None:
        import repro.cluster.vector  # noqa: F401

    @staticmethod
    def inputs(seed: int, scale: float) -> list:
        rng = random.Random(seed)
        scenarios = []
        for _ in range(FLEET_SEEDS):
            scenario_seed = rng.getrandbits(31)
            scenarios.append(_spill_scenario(scenario_seed, scale))
            scenarios.append(_closed_scenario(scenario_seed, scale))
        return scenarios

    @staticmethod
    def run_pass(scenarios: list, recorder: Recorder) -> Pass:
        from repro.cluster import vector

        reports = [recorder.call("vector/%s" % scenario.mode,
                                 vector.run_vector_scenario, scenario)
                   for scenario in scenarios]
        outputs = [report if isinstance(report, OpError) else report.to_json()
                   for report in reports]
        return recorder.finish(outputs, {})

    @staticmethod
    def check(scenarios: list, first: Pass, checks: Checks) -> None:
        from repro.cluster.scenario import ClusterScenario
        from repro.cluster.vector import crosscheck_tiers

        for index, (scenario, output) in enumerate(
                zip(scenarios, first.outputs)):
            if isinstance(output, OpError):
                checks.expect(False, "scenario %d raised" % index)
                continue
            report = json.loads(output)
            # The report's counters are measurement-window scoped, so
            # requests in flight at the window edges are not visible; what
            # must hold is that every completion was sampled once, and that
            # a closed loop never has more than one request per client out.
            ok = (report["latency_s"]["count"] == report["completed"]
                  and report["wait_cpu_s"]["count"] == report["completed"]
                  and 0 <= report["spilled"] <= report["submitted"]
                  and report["completed"] > 0)
            if scenario.mode == "closed":
                ok = ok and (abs(report["submitted"] - report["completed"])
                             <= scenario.connections)
            if report.get("overload"):
                shed = sum(report["overload"]["shed"].values())
                ok = ok and shed <= report["submitted"]
            checks.expect(ok, "scenario %d: report accounting does not "
                              "conserve requests" % index)
        # One tier-agreement verdict on the cluster target's small open-loop
        # spill scenario, at the tolerances the repository's perf gate uses.
        small = ClusterScenario(
            servers=2, channels=4, threads=8, ulp="tls",
            placement="smartdimm", message_bytes=16384, mode="open",
            arrival="poisson", scheduler="adaptive-spill", duration_s=0.02,
            warmup_s=0.005, seed=scenarios[0].seed)
        verdict = crosscheck_tiers(small, count_rel_tol=0.10,
                                   bucket_frac_tol=0.5)
        checks.expect(verdict["passed"],
                      "crosscheck_tiers failed: %s" % json.dumps(verdict))

    @staticmethod
    def counts(scenarios: list, first: Pass) -> dict:
        reports = [json.loads(output) for output in first.outputs
                   if not isinstance(output, OpError)]
        submitted = sum(report["submitted"] for report in reports)
        return {
            "sim.requests": submitted,
            "sim.spill_frac": (sum(report["spilled"] for report in reports)
                               / submitted if submitted else 0.0),
            "sim.p99_ms": max(1e3 * (report["latency_s"]["p99"] or 0.0)
                              for report in reports),
        }


# -- matrix --------------------------------------------------------------------------

#: Targets whose gates hold only at their own default seed: faults pins
#: its zero-corruption contract there (at a third of other chaos seeds
#: corrupted outputs escape, the ROADMAP's open input-integrity item),
#: and the ras scrub-exposure gate needs the default seed at quick sample
#: sizes.  They keep that seed whatever the benchmark seed is, so no seed
#: makes the workload fail; README.md lists the failing seeds.
PINNED_TARGETS = ("faults", "ras")

#: The cheapest targets, run instead of the whole grid when --scale < 1.
SMOKE_TARGETS = ("datapath", "replication")

#: The committed baseline checked at default seeds: the cheapest full
#: target that has one (about a second of the full matrix's 33 s).
BASELINE_TARGET = "replication"


class Matrix(Workload):
    """The quick experiment matrix, serial and uncached."""

    name = "matrix"

    @staticmethod
    def imports() -> None:
        import repro.exp  # noqa: F401

    @staticmethod
    def inputs(seed, scale: float) -> list:
        from repro.exp import target_names

        names = target_names() if scale >= 1.0 else list(SMOKE_TARGETS)
        return [(name, None if seed is None or name in PINNED_TARGETS
                 else seed) for name in names]

    @staticmethod
    def run_pass(grid: list, recorder: Recorder) -> Pass:
        from repro.exp import get_target, matrix_to_json
        from repro.exp import matrix as exp_matrix

        specs = [spec for name, seed in grid
                 for spec in get_target(name).specs(seed=seed, quick=True)]
        tracer = recorder.tracer
        point_cpu_s = {}
        last = {}

        def progress(line):
            # Serial points run back to back, so each one runs from the
            # previous progress line to its own "done" line.  A calibration
            # sample between points follows the machine's speed through
            # the pass; its time is excluded from the pass and the points.
            cpu, wall = process_time(), perf_counter()
            if line.startswith("  done "):
                label = line.split()[1]
                point_cpu_s[label] = cpu - last["cpu"]
                if tracer is not None:
                    tracer.span(label, "point", last["wall"], wall)
            recorder.calibrate(len(point_cpu_s))
            last.update(cpu=process_time(), wall=perf_counter())

        result = recorder.call("run_matrix", exp_matrix.run_matrix, specs,
                               1, None, False, progress)
        if isinstance(result, OpError):
            return recorder.finish([result], {})
        # The matrix is one call; its operations are the points it ran.
        recorder.op_cpu_s = [point_cpu_s[spec.label] for spec in specs]
        return recorder.finish([matrix_to_json(result)],
                               {"gate_failures": result.gate_failures,
                                "points": len(specs)},
                               {"point_cpu_s": point_cpu_s})

    @staticmethod
    def check(grid: list, first: Pass, checks: Checks) -> None:
        from repro.exp import get_target

        if isinstance(first.outputs[0], OpError):
            checks.expect(False, "run_matrix raised")
            return
        failures = first.sim["gate_failures"]
        for name, _ in grid:
            if get_target(name).gate is None:
                continue
            mine = [line for line in failures if line.startswith(name + ":")]
            checks.expect(not mine, "; ".join(mine))
        if all(seed is None for _, seed in grid):
            _check_baseline(checks)

    @staticmethod
    def warmup(grid: list) -> list:
        return [(name, seed) for name, seed in grid if name == "datapath"]

    @staticmethod
    def counts(grid: list, first: Pass) -> dict:
        counts = {"matrix.points": first.sim.get("points", 0),
                  "matrix.gate_failures": len(first.sim.get("gate_failures",
                                                            ()))}
        point_cpu_s = first.extra.get("point_cpu_s", {})
        for name, _ in grid:
            counts["target.%s.frac" % name] = sum(
                cpu for label, cpu in point_cpu_s.items()
                if label.split("/", 1)[0] == name) / first.cpu_s
        counts["exp.overhead_frac"] = (1.0 - sum(point_cpu_s.values())
                                       / first.cpu_s)
        return counts


def _check_baseline(checks: Checks) -> None:
    """The ``matrix --check`` comparison for one committed baseline."""
    from repro.exp import get_target, run_matrix
    from repro.exp.matrix import target_payload_json

    target = get_target(BASELINE_TARGET)
    result = run_matrix(target.specs(), jobs=1)
    with open(os.path.join(ROOT, target.baseline)) as handle:
        committed = json.dumps(json.load(handle), indent=2,
                               sort_keys=True) + "\n"
    checks.expect(target_payload_json(result, BASELINE_TARGET) == committed,
                  "%s payload differs from %s"
                  % (BASELINE_TARGET, target.baseline))


WORKLOADS = {workload.name: workload for workload in (
    Matrix, TlsRecords, DeflatePages, FleetVector)}
