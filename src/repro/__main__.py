"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — run the quickstart offloads and print device statistics.
* ``power [utilisation]`` — the Sec. VII-D power/area estimate.
* ``cluster`` — rack-scale discrete-event simulation: RPS, p50/p99/p999
  tail latency, and per-channel DSA utilisation under a chosen scheduler.
* ``chaos`` — seed-driven fault injection across the whole stack (ALERT_N
  storms, wedged DSAs, DRAM flips, packet loss, lost completions, a node
  failure) with MTTR/availability/goodput accounting; byte-identical
  reports per seed.
* ``replicate`` — one replicated-storage scenario on the fleet: ABD quorum
  or chain replication with SmartDIMM-priced compress+encrypt hops,
  optional node_down/channel_wedge chaos, and a post-run consistency
  audit (exits non-zero on any violation).
* ``matrix`` — the experiment matrix, the one way to run every figure
  family: each target's grid of (instance, seed) points fanned across a
  process pool (``--jobs N``) with a content-addressed result cache.  It
  prints each target's report, rolls up cross-target statistics, and
  exits non-zero if any acceptance gate fails.  ``--only X`` restricts
  it to one family (``datapath``, ``cluster``, ``faults``, ``overload``,
  ``replication``, ``qos``, ``ras``; see ``--list``) and ``--quick``
  shrinks every grid.  ``--check`` re-runs the full grid and requires
  each rollup to match its committed ``BENCH_<target>.json``
  byte-for-byte,
  printing the headline metrics as baseline -> fresh on a mismatch;
  ``--update`` rewrites those baselines instead.  Missing or corrupt
  baselines exit non-zero with a one-line error, no traceback.
"""

from __future__ import annotations

import argparse
import sys


def write_json_report(path: str, payload: str, label: str) -> None:
    """Atomically write a report payload: tmp file + rename.

    Every ``--json-out`` goes through here so a crash (or a parallel
    matrix run racing a serial one) can never leave a torn half-written
    baseline on disk.
    """
    import os
    import tempfile

    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix="." + os.path.basename(target) + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        # mkstemp creates the file owner-only; give the report the mode a
        # plain open() would, or every baseline comes out 0600.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    print("%s JSON written to %s" % (label, path))


def _load_baseline(path: str, name: str) -> dict:
    """Load a committed ``BENCH_*.json`` baseline or die with one line.

    Missing or corrupt baselines are operator errors, not bugs worth a
    traceback: raise :class:`SystemExit` with a single-line message.
    """
    import json

    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            "error: no committed %s baseline at %s (generate one with "
            "python -m repro matrix --only %s --update)" % (name, path, name))
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise SystemExit(
            "error: committed %s baseline %s is unreadable: %s"
            % (name, path, exc))


def _check_baseline(target, result) -> int:
    """Compare a matrix run's rollup against the target's committed baseline.

    Both sides are canonicalised through the same JSON encoding, so the
    comparison is exact: any drift (different seed, different mode, or a
    genuine behaviour change) fails, and the headline metrics are
    printed as baseline -> fresh to show where it moved.
    """
    import json

    from repro.exp.matrix import target_payload_json
    from repro.exp.targets import format_value

    path = target.baseline_path()
    baseline = _load_baseline(path, target.name)
    fresh = result.payload["targets"][target.name]
    if (json.dumps(baseline, indent=2, sort_keys=True) + "\n"
            == target_payload_json(result, target.name)):
        print("baseline check passed: fresh run matches %s" % path)
        return 0
    print("FAIL: fresh %s run differs from committed %s "
          "(was it generated with the same seed and mode?)"
          % (target.name, path))
    before, after = target.headline(baseline), target.headline(fresh)
    for metric in sorted(after):
        print("  %s: %s -> %s" % (metric, format_value(before[metric]),
                                  format_value(after[metric])))
    return 1


def _cmd_demo(_args) -> int:
    import zlib

    from repro import SmartDIMMSession
    from repro.ulp.ctx_cache import cached_aesgcm
    from repro.workloads.corpus import CorpusKind, generate_corpus

    session = SmartDIMMSession()
    key, nonce = bytes(range(16)), bytes(12)
    payload = generate_corpus(CorpusKind.TEXT, 6000)
    out = session.tls_encrypt(key, nonce, payload)
    ct, tag = cached_aesgcm(key).encrypt(nonce, payload)
    assert out == ct + tag
    print("TLS offload: %d bytes encrypted, bit-exact vs software" % len(payload))
    page = generate_corpus(CorpusKind.HTML, 4096)
    stream = session.deflate_page(page)
    assert zlib.decompress(stream, -15) == page
    print("deflate offload: 4096 -> %d bytes, zlib-verified" % len(stream))
    back = session.inflate_page(stream)
    assert back == page
    print("inflate offload: round trip complete")
    stats = session.device.stats
    print(
        "device: %d offloads, %d DSA lines, %d self-recycles, %d S10 serves, "
        "%d S7 drops, %d ALERT_N"
        % (
            stats.offloads_finalized,
            stats.dsa_lines_processed,
            stats.self_recycles,
            stats.scratchpad_serves,
            stats.ignored_writes,
            stats.alerts,
        )
    )
    return 0


def _cmd_power(args) -> int:
    from repro.analysis.power import PowerModel

    model = PowerModel()
    utilisation = args.utilisation
    report = model.report(utilisation)
    print("channel utilisation: %.0f%%" % (100 * utilisation))
    print("dynamic power: %.2f W (full activity: %.2f W)"
          % (report.dynamic_watts, model.full_activity_watts()))
    print("TLS DSA FPGA share: %.1f%%" % (100 * model.tls_utilisation_fraction()))
    for component, watts in sorted(report.breakdown.items(), key=lambda kv: -kv[1]):
        print("  %-18s %6.2f W" % (component, watts))
    return 0


def _cmd_cluster(args) -> int:
    import json

    from repro.cluster import ClusterScenario, crosscheck_tiers, run_scenario

    scenario = ClusterScenario(
        servers=args.servers,
        channels=args.channels,
        threads=args.threads,
        ulp=args.ulp,
        placement=args.placement,
        message_bytes=args.message_bytes,
        mode=args.mode,
        connections=args.connections,
        arrival=args.arrival,
        rate_rps=args.rate,
        scheduler=args.sched,
        dsa_bytes_per_sec=args.dsa_rate,
        duration_s=args.duration,
        warmup_s=args.warmup,
        seed=args.seed,
        trace_path=args.trace_out,
        tier=args.tier,
        epoch_s=args.epoch_s,
        arrival_stream=args.arrival_stream,
    )
    if args.crosscheck:
        verdict = crosscheck_tiers(scenario)
        print(json.dumps(verdict, indent=2, sort_keys=True))
        if not verdict["passed"]:
            print("FAIL: vector tier diverged from the event kernel")
            return 1
        print("crosscheck passed: tiers agree within tolerance")
        return 0
    report = run_scenario(scenario)
    print(report.table())
    if args.trace_out:
        print("chrome trace written to %s (open in about:tracing)" % args.trace_out)
    if args.json_out:
        write_json_report(args.json_out, report.to_json(), "metrics")
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.faults.chaos import render_chaos, run_chaos

    report = run_chaos(seed=args.seed, ops=args.ops)
    print(render_chaos(report))
    payload = json.dumps(report, sort_keys=True)
    if args.json_out:
        write_json_report(args.json_out, payload, "chaos report")
    else:
        print(payload)
    corrupted = report["micro"]["corruption_observed"]
    if corrupted:
        print("FAIL: %d corrupted outputs escaped recovery" % corrupted)
        return 1
    return 0


def _cmd_replicate(args) -> int:
    from repro.cluster.chaos import FleetFaultInjector
    from repro.replication import sweep
    from repro.replication.scenario import run_replication

    scenario = sweep.replication_scenario(
        args.placement, args.protocol, args.seed,
        value_bytes=args.value_bytes,
        duration_s=args.duration, warmup_s=args.warmup)
    scenario.replicas = args.replicas
    scenario.servers = max(scenario.servers, args.replicas)
    injector = (
        FleetFaultInjector(sweep.standard_windows(args.duration, args.warmup))
        if args.chaos else None)
    report = run_replication(scenario, fault_injector=injector)
    print(report.table())
    if args.json_out:
        write_json_report(args.json_out, report.to_json(),
                          "replication report")
    violations = report.consistency["violation_count"]
    if violations:
        print("FAIL: %d consistency violations" % violations)
        return 1
    return 0


def _cmd_matrix(args) -> int:
    from repro.exp import ResultCache, build_matrix, matrix_to_json, run_matrix
    from repro.exp.matrix import render, target_payload_json
    from repro.exp.targets import TARGETS, target_names

    if args.list:
        for name in target_names():
            target = TARGETS[name]
            points = len(target.specs(quick=args.quick))
            print("%-12s %3d points  %s" % (name, points, target.description))
        return 0
    only = args.only or None
    if only:
        unknown = sorted(set(only) - set(TARGETS))
        if unknown:
            raise SystemExit(
                "error: unknown matrix target(s): %s (known: %s)"
                % (", ".join(unknown), ", ".join(target_names())))
    baseline_mode = "--check" if args.check else (
        "--update" if args.update else None)
    if baseline_mode and args.quick:
        raise SystemExit("error: %s works on the full-mode baselines; "
                         "drop --quick" % baseline_mode)
    if baseline_mode and args.seed is not None:
        raise SystemExit("error: %s requires each target's default seed; "
                         "drop --seed" % baseline_mode)
    specs = build_matrix(only=only, quick=args.quick, seed=args.seed)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    result = run_matrix(specs, jobs=args.jobs, cache=cache,
                        force=args.force, progress=print)
    print(render(result))
    if args.json_out:
        write_json_report(args.json_out, matrix_to_json(result),
                          "matrix report")
    status = 0
    for name in sorted(result.payload["targets"]):
        target = TARGETS[name]
        if args.update:
            write_json_report(target.baseline_path(),
                              target_payload_json(result, name),
                              "%s baseline" % name)
        elif args.check:
            status |= _check_baseline(target, result)
    if result.gate_failures:
        for failure in result.gate_failures:
            print("FAIL: %s" % failure)
        return 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SmartDIMM reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run the quickstart offloads")
    power = sub.add_parser("power", help="power/area estimate")
    power.add_argument("utilisation", nargs="?", type=float, default=0.3)
    cluster = sub.add_parser(
        "cluster",
        help="rack-scale DES: tail latency + per-channel DSA utilisation",
    )
    cluster.add_argument("--servers", type=int, default=4)
    cluster.add_argument("--channels", type=int, default=6,
                         help="memory channels (DSA queues) per server")
    cluster.add_argument("--threads", type=int, default=10)
    cluster.add_argument("--connections", type=int, default=512)
    cluster.add_argument("--ulp", choices=["tls", "deflate", "none"],
                         default="tls")
    cluster.add_argument("--placement", default="smartdimm",
                         help="smartdimm | cpu | quickassist | smartnic | "
                              "smartdimm_direct")
    cluster.add_argument("--message-bytes", type=int, default=16384)
    cluster.add_argument("--mode", choices=["closed", "open"], default="closed")
    cluster.add_argument("--arrival", choices=["poisson", "bursty"],
                         default="poisson", help="open-loop arrival process")
    cluster.add_argument("--rate", type=float, default=None,
                         help="open-loop arrival rate in req/s")
    cluster.add_argument("--sched", default="adaptive-spill",
                         choices=["static", "least-loaded", "adaptive-spill"])
    cluster.add_argument("--dsa-rate", type=float, default=None,
                         help="per-channel DSA bytes/sec (default: channel bw)")
    cluster.add_argument("--duration", type=float, default=0.02,
                         help="simulated seconds (default 0.02)")
    cluster.add_argument("--warmup", type=float, default=0.005)
    cluster.add_argument("--seed", type=int, default=1)
    cluster.add_argument("--tier", choices=["event", "vector"],
                         default="event",
                         help="event = exact DES kernel; vector = "
                              "batched-epoch fleet tier (~20x faster at "
                              "fleet scale)")
    cluster.add_argument("--epoch-s", type=float, default=None,
                         help="vector-tier epoch length in seconds "
                              "(default: duration / 50)")
    cluster.add_argument("--arrival-stream", choices=["replay", "batch"],
                         default="replay",
                         help="vector-tier open-loop arrivals: replay the "
                              "event tier's RNG draw-for-draw, or batch-"
                              "generate the same process with bulk numpy")
    cluster.add_argument("--crosscheck", action="store_true",
                         help="run BOTH tiers and verify they agree; "
                              "prints the verdict, exits 1 on divergence")
    cluster.add_argument("--trace-out", default=None,
                         help="write a Chrome-trace JSON here")
    cluster.add_argument("--json-out", default=None,
                         help="write the metrics report JSON here")
    chaos = sub.add_parser(
        "chaos",
        help="whole-stack fault injection with recovery accounting",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="drives every fault decision (default 7)")
    chaos.add_argument("--ops", type=int, default=24,
                       help="micro-phase offload operations (default 24)")
    chaos.add_argument("--json-out", default=None,
                       help="write the machine-readable report here "
                            "(default: print it after the summary)")
    replicate = sub.add_parser(
        "replicate",
        help="one replicated-storage scenario: ABD/chain with SmartDIMM "
             "hops",
    )
    replicate.add_argument("--protocol", choices=["abd", "chain"],
                           default="abd")
    replicate.add_argument("--replicas", type=int, default=3)
    replicate.add_argument("--placement",
                           choices=["smartdimm", "cpu", "quickassist"],
                           default="smartdimm",
                           help="where every hop's compress+encrypt runs")
    replicate.add_argument("--value-bytes", type=int, default=16384)
    replicate.add_argument("--chaos", action="store_true",
                           help="inject the standard node_down + "
                                "channel_wedge windows")
    replicate.add_argument("--duration", type=float, default=0.03,
                           help="simulated seconds (default 0.03)")
    replicate.add_argument("--warmup", type=float, default=0.005)
    replicate.add_argument("--seed", type=int, default=7)
    replicate.add_argument("--json-out", default=None,
                           help="write the report JSON here")
    matrix = sub.add_parser(
        "matrix",
        help="run the whole experiment matrix: every target's point grid "
             "through a process pool with a content-addressed result cache",
    )
    matrix.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = serial, "
                             "byte-identical output either way)")
    matrix.add_argument("--quick", action="store_true",
                        help="reduced grids and short windows per target")
    matrix.add_argument("--only", action="append", metavar="TARGET",
                        help="restrict to this target (repeatable); "
                             "see --list")
    matrix.add_argument("--seed", type=int, default=None,
                        help="override every target's default seed")
    matrix.add_argument("--force", action="store_true",
                        help="ignore cached results and re-run every point "
                             "(the cache is refreshed)")
    matrix.add_argument("--cache-dir", default=".exp-cache",
                        help="result-cache directory (default .exp-cache)")
    matrix.add_argument("--no-cache", action="store_true",
                        help="run without reading or writing the cache")
    matrix.add_argument("--json-out", default=None,
                        help="write the full matrix payload JSON here")
    baselines = matrix.add_mutually_exclusive_group()
    baselines.add_argument("--check", action="store_true",
                           help="require every selected target to match "
                                "its committed BENCH_<target>.json "
                                "baseline byte-for-byte")
    baselines.add_argument("--update", action="store_true",
                           help="rewrite every selected target's committed "
                                "BENCH_<target>.json baseline from this run")
    matrix.add_argument("--list", action="store_true",
                        help="list targets and point counts, then exit")
    args = parser.parse_args(argv)
    return {
        "demo": _cmd_demo,
        "power": _cmd_power,
        "cluster": _cmd_cluster,
        "chaos": _cmd_chaos,
        "replicate": _cmd_replicate,
        "matrix": _cmd_matrix,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
