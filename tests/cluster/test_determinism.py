"""Determinism guarantee: identical seeds => byte-identical metrics.

The cluster layer's contract is that a scenario is a pure function of its
configuration (seed included): every RNG draw flows through the kernel's
seeded ``random.Random``, event ties break by schedule order, and exports
serialise with sorted keys.  These tests run the same scenario twice and
compare the serialised output byte for byte — and statically verify that
no cluster module calls the module-level ``random`` API.
"""

import random
import re
from pathlib import Path

import repro.cluster as cluster_pkg
from repro.cluster import ClusterScenario, MixEntry, RequestMix, run_scenario


def _closed_scenario(seed):
    return ClusterScenario(
        servers=2, channels=4, connections=96, ulp="tls",
        message_bytes=4096, scheduler="adaptive-spill",
        duration_s=0.0015, warmup_s=0.0004, seed=seed,
    )


def _open_scenario(seed):
    return ClusterScenario(
        servers=2, channels=3, threads=8, ulp="deflate",
        placement="smartdimm", message_bytes=16384,
        mode="open", arrival="bursty", rate_rps=40e3, burst_rps=90e3,
        base_s=0.004, burst_s=0.004, dsa_bytes_per_sec=400e6,
        scheduler="adaptive-spill", duration_s=0.012, warmup_s=0.002,
        seed=seed,
    )


def test_closed_loop_same_seed_byte_identical():
    first = run_scenario(_closed_scenario(seed=11))
    second = run_scenario(_closed_scenario(seed=11))
    assert first.to_json() == second.to_json()
    assert first.table() == second.table()


def test_open_loop_same_seed_byte_identical():
    first = run_scenario(_open_scenario(seed=5))
    second = run_scenario(_open_scenario(seed=5))
    assert first.to_json() == second.to_json()


def test_different_seed_changes_stochastic_run():
    # Open-loop arrivals are RNG-driven, so a different seed must change
    # the measured stream (unlike a think-free closed loop, which is
    # legitimately seed-insensitive).
    base = run_scenario(_open_scenario(seed=5))
    other = run_scenario(_open_scenario(seed=6))
    assert base.to_json() != other.to_json()


def test_no_module_level_random_in_cluster_sources():
    """All randomness must flow through seeded random.Random instances:
    module-level random.* calls (shared global state) are banned."""
    package_dir = Path(cluster_pkg.__file__).parent
    forbidden = re.compile(
        r"\brandom\.(random|randint|randrange|choice|choices|shuffle|uniform|"
        r"expovariate|gauss|seed|getrandbits|sample)\s*\("
    )
    for source in sorted(package_dir.glob("*.py")):
        text = source.read_text()
        match = forbidden.search(text)
        assert match is None, "%s uses module-level %s" % (
            source.name, match.group(0) if match else "")


def test_mix_batch_sampling_matches_sequential_draws():
    """Vector-tier contract: sample_indices_batch over a pre-drawn uniform
    stream yields exactly the indices sequential sample_index calls yield
    over the same stream — both tiers sample identical tenant/size mixes."""
    mix = RequestMix([
        MixEntry(size=4096, weight=5.0),
        MixEntry(size=16384, weight=3.0),
        MixEntry(size=65536, weight=1.0),
    ])
    uniforms = [random.Random(23).random() for _ in range(500)]
    # Boundary draws must land in the same bucket on both paths too.
    uniforms += list(mix._cumulative) + [0.0, 1.0 - 1e-16]

    class _Replay:
        def __init__(self, stream):
            self._stream = iter(stream)

        def random(self):
            return next(self._stream)

    sequential = [mix.sample_index(_Replay([u])) for u in uniforms]
    assert mix.sample_indices_batch(uniforms).tolist() == sequential


def test_trace_export_deterministic(tmp_path):
    paths = []
    for run in ("a", "b"):
        scenario = _closed_scenario(seed=4)
        scenario.trace_path = str(tmp_path / ("trace_%s.json" % run))
        run_scenario(scenario)
        paths.append(scenario.trace_path)
    first, second = (Path(p).read_bytes() for p in paths)
    assert first == second
