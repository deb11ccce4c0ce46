"""Tier-1 smoke for the experiment-matrix harness.

Drives a 2-point ``--quick`` slice through the *real* process pool
(``jobs=2``) and a full quick target through ``run_matrix``, asserting
the rollup schema the gate table consumes.  Select with ``-m exp``.
"""

import pytest

from repro.exp import ResultCache, build_matrix, matrix_to_json, run_matrix
from repro.exp.pool import run_points
from repro.exp.spec import RunSpec
from repro.exp.targets import TARGETS, get_target, target_names

pytestmark = pytest.mark.exp


class TestPool:
    def test_two_quick_points_through_the_real_pool(self):
        specs = [
            RunSpec("datapath", "crossover/tls/cpu/16384", 1,
                         quick=True),
            RunSpec("datapath", "crossover/tls/smartdimm/16384", 1,
                         quick=True),
        ]
        out = run_points(specs, jobs=2)
        assert set(out) == {spec.digest() for spec in specs}
        for spec in specs:
            result, elapsed = out[spec.digest()]
            assert result["rps"] > 0
            assert result["bottleneck"]
            assert elapsed >= 0.0


class TestMatrixRollup:
    @pytest.fixture(scope="class")
    def result(self):
        return run_matrix(build_matrix(only=["datapath"], quick=True),
                          jobs=2)

    def test_payload_schema(self, result):
        payload = result.payload
        assert set(payload) == {"quick", "targets", "headlines",
                                "statistics", "gates"}
        assert payload["quick"] is True
        assert set(payload["targets"]) == {"datapath"}
        rollup = payload["targets"]["datapath"]
        assert set(rollup) == {"seed", "quick", "crossover", "corun",
                               "summary"}

    def test_headline_metrics(self, result):
        headline = result.payload["headlines"]["datapath"]
        assert headline["smartdimm_speedup_vs_cpu"] > 1.0
        assert 0.0 <= headline["corun_nginx_slowdown"] <= 1.0

    def test_statistics_rollup(self, result):
        stats = result.payload["statistics"]
        assert stats["points"] == len(
            get_target("datapath").specs(quick=True))
        assert stats["targets"] == ["datapath"]
        assert stats["geomean_smartdimm_over_cpu"] > 1.0

    def test_gates_pass(self, result):
        assert result.gate_failures == []
        assert result.payload["gates"] == {"failures": [], "passed": True}

    def test_timing_is_separate_from_payload(self, result):
        assert result.timing["points_total"] == len(
            get_target("datapath").specs(quick=True))
        assert result.timing["jobs"] == 2
        assert "wall_s" not in matrix_to_json(result)

    def test_serialisation_is_deterministic(self, result):
        again = run_matrix(build_matrix(only=["datapath"], quick=True),
                           jobs=1)
        assert matrix_to_json(result) == matrix_to_json(again)


class TestCacheIntegration:
    def test_second_run_is_served_from_cache(self, tmp_path):
        specs = build_matrix(only=["datapath"], quick=True)
        cache = ResultCache(str(tmp_path / "exp-cache"))
        first = run_matrix(specs, jobs=1, cache=cache)
        assert first.timing["points_executed"] == len(specs)
        second = run_matrix(specs, jobs=1, cache=cache)
        assert second.timing["points_from_cache"] == len(specs)
        assert second.timing["points_executed"] == 0
        assert matrix_to_json(first) == matrix_to_json(second)

    def test_force_reruns_every_point(self, tmp_path):
        specs = build_matrix(only=["datapath"], quick=True)
        cache = ResultCache(str(tmp_path / "exp-cache"))
        run_matrix(specs, jobs=1, cache=cache)
        forced = run_matrix(specs, jobs=1, cache=cache, force=True)
        assert forced.timing["points_from_cache"] == 0
        assert forced.timing["points_executed"] == len(specs)


class TestRegistry:
    def test_repeated_only_keeps_each_target_once_in_first_seen_order(self):
        labels = [spec.label for spec in build_matrix(
            only=["replication", "datapath", "replication"], quick=True)]
        assert labels == (
            [spec.label for spec in get_target("replication").specs(
                quick=True)]
            + [spec.label for spec in get_target("datapath").specs(
                quick=True)])

    def test_every_target_is_wired(self):
        assert target_names() == sorted(
            ["datapath", "cluster", "faults", "overload", "replication",
             "qos", "ras"])
        for name in target_names():
            target = TARGETS[name]
            specs = target.specs(quick=True)
            assert specs, name
            assert all(spec.target == name for spec in specs)
            assert len({spec.instance for spec in specs}) == len(specs)

    def test_code_deps_resolve(self):
        from repro.exp.cache import code_digest

        digests = {name: code_digest(TARGETS[name].code_deps)
                   for name in target_names()}
        assert all(len(d) == 64 for d in digests.values())
        # datapath's narrow dep set must differ from the fleet targets'.
        assert digests["datapath"] != digests["cluster"]
