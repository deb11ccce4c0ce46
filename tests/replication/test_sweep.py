"""The placement sweep behind the ``replication`` matrix target:
structure, gate properties, and determinism of the
BENCH_replication.json payload."""

import json

import pytest

from repro.exp import build_matrix, run_matrix
from repro.exp.matrix import target_payload_json
from repro.replication import sweep

pytestmark = [pytest.mark.replication, pytest.mark.perf]


@pytest.fixture(scope="module")
def result():
    # Short windows: the baseline runs the full durations; here we only
    # need enough simulated time for every sweep cell to complete real ops.
    return run_matrix(build_matrix(only=["replication"], quick=True))


@pytest.fixture(scope="module")
def suite(result):
    return result.payload["targets"]["replication"]


class TestSuiteShape:
    def test_every_protocol_and_placement_present(self, suite):
        assert set(suite["protocols"]) == set(sweep.SWEEP_PROTOCOLS)
        for placements in suite["protocols"].values():
            assert set(placements) == set(sweep.PLACEMENTS)

    def test_every_cell_completed_ops_under_chaos(self, suite):
        for placements in suite["protocols"].values():
            for point in placements.values():
                assert point["ops_per_s"] > 0
                assert point["goodput_fault_rps"] > 0
                assert point["hop_timeouts"] > 0  # the node_down was felt

    def test_summary_mirrors_the_abd_cells(self, suite):
        abd = suite["protocols"]["abd"]
        assert suite["summary"]["abd_smartdimm_goodput_fault_rps"] == (
            abd["smartdimm"]["goodput_fault_rps"])
        assert suite["summary"]["smartdimm_over_cpu_goodput_fault"] == (
            pytest.approx(abd["smartdimm"]["goodput_fault_rps"]
                          / abd["cpu"]["goodput_fault_rps"]))


class TestGateProperties:
    def test_zero_violations_everywhere(self, suite):
        assert suite["summary"]["total_violations"] == 0

    def test_smartdimm_beats_cpu_goodput_under_fault(self, suite):
        # The acceptance criterion the replication target's gate enforces.
        assert suite["summary"]["smartdimm_over_cpu_goodput_fault"] > 1.0

    def test_failover_was_observed_and_bounded(self, suite):
        failover = suite["summary"]["abd_smartdimm_failover_s"]
        assert failover is not None
        assert 0.0 < failover < 0.012

    def test_retry_amplification_is_bounded(self, suite):
        assert 1.0 <= suite["summary"]["abd_smartdimm_retry_amplification"] < 2.0


class TestSerialisation:
    def test_to_json_round_trips_and_sorts(self, result, suite):
        text = target_payload_json(result, "replication")
        assert text.endswith("\n")
        assert json.loads(text) == suite

    def test_render_mentions_every_placement(self, suite):
        rendered = sweep.render(suite)
        for placement in sweep.PLACEMENTS:
            assert placement in rendered
        assert "smartdimm/cpu" in rendered


class TestDeterminism:
    def test_single_cell_sweep_is_byte_identical(self):
        def go():
            return json.dumps(sweep.run_sweep_point(
                "abd", "smartdimm", seed=11,
                duration_s=0.008, warmup_s=0.002), sort_keys=True)

        assert go() == go()
