"""Deterministic overload-smoke: ``python -m repro matrix --only overload``.

Tier-2 regression gate for the whole overload-control stack — the reduced
(quick) sweep must show graceful degradation with the control stack on,
metastable collapse with it off, engage every mechanism, and reproduce
byte-identically under the same seed.  Runs in a few seconds; select with
``-m overload``.
"""

import pytest

from repro.exp import build_matrix, run_matrix
from repro.exp.matrix import target_payload_json
from repro.overload.sweep import DEADLINE_S

pytestmark = pytest.mark.overload


def run_quick(seed=None):
    return run_matrix(build_matrix(only=["overload"], quick=True, seed=seed))


@pytest.fixture(scope="module")
def result():
    return run_quick()


@pytest.fixture(scope="module")
def report(result):
    return result.payload["targets"]["overload"]


def curve_point(report, curve, factor):
    for point in report["sweep"]["curves"][curve]:
        if point["load_factor"] == factor:
            return point
    raise AssertionError("no %s point at %sx" % (curve, factor))


class TestGracefulDegradation:
    def test_goodput_at_2x_holds_70_percent_of_peak(self, report):
        assert report["sweep"]["summary"]["shed_2x_over_peak"] >= 0.70

    def test_controlled_p99_bounded_by_deadline(self, report):
        # Every completion the control stack lets through is worth serving.
        point = curve_point(report, "shed", 2.0)
        assert point["p99_s"] <= DEADLINE_S

    def test_control_mechanisms_engage_at_overload(self, report):
        point = curve_point(report, "shed", 2.0)
        dropped = (point["rejected_admission"]
                   + point["rejected_backpressure"]
                   + sum(point["shed"].values()))
        assert dropped > 0  # excess load is refused, not queued


class TestUncontrolledCollapse:
    def test_goodput_collapses_without_control(self, report):
        summary = report["sweep"]["summary"]
        assert summary["noshed_2x_over_peak"] <= 0.35
        assert (summary["goodput_2x_noshed_rps"]
                < summary["goodput_2x_shed_rps"])

    def test_collapse_is_metastable_not_throughput_loss(self, report):
        # The signature of metastable overload: raw throughput stays near
        # capacity while goodput (deadline-met completions) evaporates.
        point = curve_point(report, "noshed", 2.0)
        capacity = report["sweep"]["summary"]["capacity_rps"]
        assert point["rps"] >= 0.8 * capacity
        assert point["goodput_rps"] < 0.5 * point["rps"]


class TestRetryAmplification:
    def test_budget_caps_retry_traffic(self, report):
        retry = report["retry_amplification"]
        assert retry["budgeted"]["budget_denials"] > 0
        assert retry["retry_reduction"] > 0.0
        assert (retry["budgeted"]["retries_per_op"]
                < retry["unbounded"]["retries_per_op"])


class TestDeterminism:
    def test_same_seed_byte_identical_payload(self, result):
        assert (target_payload_json(run_quick(seed=11), "overload")
                == target_payload_json(result, "overload"))

    def test_different_seed_differs(self, result):
        assert (target_payload_json(run_quick(seed=12), "overload")
                != target_payload_json(result, "overload"))
