"""Deterministic QoS smoke: ``python -m repro matrix --only qos``.

Tier-2 regression gate for the whole multi-tenant stack — the reduced
(quick) sweep must pass its own fairness gate, demonstrate the FIFO
contrast damage, and reproduce byte-identically under the same seed.
Runs in tens of seconds; select with ``-m qos``.
"""

import copy

import pytest

from repro.exp import build_matrix, get_target, run_matrix
from repro.exp.matrix import target_payload_json
from repro.qos import sweep

pytestmark = pytest.mark.qos


def run_quick(seed=None):
    return run_matrix(build_matrix(only=["qos"], quick=True, seed=seed))


@pytest.fixture(scope="module")
def result():
    return run_quick()


@pytest.fixture(scope="module")
def report(result):
    return result.payload["targets"]["qos"]


class TestFairnessGate:
    def test_sweep_passes_its_own_gate(self, report):
        assert get_target("qos").gate(report) == []

    def test_victim_keeps_isolated_goodput(self, report):
        summary = report["fairness"]["summary"]
        assert summary["victim_goodput_ratio"] >= 0.85
        assert summary["victim_goodput_ratio_chaos"] >= 0.85

    def test_aggressor_capped_near_fair_share(self, report):
        summary = report["fairness"]["summary"]
        assert summary["aggressor_goodput_rps"] <= summary["aggressor_cap_rps"]

    def test_fifo_arm_demonstrates_interference(self, report):
        summary = report["fairness"]["summary"]
        # Without DRR isolation the victim loses real goodput — the DRR
        # arm's >= 85% is only meaningful against this contrast.
        assert (summary["victim_goodput_ratio_fifo"]
                < summary["victim_goodput_ratio"])

    def test_latency_class_bounded_under_surge(self, report):
        summary = report["fairness"]["summary"]
        assert (summary["surge_latency_p99_us"]
                <= summary["surge_latency_deadline_us"])


class TestRetryIsolation:
    def test_no_cross_tenant_budget_exhaustion(self, report):
        retry = report["retry_isolation"]
        assert retry["victim_denied_parent"] == 0
        assert retry["victim_isolated"]

    def test_aggressor_storm_is_contained_to_its_child(self, report):
        retry = report["retry_isolation"]
        budget = retry["aggressor"]["budget"]
        assert budget["denied_child"] + budget["denied_parent"] > 0
        assert retry["victim"]["ok"] == retry["victim"]["ops"]


class TestMissingPercentile:
    def test_null_surge_p99_fails_its_row_and_renders(self, report):
        # A tenant with no measured completion reports a null p99.
        fairness = copy.deepcopy(report["fairness"])
        fairness["surge"]["tenants"]["victim"]["latency_p99_us"] = None
        rolled = sweep.fairness_rollup(
            fairness["isolated"], fairness["attack"],
            fairness["attack_fifo"], fairness["attack_chaos"],
            fairness["surge"])
        assert rolled["summary"]["surge_latency_bounded"] is False
        assert "n/a" in sweep.render(dict(report, fairness=rolled))


class TestDeterminism:
    def test_same_seed_byte_identical_payload(self, result):
        assert (target_payload_json(run_quick(seed=11), "qos")
                == target_payload_json(result, "qos"))

    def test_different_seed_differs(self, result):
        assert (target_payload_json(run_quick(seed=12), "qos")
                != target_payload_json(result, "qos"))
