"""Deterministic RAS smoke: ``python -m repro matrix --only ras``.

Tier-2 regression gate for the whole RAS/integrity stack — the reduced
(quick) sweep must pass its own gate (zero undetected corruption with
verification on, scrub overhead under the ceiling, quarantine tripping
and re-admitting) and reproduce byte-identically under the same seed.
Runs in seconds; select with ``-m ras``.
"""

import pytest

from repro.exp import build_matrix, get_target, run_matrix
from repro.exp.matrix import target_payload_json
from repro.ras.sweep import SCRUB_OVERHEAD_CEILING

pytestmark = pytest.mark.ras


def run_quick(seed=None):
    return run_matrix(build_matrix(only=["ras"], quick=True, seed=seed))


@pytest.fixture(scope="module")
def result():
    return run_quick()


@pytest.fixture(scope="module")
def report(result):
    return result.payload["targets"]["ras"]


class TestIntegrityGate:
    def test_sweep_passes_its_own_gate(self, report):
        assert get_target("ras").gate(report) == []

    def test_no_undetected_corruption_with_verify_on(self, report):
        summary = report["summary"]
        assert summary["grid_undetected"] == 0
        assert summary["sdc_undetected_verify_on"] == 0
        assert summary["fleet_undetected_full_coverage"] == 0

    def test_verify_off_arm_demonstrates_exposure(self, report):
        # The contrast that makes "zero undetected" meaningful: with the
        # end-to-end check disabled, the same storm corrupts silently.
        assert report["summary"]["sdc_undetected_verify_off"] > 0

    def test_scrub_overhead_priced_and_bounded(self, report):
        summary = report["summary"]
        assert 0.0 < summary["scrub_overhead_default"] <= SCRUB_OVERHEAD_CEILING
        for cell in report["grid"]["off"].values():
            assert cell["scrub_overhead"] == 0.0

    def test_scrubbing_reduces_ue_exposure(self, report):
        summary = report["summary"]
        assert summary["at_risk_scrub_default"] < summary["at_risk_scrub_off"]

    def test_poison_reads_are_typed_never_silent(self, report):
        # Every at-rest UE surfaced as a PoisonError (counted) and the
        # golden-copy compare saw zero silently-wrong reads.
        cells = [cell for arm in report["grid"].values()
                 for cell in arm.values()]
        assert sum(cell["rest_mismatches"] for cell in cells) == 0
        assert sum(cell["poison_reads"] for cell in cells) > 0

    def test_quarantine_trips_and_readmits(self, report):
        summary = report["summary"]
        assert summary["quarantine_trips"] > 0
        assert summary["quarantine_readmissions"] > 0
        for lane in report["sdc"]["quarantine"]["lanes"].values():
            assert lane["state"] == "closed"

    def test_fleet_storm_detected_and_coverage_gap_leaks(self, report):
        full = report["fleet"]["full_coverage"]
        gap = report["fleet"]["coverage_gap"]
        assert full["sdc_detected"] > 0
        assert full["sdc_undetected"] == 0
        assert gap["sdc_undetected"] > 0

    def test_node_telemetry_reports_ras_activity(self, report):
        for node in report["fleet"]["nodes"].values():
            assert node["scrubbed_lines"] > 0
            assert node["flips_deposited"] > 0


class TestDeterminism:
    def test_same_seed_byte_identical_payload(self, result):
        assert (target_payload_json(run_quick(seed=11), "ras")
                == target_payload_json(result, "ras"))

    def test_different_seed_differs(self, result):
        assert (target_payload_json(run_quick(seed=12), "ras")
                != target_payload_json(result, "ras"))
