"""Fleet-level QoS integration: tenanted scenarios end to end."""

import json
from dataclasses import replace

import pytest

from repro.cluster import ClusterScenario, run_scenario
from repro.qos import TenantSpec


def _tenanted_scenario(seed=5, mode="drr", isolate=True, tenants=None):
    return ClusterScenario(
        servers=2, channels=4, threads=8, ulp="deflate",
        placement="smartdimm", message_bytes=16384,
        mode="open", arrival="poisson",
        duration_s=0.004, warmup_s=0.001, seed=seed,
        deadline_s=500e-6, shed_expired=True, admission="codel",
        dsa_queue_limit=16, cpu_queue_limit=64,
        tenants=tenants if tenants is not None else [
            TenantSpec("victim", klass="latency", rate_rps=60e3),
            TenantSpec("steady", klass="standard", rate_rps=60e3),
            TenantSpec("aggressor", klass="batch", rate_rps=300e3,
                       queue_limit=8),
        ],
        qos_mode=mode, qos_isolate=isolate,
    )


@pytest.fixture(scope="module")
def report():
    return run_scenario(_tenanted_scenario())


def test_report_carries_per_tenant_breakdowns(report):
    tenants = report.qos["tenants"]
    assert sorted(tenants) == ["aggressor", "steady", "victim"]
    for stats in tenants.values():
        assert stats["submitted"] > 0
        assert 0.0 <= stats["deadline_hit_rate"] <= 1.0
    assert report.qos["policy"]["mode"] == "drr"
    assert set(report.qos["classes"]) <= {"latency", "standard", "batch"}


def test_noisy_neighbor_is_contained(report):
    tenants = report.qos["tenants"]
    # The aggressor offers 2.5x the victims combined, yet the victims'
    # latency stays an order of magnitude below the aggressor's.
    assert tenants["victim"]["latency_p99_us"] < tenants["aggressor"]["latency_p99_us"]
    assert tenants["victim"]["deadline_hit_rate"] >= 0.99
    # Its bounded queue rejects the excess instead of queueing it.
    assert tenants["aggressor"]["rejected"] > 0


def test_arbiter_accounts_service_seconds(report):
    served = report.qos["arbiter_served_seconds"]
    assert served  # DRR stations granted queued work
    assert all(seconds >= 0.0 for seconds in served.values())


def test_tenanted_run_is_deterministic():
    first = run_scenario(_tenanted_scenario(seed=9))
    second = run_scenario(_tenanted_scenario(seed=9))
    assert first.to_json() == second.to_json()


def test_fifo_mode_still_tags_and_accounts():
    report = run_scenario(_tenanted_scenario(mode="fifo", isolate=False))
    assert sorted(report.qos["tenants"]) == ["aggressor", "steady", "victim"]
    assert report.qos["policy"]["mode"] == "fifo"
    assert report.qos["arbiter_served_seconds"] == {}  # no DRR stations


def test_untenanted_scenario_unchanged_shape():
    scenario = ClusterScenario(
        servers=1, channels=2, threads=4, ulp="deflate",
        placement="smartdimm", message_bytes=16384,
        mode="open", arrival="poisson", rate_rps=30e3,
        duration_s=0.003, warmup_s=0.001, seed=3)
    report = run_scenario(scenario)
    assert report.qos is None
    assert "tenants" not in report.to_dict()["scenario"]


def test_vector_tier_rejects_tenants():
    scenario = _tenanted_scenario()
    scenario.tier = "vector"
    with pytest.raises(ValueError):
        run_scenario(scenario)


def test_closed_loop_tenant_drives_connections():
    report = run_scenario(_tenanted_scenario(tenants=[
        TenantSpec("interactive", klass="latency", connections=16,
                   load_factor=0.0),
        TenantSpec("bulk", klass="batch", rate_rps=120e3),
    ]))
    stats = report.qos["tenants"]["interactive"]
    assert stats["submitted"] > 0 and stats["completed"] > 0


def _reject_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def test_tenant_without_completions_reports_strict_json():
    # A tenant at 1 req/s completes nothing in a 10 ms run: its latency
    # percentiles are null, never a bare NaN token.
    scenario = replace(
        _tenanted_scenario(seed=3, tenants=[
            TenantSpec("busy", rate_rps=50e3),
            TenantSpec("idle", rate_rps=1.0)]),
        duration_s=0.01, warmup_s=0.002)
    payload = json.loads(run_scenario(scenario).to_json(),
                         parse_constant=_reject_constant)
    idle = payload["qos"]["tenants"]["idle"]
    assert idle["completed"] == 0
    assert idle["latency_p50_us"] is None and idle["latency_p99_us"] is None
    assert payload["qos"]["tenants"]["busy"]["latency_p99_us"] > 0.0
