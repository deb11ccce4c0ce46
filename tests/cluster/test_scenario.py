"""Scenario runner, load generation, and CLI integration tests."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.cluster import (
    BurstyArrivals,
    ClusterScenario,
    MixEntry,
    PoissonArrivals,
    RequestMix,
    measured_deflate_ratio,
    run_scenario,
)
from repro.cluster.kernel import Simulator
from repro.workloads.corpus import CorpusKind


# -- request mixes -----------------------------------------------------------------


def test_request_mix_sampling_and_mean():
    mix = RequestMix([
        MixEntry(size=4096, weight=3.0, kind=CorpusKind.HTML),
        MixEntry(size=16384, weight=1.0, kind=CorpusKind.JSON),
    ])
    assert mix.mean_size == pytest.approx((3 * 4096 + 16384) / 4)
    rng = Simulator(seed=1).rng
    sizes = {mix.sample(rng).size for _ in range(200)}
    assert sizes == {4096, 16384}


def test_request_mix_validation():
    with pytest.raises(ValueError):
        RequestMix([])
    with pytest.raises(ValueError):
        RequestMix([MixEntry(size=100, weight=0.0)])


def test_measured_deflate_ratio_tracks_corpus():
    html = measured_deflate_ratio(CorpusKind.HTML)
    random_ratio = measured_deflate_ratio(CorpusKind.RANDOM)
    assert 0.0 < html < 0.6  # tag-heavy markup compresses well
    assert random_ratio == 1.0  # incompressible (clamped)
    assert measured_deflate_ratio(CorpusKind.LOG) < html  # near-identical prefixes


# -- arrival processes -------------------------------------------------------------


def test_poisson_arrivals_mean_gap():
    rng = Simulator(seed=3).rng
    arrivals = PoissonArrivals(rate_rps=1000.0)
    gaps = [arrivals.next_gap(0.0, rng) for _ in range(4000)]
    assert sum(gaps) / len(gaps) == pytest.approx(1e-3, rel=0.1)


def test_bursty_arrivals_rate_switches_by_phase():
    arrivals = BurstyArrivals(base_rps=100.0, burst_rps=1000.0,
                              base_s=1.0, burst_s=0.5)
    assert arrivals.rate_at(0.2) == 100.0
    assert arrivals.rate_at(1.2) == 1000.0
    assert arrivals.rate_at(1.6) == 100.0  # wrapped into the next period


def test_arrival_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        BurstyArrivals(0.0, 1.0, 1.0, 1.0)


# -- scenario runner ---------------------------------------------------------------


def test_open_loop_poisson_runs_and_reports():
    report = run_scenario(ClusterScenario(
        servers=1, channels=4, ulp="tls", message_bytes=4096,
        mode="open", arrival="poisson", rate_rps=150e3,
        duration_s=0.004, warmup_s=0.001, seed=9,
    ))
    assert report.completed > 0
    assert report.rps == pytest.approx(150e3, rel=0.25)
    assert report.latency["p999"] >= report.latency["p50"]
    assert len(report.channel_utilisation) == 1
    assert len(report.channel_utilisation[0]) == 4
    assert len(report.channel_util_timeline[0][0]) == 10


def test_mixed_sizes_scenario():
    mix = RequestMix([
        MixEntry(size=4096, weight=2.0, kind=CorpusKind.HTML),
        MixEntry(size=16384, weight=1.0, kind=CorpusKind.LOG),
    ])
    report = run_scenario(ClusterScenario(
        servers=1, channels=4, connections=48, ulp="deflate",
        placement="smartdimm", mix=mix,
        duration_s=0.004, warmup_s=0.001, seed=2,
    ))
    assert report.completed > 0
    assert report.bytes_out > 0
    # Compressed responses: fewer bytes out than 4KB minimum payload each.
    assert report.bytes_out < report.completed * 16384


def test_scenario_validation():
    with pytest.raises(ValueError):
        run_scenario(ClusterScenario(duration_s=0.001, warmup_s=0.002))
    with pytest.raises(ValueError):
        run_scenario(ClusterScenario(mode="sideways"))
    with pytest.raises(ValueError):
        run_scenario(ClusterScenario(
            mode="open", arrival="unheard-of", duration_s=0.001, warmup_s=0.0))


def test_ulp_none_forces_cpu_placement():
    report = run_scenario(ClusterScenario(
        servers=1, channels=2, connections=32, ulp="none",
        placement="smartdimm", message_bytes=4096,
        duration_s=0.001, warmup_s=0.0002, seed=1,
    ))
    assert report.scenario["placement"] == "cpu"
    assert report.dsa_served == 0


def test_report_json_round_trips():
    report = run_scenario(ClusterScenario(
        servers=1, channels=2, connections=16, ulp="tls",
        duration_s=0.001, warmup_s=0.0002, seed=1,
    ))
    decoded = json.loads(report.to_json())
    for key in ("rps", "latency_s", "channel_utilisation", "scenario",
                "events_processed", "spilled"):
        assert key in decoded
    assert decoded["scenario"]["seed"] == 1


# -- CLI ---------------------------------------------------------------------------


def test_cli_cluster_subcommand(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    json_path = tmp_path / "report.json"
    code = cli_main([
        "cluster", "--servers", "1", "--channels", "2",
        "--connections", "32", "--ulp", "tls",
        "--message-bytes", "4096", "--duration", "0.001",
        "--warmup", "0.0002", "--seed", "1",
        "--trace-out", str(trace_path), "--json-out", str(json_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "p99=" in out and "p999=" in out
    assert "per-channel DSA utilisation" in out
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    report = json.loads(json_path.read_text())
    assert report["completed"] > 0


def test_cli_help_lists_cluster(capsys):
    with pytest.raises(SystemExit):
        cli_main(["--help"])
    assert "cluster" in capsys.readouterr().out
