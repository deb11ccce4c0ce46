"""Smoke test of the benchmark at a fraction of its size.

    python -m pytest benchmarks/suite -q

Every workload runs at ``--scale 0.02``, which also scales the measured
time to 0.02 of ``run_seconds``: untraced and traced at one seed and
untraced at another.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(tmp_path, *args, root=ROOT):
    out = tmp_path / ("result-%d.json" % len(list(tmp_path.iterdir())))
    completed = subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "suite", "run.py"),
         "--scale", "0.02", "--json-out", str(out)]
        + list(args), stdout=subprocess.PIPE, text=True, timeout=170,
        check=False)
    return completed, out


def run_one(tmp_path, workload, *args) -> dict:
    completed, out = _run(tmp_path, "--workload", workload, *args)
    assert completed.returncode == 0, completed.stdout
    (result,) = json.loads(out.read_text())
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"] == result["metrics"]
    return result


def units(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(tmp_path, workload):
    untraced = run_one(tmp_path, workload, "--seed", "11")
    traced = run_one(tmp_path, workload, "--seed", "11", "--trace", "1")
    other_seed = run_one(tmp_path, workload, "--seed", "12")
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer"),
                         (other_seed, "end_to_end")):
        assert {name: metric["unit"] for name, metric
                in result["metrics"].items()} == units(kind)
        assert result["attempted"] >= 1
        assert result["failed"] == 0, result["failures"]
    for metric in BENCHMARK["end_to_end"]:
        assert untraced["metrics"][metric["name"]]["value"] > 0
    # A second process at the same seed computes the same simulation, and
    # tracing (whose traced passes must also match its untraced ones)
    # changes none of it; another seed changes the inputs.
    assert traced["sim_digest"] == untraced["sim_digest"]
    assert other_seed["sim_digest"] != untraced["sim_digest"]
    self_fracs = [metric["value"] for name, metric
                  in traced["metrics"].items() if name.endswith(".self_frac")]
    assert sum(self_fracs) == pytest.approx(1.0, abs=0.01)


def test_matrix_default_seeds_match_committed_baseline(tmp_path):
    result = run_one(tmp_path, "matrix")
    assert result["failed"] == 0, result["failures"]


def test_fails_without_the_program(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no program to run.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    runs = tmp_path / "runs"
    runs.mkdir()
    completed, _ = _run(runs, "--workload", "tls_records", root=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_compare_flags_a_regression(tmp_path):
    def results(scale):
        return [{"workload": "tls_records", "seed": seed, "trace": 0,
                 "attempted": 10, "failed": 0, "sim_digest": "d%d" % seed,
                 "metrics": {metric["name"]: {"value": scale * (1 + 0.001
                                                                 * seed)}
                             for metric in BENCHMARK["end_to_end"]}}
                for seed in range(10)]

    paths = {}
    for name, scale in (("parent", 1.0), ("same", 1.0), ("slow", 1.5)):
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(results(scale)))

    def compare(change):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "compare.py"),
             "--parent", str(paths["parent"]), "--change", str(change)],
            stdout=subprocess.PIPE, text=True, check=False)

    same = compare(paths["same"])
    assert same.returncode == 0 and "REGRESSION" not in same.stdout
    slow = compare(paths["slow"])
    assert slow.returncode == 1 and "REGRESSION" in slow.stdout
