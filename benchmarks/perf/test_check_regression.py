"""Perf-marked checks of the gate itself: its parent, its processes, its verdicts.

Excluded from tier-1 (``testpaths = ["tests"]`` plus the ``perf`` marker);
run explicitly with::

    PYTHONPATH=src python -m pytest -m perf benchmarks/perf -q
"""

import os
import subprocess

import pytest

import check_regression

pytestmark = pytest.mark.perf

TIMED = [row for row in check_regression.ROWS if row.op]


def test_every_timed_row_has_the_paired_bound():
    assert TIMED and all(row.bound == 0.20 for row in TIMED)
    names = [row.name for row in check_regression.ROWS]
    assert len(names) == len(set(names))


def test_every_timed_row_runs_in_a_fresh_process_of_this_tree():
    readings = check_regression.run_side(
        check_regression.REPO, [row.name for row in TIMED], repeats=1)
    assert set(readings) == {row.name for row in TIMED}
    for name, seconds in readings.items():
        assert isinstance(seconds, float) and seconds > 0, (name, seconds)


def test_a_slower_change_is_a_regression_and_a_steady_one_is_not():
    row = TIMED[0]
    parent = [1.00, 1.02, 0.99, 1.01, 1.00, 0.98]
    judge = check_regression.judge
    assert judge(row, parent, [1.3 * p for p in parent])[0] == "REGRESSION"
    assert judge(row, parent, [1.1 * p for p in parent])[0] == "within bound"
    noisy = [1.0, 1.6, 0.7, 1.4, 0.8, 1.2]
    assert judge(row, noisy, parent)[0] == "unresolved"
    assert {"REGRESSION", "unresolved"} <= set(check_regression.FAILING)


def test_a_row_only_the_change_can_run_is_reported_not_compared():
    row, change = TIMED[0], [1.0] * 6
    assert check_regression.judge(row, ["AttributeError: x"] * 6, change) == (
        "no parent reading", "AttributeError: x")
    assert check_regression.judge(row, change, ["ValueError: y"] * 6) == (
        "ERROR", "ValueError: y")
    assert "ERROR" in check_regression.FAILING
    assert "no parent reading" not in check_regression.FAILING


def test_a_tree_that_cannot_import_reads_as_an_error_per_row(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise ImportError('no such API')\n")
    names = [row.name for row in TIMED[:2]]
    readings = check_regression.run_side(str(tmp_path), names, repeats=1)
    assert readings == {name: "ImportError: no such API" for name in names}


def _commit(repo, text):
    with open(os.path.join(repo, "src", "mod.py"), "w") as handle:
        handle.write(text)
    subprocess.run(["git", "-C", repo, "add", "-A"], check=True)
    subprocess.run(["git", "-C", repo, "-c", "user.name=t", "-c", "user.email=t@t",
                    "commit", "-qm", text], check=True)


def test_the_parent_is_head_only_while_tracked_files_differ(tmp_path, monkeypatch):
    repo = str(tmp_path / "repo")
    os.makedirs(os.path.join(repo, "src"))
    subprocess.run(["git", "init", "-q", repo], check=True)
    _commit(repo, "first")
    _commit(repo, "second")
    monkeypatch.setattr(check_regression, "REPO", repo)
    assert check_regression.default_parent() == "HEAD~1"
    with open(os.path.join(repo, "untracked.txt"), "w") as handle:
        handle.write("not part of any commit")
    assert check_regression.default_parent() == "HEAD~1"
    with open(os.path.join(repo, "src", "mod.py"), "w") as handle:
        handle.write("edited")
    assert check_regression.default_parent() == "HEAD"
    dest = tmp_path / "parent"
    dest.mkdir()
    check_regression.export_src("HEAD~1", str(dest))
    assert (dest / "src" / "mod.py").read_text() == "first"
    with pytest.raises(RuntimeError):
        check_regression.export_src("no-such-rev", str(dest))
