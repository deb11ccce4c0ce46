"""``python -m repro matrix --check/--update``: the one baseline path.

Baselines resolve against the checkout root whatever the working
directory, ``--update`` writes exactly the bytes ``--check`` compares
against, a mismatch prints the headline metrics as baseline -> fresh,
and reports are written with the mode a plain ``open()`` would give.
Select with ``-m exp``.
"""

import json
import os
import stat

import pytest

from repro.__main__ import main, write_json_report
from repro.exp import get_target, targets

pytestmark = pytest.mark.exp


def test_check_works_from_any_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["matrix", "--only", "replication", "--check",
                 "--no-cache"]) == 0


def test_update_writes_what_check_reads(tmp_path, monkeypatch, capsys):
    with open(get_target("replication").baseline_path()) as handle:
        committed = handle.read()
    monkeypatch.setattr(targets, "REPO_ROOT", str(tmp_path))
    argv = ["matrix", "--only", "replication",
            "--cache-dir", str(tmp_path / "cache")]
    written = tmp_path / "BENCH_replication.json"

    assert main(argv + ["--update"]) == 0
    assert written.read_text() == committed

    tampered = json.loads(committed)
    tampered["summary"]["total_violations"] = 3
    written.write_text(json.dumps(tampered))
    capsys.readouterr()
    assert main(argv + ["--check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL: fresh replication run differs" in out
    assert "  total_violations: 3 -> 0" in out

    written.unlink()
    with pytest.raises(SystemExit, match="--only replication --update"):
        main(argv + ["--check"])


@pytest.mark.parametrize("flag", ["--check", "--update"])
@pytest.mark.parametrize("extra", [["--quick"], ["--seed", "3"]])
def test_baseline_modes_refuse_non_baseline_runs(flag, extra):
    with pytest.raises(SystemExit, match="error: " + flag):
        main(["matrix", "--only", "replication", flag] + extra)


def test_reports_get_the_umask_mode(tmp_path):
    path = tmp_path / "report.json"
    old = os.umask(0o022)
    try:
        write_json_report(str(path), "{}\n", "test")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
