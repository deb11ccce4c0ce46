"""The target registry: point tables, headlines and gates.

Every gate threshold lives in one Target's ``gates`` rows; these tests
run those rows over the committed baselines (no simulation), check that
each row fails on its own when its value crosses the bound or goes
missing, check every target's point table against its cache digest,
and keep the sweep modules out of ``import repro.exp``.  Select with
``-m exp``.
"""

import glob
import inspect
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.exp import RunSpec, get_target, target_names
from repro.exp.cache import _dep_files
from repro.exp.targets import REPO_ROOT, lookup

pytestmark = pytest.mark.exp

BASELINED = [name for name in target_names() if get_target(name).baseline]

SWEEP_MODULES = ("repro.overload.sweep", "repro.qos.sweep",
                 "repro.ras.sweep", "repro.replication.sweep")


def _baseline(name):
    with open(get_target(name).baseline_path()) as handle:
        return json.load(handle)


def _past(op, limit):
    """A value on the failing side of ``op limit``."""
    if isinstance(limit, bool):
        return not limit
    return {"<": limit, "<=": limit + 1, ">": limit, ">=": limit - 1,
            "==": limit + 1}[op]


def _set(payload, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        payload = payload[key]
    payload[leaf] = value


def _rows():
    for name in BASELINED:
        for row in get_target(name).gates:
            yield pytest.param(name, row, id="%s:%s" % (name, row[0]))


def test_every_baselined_sweep_target_is_covered():
    assert BASELINED == ["cluster", "datapath", "faults", "overload", "qos",
                         "ras", "replication"]


def test_root_baselines_and_targets_map_one_to_one():
    on_disk = sorted(os.path.basename(path)
                     for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))
    assert on_disk == sorted(get_target(name).baseline for name in target_names())


@pytest.mark.parametrize("name", BASELINED)
def test_committed_baseline_passes_every_row(name):
    target = get_target(name)
    payload = _baseline(name)
    assert target.gate(payload) == []
    assert None not in target.headline(payload).values()


@pytest.mark.parametrize("name,row", list(_rows()))
def test_one_value_past_its_bound_fails_exactly_its_row(name, row):
    path, op, bound, _ = row
    target = get_target(name)
    for value in ("past", None):
        payload = _baseline(name)
        if value == "past":
            limit = lookup(payload, bound) if isinstance(bound, str) else bound
            value = _past(op, limit)
        _set(payload, path, value)
        failures = target.gate(payload)
        assert len(failures) == 1, failures
        assert failures[0].startswith("%s: %s is " % (name, path))


def test_lookup_walks_dotted_paths():
    payload = {"a": {"b": {"c": 3}}, "x": 1}
    assert lookup(payload, "a.b.c") == 3
    assert lookup(payload, "a.missing") is None
    assert lookup(payload, "x.y") is None


@pytest.mark.parametrize("name", target_names())
def test_code_digest_covers_the_point_module(name):
    """Each of the target's point tables, quick and full: the module of
    every function it names is hashed into the cache digest, a rebuild
    gives an equal table, and an unlisted label raises."""
    target = get_target(name)
    seed = target.default_seed
    # Cached points are keyed by the target's code_deps only, so an edit
    # to the module of any function a table names must change the digest.
    hashed = {os.path.realpath(path) for prefix in target.code_deps
              for path in _dep_files(prefix)}
    for quick in (True, False):
        table = target.points(seed, quick)
        for label, (function, kwargs) in table.items():
            source = os.path.realpath(inspect.getsourcefile(function))
            assert source in hashed, (quick, label, function.__module__)
            assert isinstance(kwargs, dict), (quick, label)
        # run_point rebuilds the table in the worker process, so it must
        # match the one the specs were listed from.
        assert target.points(seed, quick) == table, quick
        with pytest.raises(ValueError, match="%s.*'no/such/point'" % name):
            target.run_point(RunSpec(name, "no/such/point", seed,
                                     quick=quick))


def test_import_leaves_sweep_modules_unloaded():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys, repro.exp\n"
            "print(' '.join(m for m in %r if m in sys.modules))"
            % (SWEEP_MODULES,))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == ""
