"""Cache correctness for the experiment matrix.

The content-addressed result cache must hit on an identical spec, miss
on *any* field change (including the code digest), survive corruption
with a one-line eviction instead of a crash, and never leave torn
entries on disk.  Select with ``-m exp``.
"""

import json
import os

import pytest

from repro.exp.cache import ResultCache, code_digest
from repro.exp.spec import RunSpec

pytestmark = pytest.mark.exp

DIGEST = "0" * 64
RESULT = {"rps": 123.0, "bottleneck": "dsa"}


@pytest.fixture
def spec():
    return RunSpec("datapath", "crossover/tls/cpu/16384", 1)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "exp-cache"))


class TestHitAndMiss:
    def test_hit_on_identical_spec(self, cache, spec):
        cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        entry = cache.get(spec, DIGEST)
        assert entry["result"] == RESULT
        assert entry["spec"] == spec.to_dict()
        assert entry["elapsed_s"] == 0.5
        assert cache.stats() == {"hits": 1, "misses": 0, "stores": 1,
                                 "evictions": 0}

    def test_cold_cache_misses(self, cache, spec):
        assert cache.get(spec, DIGEST) is None
        assert cache.stats()["misses"] == 1

    @pytest.mark.parametrize("change", [
        dict(target="cluster"),
        dict(instance="crossover/tls/cpu/4096"),
        dict(seed=2),
        dict(quick=True),
    ])
    def test_any_spec_field_change_misses(self, cache, spec, change):
        cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        fields = dict(target=spec.target, instance=spec.instance,
                      seed=spec.seed, quick=spec.quick)
        fields.update(change)
        assert cache.get(RunSpec(**fields), DIGEST) is None

    def test_code_digest_change_misses(self, cache, spec):
        cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        assert cache.get(spec, "f" * 64) is None
        # ... and the original entry is untouched.
        assert cache.get(spec, DIGEST)["result"] == RESULT


class TestCorruption:
    def test_corrupt_json_is_evicted_with_a_warning(self, cache, spec,
                                                    capsys):
        path = cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert cache.get(spec, DIGEST) is None
        assert not os.path.exists(path)
        err = capsys.readouterr().err
        assert "exp-cache: evicted" in err
        assert len(err.strip().splitlines()) == 1
        assert cache.stats()["evictions"] == 1

    def test_missing_fields_are_evicted(self, cache, spec, capsys):
        path = cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        with open(path, "w") as handle:
            json.dump({"spec": spec.to_dict()}, handle)
        assert cache.get(spec, DIGEST) is None
        assert not os.path.exists(path)
        assert "exp-cache: evicted" in capsys.readouterr().err

    def test_spec_mismatch_is_evicted(self, cache, spec, capsys):
        """An entry whose stored spec disagrees with the key is untrusted."""
        path = cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        entry = json.load(open(path))
        entry["spec"]["seed"] = 99
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(spec, DIGEST) is None
        assert "exp-cache: evicted" in capsys.readouterr().err

    def test_eviction_then_refill_recovers(self, cache, spec):
        path = cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        with open(path, "w") as handle:
            handle.write("garbage")
        assert cache.get(spec, DIGEST) is None
        cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        assert cache.get(spec, DIGEST)["result"] == RESULT


class TestAtomicity:
    def test_no_tmp_files_left_behind(self, cache, spec):
        cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        target_dir = os.path.dirname(cache.path(spec, DIGEST))
        leftovers = [name for name in os.listdir(target_dir)
                     if name.startswith(".tmp-")]
        assert leftovers == []

    def test_entry_is_valid_json_on_disk(self, cache, spec):
        path = cache.put(spec, DIGEST, RESULT, elapsed_s=0.5)
        entry = json.load(open(path))
        assert entry["code_digest"] == DIGEST


class TestCodeDigest:
    def test_stable_across_calls(self):
        deps = ("repro.overload", "repro.exp.spec")
        assert code_digest(deps) == code_digest(deps)

    def test_prefix_order_is_irrelevant(self):
        assert (code_digest(("repro.overload", "repro.qos"))
                == code_digest(("repro.qos", "repro.overload")))

    def test_different_deps_differ(self):
        assert (code_digest(("repro.overload",))
                != code_digest(("repro.qos",)))

    def test_unknown_prefix_raises(self):
        with pytest.raises(ValueError):
            code_digest(("repro.no_such_module",))
        with pytest.raises(ValueError):
            code_digest(("os.path",))
