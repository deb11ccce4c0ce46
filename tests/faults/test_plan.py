"""Unit tests for the deterministic, seed-driven FaultPlan schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSite, FaultSpec

pytestmark = pytest.mark.faults


def _sequence(plan, site, n):
    return [plan.fires(site) for _ in range(n)]


class TestFaultSpec:
    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("x", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec("x", probability=-0.1)

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("x", skip=-1)


class TestFires:
    def test_unconfigured_site_never_fires(self):
        plan = FaultPlan(seed=3)
        assert not any(_sequence(plan, "no.such.site", 100))
        assert plan.fire_count("no.such.site") == 0

    def test_certain_fault_always_fires(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec("s", probability=1.0),))
        assert all(_sequence(plan, "s", 10))
        assert plan.fire_count("s") == 10
        assert plan.decisions["s"] == 10

    def test_skip_arms_after_n_decisions(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec("s", skip=4),))
        assert _sequence(plan, "s", 6) == [False] * 4 + [True] * 2

    def test_max_fires_caps_total(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec("s", max_fires=3),))
        assert _sequence(plan, "s", 10) == [True] * 3 + [False] * 7
        assert plan.fire_count("s") == 3

    def test_zero_probability_never_fires_but_counts_decisions(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec("s", probability=0.0),))
        assert not any(_sequence(plan, "s", 50))
        assert plan.decisions["s"] == 50


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        spec = FaultSpec("dram.corrupt", probability=0.3)
        a = FaultPlan(seed=11, specs=(spec,))
        b = FaultPlan(seed=11, specs=(spec,))
        assert _sequence(a, "dram.corrupt", 200) == _sequence(b, "dram.corrupt", 200)

    def test_different_seeds_diverge(self):
        spec = FaultSpec("dram.corrupt", probability=0.3)
        a = FaultPlan(seed=11, specs=(spec,))
        b = FaultPlan(seed=12, specs=(spec,))
        assert _sequence(a, "dram.corrupt", 200) != _sequence(b, "dram.corrupt", 200)

    def test_sites_draw_from_independent_streams(self):
        """Interleaving decisions at one site never perturbs another's."""
        specs = (FaultSpec("a", probability=0.5), FaultSpec("b", probability=0.5))
        solo = FaultPlan(seed=5, specs=specs)
        expected = _sequence(solo, "b", 100)
        mixed = FaultPlan(seed=5, specs=specs)
        observed = []
        for _ in range(100):
            mixed.fires("a")
            observed.append(mixed.fires("b"))
            mixed.fires("a")
        assert observed == expected

    def test_site_rng_is_seed_stable(self):
        assert (FaultPlan(seed=9).rng("x").random()
                == FaultPlan(seed=9).rng("x").random())

    def test_enabling_one_site_never_shifts_anothers_stream(self):
        """A plan that grows a new site reproduces the old sites exactly.

        This is the contract every new fault personality (cell flips, SDC)
        relies on: arming injection at site "a" — both its fire decisions
        and its payload draws via ``rng("a")`` — must leave site "b"'s
        decision stream byte-for-byte identical to a plan that never
        mentioned "a" at all.
        """
        base = FaultPlan(seed=7, specs=(FaultSpec("b", probability=0.5),))
        expected = _sequence(base, "b", 200)
        grown = FaultPlan(seed=7, specs=(
            FaultSpec("a", probability=1.0),
            FaultSpec("b", probability=0.5),
        ))
        observed = []
        for _ in range(200):
            if grown.fires("a"):
                grown.rng("a").random()  # payload draw, e.g. a bit index
            observed.append(grown.fires("b"))
        assert observed == expected
        assert grown.fire_count("a") == 200


_SITE_NAMES = ("a", "b", FaultSite.DRAM_CORRUPT, FaultSite.DSA_WEDGE,
               FaultSite.DSA_SDC)

_specs = st.builds(
    lambda probability, skip, max_fires: (probability, skip, max_fires),
    st.sampled_from((0.0, 0.25, 0.5, 0.9, 1.0)),
    st.integers(0, 5),
    st.none() | st.integers(0, 6),
)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 1 << 20),
       sites=st.dictionaries(st.sampled_from(_SITE_NAMES), _specs,
                             min_size=1, max_size=len(_SITE_NAMES)),
       calls=st.lists(st.tuples(st.integers(0, len(_SITE_NAMES) - 1),
                                st.sampled_from(("fires", "rng"))),
                      max_size=80))
def test_each_site_matches_a_plan_holding_it_alone(seed, sites, calls):
    """Stream independence over generated site sets: whatever the other
    sites draw in between, every site's fire decisions and ``rng`` draws,
    and its report row, equal those of a plan that holds only that site's
    spec and is called in isolation."""
    specs = {
        name: FaultSpec(name, probability=p, skip=skip, max_fires=cap)
        for name, (p, skip, cap) in sites.items()
    }
    names = sorted(specs)

    def call(plan, name, kind):
        return plan.fires(name) if kind == "fires" else plan.rng(name).random()

    mixed = FaultPlan(seed=seed, specs=specs.values())
    observed = {name: [] for name in names}
    kinds = {name: [] for name in names}
    for index, kind in calls:
        name = names[index % len(names)]
        observed[name].append(call(mixed, name, kind))
        kinds[name].append(kind)
    for name in names:
        solo = FaultPlan(seed=seed, specs=(specs[name],))
        assert observed[name] == [call(solo, name, kind) for kind in kinds[name]]
        assert mixed.report()["sites"][name] == solo.report()["sites"][name]


class TestParamsAndReport:
    def test_param_falls_back_to_default(self):
        plan = FaultPlan(specs=(FaultSpec("s", params={"bits": 2}),))
        assert plan.param("s", "bits", 1) == 2
        assert plan.param("s", "missing", 7) == 7
        assert plan.param("unconfigured", "bits", 1) == 1

    def test_report_counts_decisions_and_fires(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec("s", max_fires=2),))
        _sequence(plan, "s", 5)
        report = plan.report()
        assert report["seed"] == 1
        assert report["sites"]["s"] == {"decisions": 5, "fired": 2}

    def test_well_known_sites_are_strings(self):
        for name in ("DSA_WEDGE", "DRAM_CORRUPT", "NET_DROP",
                     "ACCEL_COMPLETION_DROP", "DRAM_CELL_FLIP", "DSA_SDC",
                     "FLEET_SDC"):
            assert isinstance(getattr(FaultSite, name), str)
