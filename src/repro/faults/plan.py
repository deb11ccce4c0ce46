"""The central, seed-driven fault schedule: :class:`FaultPlan`.

One plan is threaded through every injection site in the stack (DRAM reads,
DSA line completion, cuckoo insertion, scratchpad allocation, link
transmission, accelerator completion, fleet nodes).  Design constraints:

* **Deterministic.**  Each site draws from its own ``random.Random`` forked
  from ``(seed, site)``, so adding a new site — or reordering calls across
  sites — never perturbs another site's fault sequence.  Identical seeds ⇒
  identical fault sequences ⇒ byte-identical chaos reports.
* **Cheap when absent.**  Call sites guard with ``plan is not None``; an
  attached plan with no spec for a site costs one dict lookup.  The
  ``disabled_hook_overhead`` check of ``benchmarks/perf/check_regression.py``
  holds the disabled case under 2 % of one offload.
* **Schedulable.**  A :class:`FaultSpec` can fire probabilistically
  (Bernoulli per decision), deterministically (``skip`` N decisions, then
  fire ``max_fires`` times), or both — so chaos scenarios can guarantee
  "the 200th DSA line wedges" while background noise stays stochastic.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field


class FaultSite:
    """Well-known injection site names (free-form strings also work)."""

    #: One DSA line's ready cycle pushed out far enough to drain the
    #: ALERT_N retry budget — the wedged-DSA watchdog path.
    DSA_WEDGE = "dsa.wedge"
    #: One DSA line delayed by `extra_cycles` — a recoverable ALERT_N storm.
    DSA_ALERT_STORM = "dsa.alert_storm"
    #: Cuckoo translation-table insertion fails (table-full path).
    TT_INSERT = "tt.insert"
    #: Scratchpad allocation fails even with free pages (exhaustion path).
    SCRATCHPAD_EXHAUST = "scratchpad.exhaust"
    #: DRAM read returns a line with `bits` flipped bits (ECC may correct).
    DRAM_CORRUPT = "dram.corrupt"
    #: One *latent* cell flip lands on a resident line (RAS model): the
    #: flip stays in the array until a demand read or the patrol scrubber
    #: finds it — one flip is a CE, two on the same line escalate to UE.
    DRAM_CELL_FLIP = "dram.cell_flip"
    #: DSA kernel silent data corruption: one GHASH/match lane of a
    #: just-computed scratchpad line is flipped *before* the device CRC
    #: snapshot, so only end-to-end semantic verification can catch it.
    DSA_SDC = "dsa.sdc"
    #: Fleet-tier SDC storm draws (rate set per FaultWindow).
    FLEET_SDC = "fleet.sdc"
    #: Data segment dropped on the link.
    NET_DROP = "net.drop"
    #: Data segment corrupted on the link (checksum-discarded at RX).
    NET_CORRUPT = "net.corrupt"
    #: Data segment reordered on the link.
    NET_REORDER = "net.reorder"
    #: Lookaside accelerator loses a completion notification.
    ACCEL_COMPLETION_DROP = "accel.completion_drop"


@dataclass
class FaultSpec:
    """When and how often one site misbehaves.

    A decision fires when, after skipping the first `skip` decisions and
    while fewer than `max_fires` faults have fired, the site's RNG draws
    below `probability`.  `params` carries site-specific knobs (e.g.
    ``extra_cycles`` for an ALERT_N storm, ``bits`` for DRAM corruption).
    """

    site: str
    probability: float = 1.0
    skip: int = 0  # decisions to ignore before the spec arms
    max_fires: int = None  # None = unlimited
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.skip < 0:
            raise ValueError("skip must be >= 0")


class FaultPlan:
    """A deterministic, per-site fault schedule plus injection statistics."""

    def __init__(self, seed: int = 0, specs=()):
        self.seed = seed
        self._specs = {}
        self._rngs = {}
        self.decisions = {}  # site -> decisions taken
        self.fired = {}  # site -> faults fired
        for spec in specs:
            self.add(spec)

    # -- configuration ----------------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultPlan":
        """Register (or replace) the spec for one site; returns self."""
        self._specs[spec.site] = spec
        return self

    def spec(self, site: str):
        """The :class:`FaultSpec` for `site`, or None when unconfigured."""
        return self._specs.get(site)

    def enabled(self, site: str) -> bool:
        """Whether `site` has any spec attached at all."""
        return site in self._specs

    def rng(self, site: str) -> random.Random:
        """The site's private RNG (forked deterministically from the seed).

        Injection sites draw fault *shape* randomness (which bit to flip,
        how long to stall) from here so that every random decision in a
        chaos run flows through the plan's seed.
        """
        rng = self._rngs.get(site)
        if rng is None:
            # Stable across processes: no str-hash randomisation involved.
            rng = random.Random((self.seed << 32) ^ zlib.crc32(site.encode()))
            self._rngs[site] = rng
        return rng

    # -- the hot call -----------------------------------------------------------

    def fires(self, site: str) -> bool:
        """One injection decision at `site`: True when the fault fires.

        Every call counts as a decision (so `skip` and determinism are
        well-defined) and each fire is tallied for the report.
        """
        spec = self._specs.get(site)
        if spec is None:
            return False
        decision = self.decisions.get(site, 0)
        self.decisions[site] = decision + 1
        if decision < spec.skip:
            return False
        fired = self.fired.get(site, 0)
        if spec.max_fires is not None and fired >= spec.max_fires:
            return False
        if spec.probability < 1.0 and self.rng(site).random() >= spec.probability:
            return False
        self.fired[site] = fired + 1
        return True

    def param(self, site: str, name: str, default=None):
        """Site-specific knob from the spec's `params` (or `default`)."""
        spec = self._specs.get(site)
        if spec is None:
            return default
        return spec.params.get(name, default)

    def fire_count(self, site: str) -> int:
        """How many faults have fired at `site` so far."""
        return self.fired.get(site, 0)

    # -- reporting --------------------------------------------------------------

    def report(self) -> dict:
        """Deterministic (sorted) per-site decision/fire counts."""
        return {
            "seed": self.seed,
            "sites": {
                site: {
                    "decisions": self.decisions.get(site, 0),
                    "fired": self.fired.get(site, 0),
                }
                for site in sorted(self._specs)
            },
        }
