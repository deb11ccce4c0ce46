"""One experiment-matrix point: the frozen, hashable :class:`RunSpec`.

A spec is the *complete* description of one run — target, instance label,
seed and grid size.  Everything a worker needs crosses the process
boundary inside the spec; nothing is ambient.
That is the determinism contract the run-pool relies on: two workers
given equal specs must produce byte-identical results, so the spec must
capture every input and the point function must derive every RNG from it.

The canonical JSON rendering (sorted keys, no whitespace variance) is
what the result cache hashes; any field change produces a new digest and
therefore a cache miss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class RunSpec:
    """target x instance x seed: one point of the matrix."""

    target: str      # registry name, e.g. "overload"
    instance: str    # point label within the target, e.g. "load/2/shed"
    seed: int
    quick: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Inverse of :meth:`to_dict` (used across the pool boundary)."""
        return cls(target=data["target"], instance=data["instance"],
                   seed=data["seed"], quick=data["quick"])

    def to_dict(self) -> dict:
        """Plain-JSON form: what crosses the pool and sits in the cache."""
        return {
            "target": self.target,
            "instance": self.instance,
            "seed": self.seed,
            "quick": self.quick,
        }

    def canonical(self) -> str:
        """The canonical JSON the cache key is derived from."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Content hash of the spec alone (no code digest mixed in)."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    @property
    def label(self) -> str:
        return "%s/%s" % (self.target, self.instance)
