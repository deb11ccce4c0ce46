"""Lossy, reordering link: the programmable switch of the Fig. 2 experiment.

The paper injects packet drops with a programmable switch between two
servers; :class:`LossyLink` plays that role.  Serialisation delay respects
the link bandwidth, propagation delay is constant, drops are Bernoulli per
data segment, and reordering delays a segment by a few extra serialisation
slots so it lands behind its successors.

A :class:`~repro.faults.plan.FaultPlan` can be attached on top of the
native rates: ``net.drop`` / ``net.reorder`` decisions compose with them,
and ``net.corrupt`` models on-the-wire corruption — the receiver's checksum
discards the segment, so the observable effect is a drop, but it is
accounted separately in :attr:`LinkStats.corrupted`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.plan import FaultSite


@dataclass
class LinkStats:
    segments: int = 0
    dropped: int = 0
    reordered: int = 0
    corrupted: int = 0  # checksum-discarded at RX (observable as a drop)
    bytes_carried: int = 0


class LossyLink:
    """One direction of a point-to-point link."""

    def __init__(
        self,
        bandwidth_bytes_per_sec: float = 100e9 / 8,
        propagation_delay_s: float = 20e-6,
        drop_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_extra_delay_s: float = 150e-6,
        seed: int = 0,
    ):
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        self.bandwidth = bandwidth_bytes_per_sec
        self.propagation_delay = propagation_delay_s
        self.drop_rate = drop_rate
        self.reorder_rate = reorder_rate
        self.reorder_extra_delay = reorder_extra_delay_s
        self._rng = random.Random(seed)
        self._busy_until = 0.0
        self._fault_plan = None
        self.stats = LinkStats()

    def attach_fault_plan(self, plan) -> None:
        """Layer ``net.drop``/``net.corrupt``/``net.reorder`` injection from
        `plan` on top of the link's native Bernoulli rates."""
        self._fault_plan = plan

    def transmit(self, now: float, nbytes: int, droppable: bool = True):
        """Schedule a segment; returns its arrival time or None if dropped.

        `droppable=False` is used for ACKs so loss only affects the data
        direction (matching the switch setup, which drops in one direction).
        """
        self.stats.segments += 1
        start = max(now, self._busy_until)
        serialisation = nbytes / self.bandwidth
        self._busy_until = start + serialisation
        plan = self._fault_plan
        if droppable and plan is not None:
            if plan.fires(FaultSite.NET_DROP):
                self.stats.dropped += 1
                return None
            if plan.fires(FaultSite.NET_CORRUPT):
                # The bytes occupy the wire but fail the RX checksum: the
                # segment is discarded on arrival, i.e. an expensive drop.
                self.stats.corrupted += 1
                return None
        if droppable and self.drop_rate and self._rng.random() < self.drop_rate:
            self.stats.dropped += 1
            return None
        self.stats.bytes_carried += nbytes
        arrival = self._busy_until + self.propagation_delay
        if droppable and self.reorder_rate and self._rng.random() < self.reorder_rate:
            self.stats.reordered += 1
            arrival += self.reorder_extra_delay
        if (droppable and plan is not None and plan.fires(FaultSite.NET_REORDER)):
            self.stats.reordered += 1
            arrival += self.reorder_extra_delay
        return arrival
