"""Pricing one replication hop: compress, then encrypt, then transmit.

Every replication message — an ABD propagate, a chain forward, a read
response — crosses the network once, and on the way out of its server it
runs the paper's two upper-layer protocols back to back: DEFLATE on the
value payload, then AES-GCM on the compressed stream (the TLS record that
actually hits the wire).  :class:`ReplicationHopProfile` prices that
composite stage with the *existing* analytic machinery — two
:class:`~repro.cluster.fleet.ServiceProfile` instances, one per ULP, both
at the same placement and the same contention point — and exposes the
same duck-typed surface the :class:`~repro.cluster.fleet.Fleet` stations
consume (``route``/``can_spill``/``placement``/``model_metrics``), so a
replica server serves hops exactly the way it serves RPC requests.

Composition rules:

* **cpu / membus / dsa** seconds add — the two transforms run serially on
  the same worker (or the same channel DSA);
* the **encrypt** stage is priced at the *compressed* size (DEFLATE's
  measured output for the hop's corpus kind), because that is the payload
  AES-GCM actually touches;
* only the encrypted record pays **link** time, and the hop's
  ``output_bytes`` are the TLS record bytes.

``placement`` selects where both transforms execute: ``smartdimm`` (the
channel DSA), ``cpu`` (onload), or ``quickassist`` (lookaside, with the
synchronous-API blocking the worker — Observation 2's pathology, now on
every replication hop).  SmartNIC is rejected: Observation 1 — NICs
cannot autonomously run the non-size-preserving DEFLATE half of the hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.costs import DEFAULT_COSTS, CostModel
from repro.sim.server import Placement, Ulp

from repro.cluster.fleet import RouteCosts, ServiceProfile


@dataclass(frozen=True)
class HopModelMetrics:
    """Analytic fixed-point summary for the composite hop (duck-typed to
    the fields ``run_scenario``/``ClusterReport`` read from
    ``ServerMetrics``)."""

    rps: float
    bottleneck: str
    miss_probability: float


class _HopUlp:
    """Trace-label shim: the composite stage's name where the fleet
    expects an enum with a ``.value``."""

    value = "replicate"


class ReplicationHopProfile:
    """Maps (hop payload size, corpus kind, route) -> composite RouteCosts.

    Drop-in for :class:`~repro.cluster.fleet.ServiceProfile` wherever the
    fleet consults its profile; internally composes a DEFLATE profile and
    a TLS profile calibrated at the hop's mean value size (and the mean
    *compressed* size respectively), both solved to their own fixed-point
    miss probabilities.
    """

    def __init__(self, placement, mean_value_bytes: float,
                 threads: int = 10, connections: int = 512,
                 channels_per_server: int = 6,
                 costs: CostModel = DEFAULT_COSTS,
                 dsa_bytes_per_sec: float = None):
        placement = Placement(placement)
        if placement is Placement.SMARTNIC:
            raise ValueError(
                "SmartNICs cannot run the DEFLATE half of a replication hop "
                "(Observation 1); choose smartdimm, cpu, or quickassist")
        self.placement = placement
        self.ulp = _HopUlp()
        self.threads = threads
        self.connections = connections
        self.channels_per_server = channels_per_server
        self.costs = costs
        self.compress = ServiceProfile(
            Ulp.DEFLATE, placement, mean_value_bytes,
            threads=threads, connections=connections,
            channels_per_server=channels_per_server, costs=costs,
            dsa_bytes_per_sec=dsa_bytes_per_sec)
        mean_compressed = max(
            1, self.compress.route(int(round(mean_value_bytes))).output_bytes)
        self.encrypt = ServiceProfile(
            Ulp.TLS, placement, mean_compressed,
            threads=threads, connections=connections,
            channels_per_server=channels_per_server, costs=costs,
            dsa_bytes_per_sec=dsa_bytes_per_sec)
        self.dsa_bytes_per_sec = self.compress.dsa_bytes_per_sec
        self.membw_bytes_per_sec = self.compress.membw_bytes_per_sec
        # The fleet's QoS auto-quantum prices routes at this size.
        self.mean_message_bytes = self.compress.mean_message_bytes
        # Serial composition: a hop is one compress pass then one encrypt
        # pass, so the composite rate is the harmonic combination and the
        # bottleneck is the slower stage's.
        slow = min((self.compress, self.encrypt),
                   key=lambda p: p.model_metrics.rps)
        composite_rps = 1.0 / (1.0 / self.compress.model_metrics.rps
                               + 1.0 / self.encrypt.model_metrics.rps)
        stage = "deflate" if slow is self.compress else "tls"
        self.model_metrics = HopModelMetrics(
            rps=composite_rps,
            bottleneck="%s:%s" % (stage, slow.model_metrics.bottleneck),
            miss_probability=slow.model_metrics.miss_probability)
        self.p_miss = self.model_metrics.miss_probability
        self._routes = {}

    def route(self, size: int, kind=None, spill: bool = False) -> RouteCosts:
        """Composite station costs for a `size`-byte hop payload."""
        key = (size, kind, spill)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        comp = self.compress.route(size, kind, spill=spill)
        enc = self.encrypt.route(max(1, comp.output_bytes), kind, spill=spill)
        costs = RouteCosts(
            cpu_seconds=comp.cpu_seconds + enc.cpu_seconds,
            mem_seconds=comp.mem_seconds + enc.mem_seconds,
            dsa_seconds=comp.dsa_seconds + enc.dsa_seconds,
            link_seconds=enc.link_seconds,
            output_bytes=enc.output_bytes,
            ddr_bytes=comp.ddr_bytes + enc.ddr_bytes,
        )
        self._routes[key] = costs
        return costs

    @property
    def can_spill(self) -> bool:
        """Whether a CPU-onload alternative exists for hop transforms."""
        return self.placement is not Placement.CPU
