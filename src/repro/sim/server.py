"""Macro server model: Nginx under a closed-loop load generator.

An analytic, fixed-point model of the paper's testbed (Sec. VI): an Nginx
server with `threads` worker cores serving `message_bytes` responses to
`connections` persistent wrk connections over 100 GbE, with the ULP executed
at one of four placements.

Per request, every placement contributes a resource vector:

* **CPU cycles** — protocol stack + ULP compute + offload management +
  memory-stall cycles derived from the request's cache-missing traffic;
* **DDR bytes** — data moved over the memory channels.  The baseline is the
  paper's non-zero-copy stack (Sec. IV-E), so a CPU-resident ULP drags the
  payload through the cache many times: storage DMA leak, ULP read, result
  write(+RFO), socket copy, and the final NIC DMA — the "ping-pong" of
  Fig. 1a.  SmartDIMM collapses those to the CompCpy read, the self-recycle
  write, and the NIC DMA (Fig. 1c);
* **cache pressure** — LLC bytes the request's in-flight data occupies,
  weighted by how long it sits there (slow ULPs hold buffers longer and
  thrash harder);
* **PCIe / accelerator occupancy** — for lookaside offload, including the
  synchronous-API blocking latency that makes QuickAssist unattractive for
  fine-grain offloads (Observation 2).

Cache contention closes the loop: total pressure (connections, in-flight
buffers, background tenants, co-runners) sets the LLC miss probability,
which feeds back into DDR traffic and stall cycles.  The model iterates to
a fixed point, then reports RPS = min(cpu, link, memory, accelerator) and
the utilisations at that operating point.

The evaluation scenarios deliberately model *high LLC contention* — the
paper states its experiments "consider scenarios with high LLC contention
... otherwise, it is optimal to run ULPs on the CPU" (Sec. VI) — via the
`background_pressure_bytes` term (co-located tenants plus DDIO-restricted
effective capacity).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.cpu.costs import CostModel, DEFAULT_COSTS


class Ulp(enum.Enum):
    """The upper-layer protocol the server applies to responses."""

    NONE = "none"  # plain HTTP
    TLS = "tls"
    DEFLATE = "deflate"


class Placement(enum.Enum):
    """Where the ULP executes."""

    CPU = "cpu"
    SMARTNIC = "smartnic"
    QUICKASSIST = "quickassist"
    SMARTDIMM = "smartdimm"
    #: the Sec. IV-E projection: new DDR commands (CMP_RDCAS/SPAD_WB) and a
    #: controller-side offload table — no CPU copy, no cache traffic, no
    #: host-bus bursts for the transform.  A design study, not the paper's
    #: evaluated prototype.
    SMARTDIMM_DIRECT = "smartdimm_direct"


@dataclass
class WorkloadSpec:
    """One Nginx deployment under closed-loop load."""

    ulp: Ulp
    placement: Placement
    message_bytes: int = 4096
    connections: int = 1024
    threads: int = 10
    compression_ratio_cpu: float = 0.32  # zlib -6 on web corpora
    compression_ratio_dsa: float = 0.42  # fixed-Huffman, banked matcher
    background_pressure_bytes: float = 14e6  # co-located tenants (Sec. VI)

    def __post_init__(self):
        if self.ulp is Ulp.DEFLATE and self.placement is Placement.SMARTNIC:
            raise ValueError(
                "SmartNICs cannot autonomously offload non-size-preserving "
                "ULPs such as compression (Observation 1)"
            )


@dataclass
class RequestCosts:
    """Per-request resource vector at a given miss probability."""

    cpu_cycles: float
    ddr_bytes: float
    pressure_bytes: float  # LLC bytes held, residency-weighted
    output_bytes: int
    pcie_bytes: float = 0.0
    accel_block_seconds: float = 0.0  # sync offload API blocks the worker
    accel_bytes: float = 0.0  # payload through the lookaside card
    # How violently this placement churns the stack's metadata lines: a
    # cache-resident ULP evicts them dirty (refill + writeback), while the
    # SmartDIMM path leaves them mostly undisturbed.
    stack_amp: float = 1.5


@dataclass
class ServerMetrics:
    """The three bars of Figs. 11/12 plus supporting detail."""

    rps: float
    cpu_utilisation: float
    membw_bytes_per_request: float
    membw_bytes_per_sec: float
    miss_probability: float
    bottleneck: str
    cycles_per_request: float
    output_bytes: int
    pressure_bytes_per_request: float = 0.0
    pcie_bytes_per_request: float = 0.0


def _dma_factor(p: float) -> float:
    """Fraction of a DMA/DDIO traversal that reaches DRAM: DDIO serves it
    from the LLC when resident, but contention evicts it first."""
    return 0.35 + 0.65 * p


class ServerModel:
    """Fixed-point closed-loop server model."""

    ITERATIONS = 30

    def __init__(
        self,
        spec: WorkloadSpec,
        costs: CostModel = DEFAULT_COSTS,
        llc_bytes: float = 27.5e6,  # Xeon Gold 6242: L3 + L2 slices
        external_pressure_bytes: float = 0.0,
        membw_available: float = None,
        llc_share: float = 1.0,
        miss_curve_k: float = 1.35,
    ):
        self.spec = spec
        self.costs = costs
        self.llc_bytes = llc_bytes * llc_share
        self.external_pressure = external_pressure_bytes
        self.membw_available = membw_available or costs.ddr_peak_bytes_per_sec
        self.miss_curve_k = miss_curve_k

    # -- contention ---------------------------------------------------------------------

    def miss_probability(self, pressure_bytes: float) -> float:
        """Saturating-exponential miss curve in working-set / capacity."""
        ratio = pressure_bytes / self.llc_bytes
        return 1.0 - math.exp(-self.miss_curve_k * ratio)

    # -- per-placement request costs ---------------------------------------------------------

    def request_costs(self, p_miss: float) -> RequestCosts:
        """Per-request resource vector at miss probability `p_miss`."""
        builder = {
            (Ulp.NONE, Placement.CPU): self._http_costs,
            (Ulp.TLS, Placement.CPU): self._tls_cpu_costs,
            (Ulp.TLS, Placement.SMARTNIC): self._tls_smartnic_costs,
            (Ulp.TLS, Placement.QUICKASSIST): self._tls_qat_costs,
            (Ulp.TLS, Placement.SMARTDIMM): self._tls_smartdimm_costs,
            (Ulp.TLS, Placement.SMARTDIMM_DIRECT): self._tls_smartdimm_direct_costs,
            (Ulp.DEFLATE, Placement.CPU): self._deflate_cpu_costs,
            (Ulp.DEFLATE, Placement.QUICKASSIST): self._deflate_qat_costs,
            (Ulp.DEFLATE, Placement.SMARTDIMM): self._deflate_smartdimm_costs,
        }.get((self.spec.ulp, self.spec.placement))
        if builder is None:
            raise ValueError(
                "unsupported combination %s on %s" % (self.spec.ulp, self.spec.placement)
            )
        costs = builder(p_miss)
        # Common per-request work: accept/parse/log plus the TCP transmit
        # path, and the stack-metadata churn whose misses everyone pays.
        stack_bytes = self.costs.stack_touch_bytes_per_request * costs.stack_amp
        costs.ddr_bytes += stack_bytes * p_miss * 1.5
        costs.cpu_cycles += (
            self.costs.http_parse_cycles
            + 2 * self.costs.syscall_cycles
            + self.costs.tcp_tx_cycles(costs.output_bytes)
            + self._stall_cycles(stack_bytes * p_miss)
        )
        return costs

    def _stall_cycles(self, missing_bytes: float) -> float:
        seconds = missing_bytes / self.costs.per_core_miss_bandwidth
        return seconds * self.costs.core_ghz * 1e9

    # .. plain HTTP ..............................................................

    def _http_costs(self, p: float) -> RequestCosts:
        m = self.spec.message_bytes
        # sendfile: storage DMA leak + NIC DMA, both DDIO-moderated.
        ddr = m * p + m * _dma_factor(p)
        return RequestCosts(
            cpu_cycles=0.0,
            ddr_bytes=ddr,
            pressure_bytes=0.6 * m,
            output_bytes=m,
            stack_amp=1.0,
        )

    # .. TLS ........................................................................

    def _tls_cpu_costs(self, p: float) -> RequestCosts:
        m = self.spec.message_bytes
        crypto = self.costs.aes_gcm_cycles(m) + self.costs.tls_record_framing_cycles * max(
            1, m // 16384
        )
        # Non-zero-copy ping-pong (Fig. 1a).  Long-usage-distance stages
        # (storage DMA leak -> plaintext read) miss with probability p;
        # short-distance stages (ciphertext writeback/refill, skb copy)
        # only round-trip DRAM under heavier contention, modelled as p^2.
        ddr = 2 * m * p + 3 * m * p * p + m * _dma_factor(p)
        stalls = self._stall_cycles(m * (2 * p + p * p))
        copy = self.costs.memcpy_cycles(m, cold=p > 0.5)  # socket copy
        # Plaintext + ciphertext + skb live in the LLC from encrypt to ACK,
        # held longer because the worker serialises crypto with the stack.
        return RequestCosts(
            cpu_cycles=crypto + copy + stalls,
            ddr_bytes=ddr,
            pressure_bytes=4.5 * m,
            output_bytes=m,
            stack_amp=2.0,
        )

    def _tls_smartnic_costs(self, p: float) -> RequestCosts:
        m = self.spec.message_bytes
        segments = max(1, (m + self.costs.mss_bytes - 1) // self.costs.mss_bytes)
        records = max(1, (m + 16383) // 16384)
        # Offload initialisation is per TLS record (metadata push to the
        # NIC), with light per-segment tracking: the init cost is why 4KB
        # messages see no benefit (Fig. 11) while 16KB+ messages do.
        driver = 6500 * records + 300 * segments
        # Plaintext traverses the stack (leak + read + socket copy + DMA)
        # but no ciphertext generation on the CPU.
        ddr = m * p + m * p + 2 * m * p + m * _dma_factor(p)
        stalls = self._stall_cycles(2 * m * p)
        copy = self.costs.memcpy_cycles(m, cold=p > 0.5)
        return RequestCosts(
            cpu_cycles=driver + copy + stalls,
            ddr_bytes=ddr,
            pressure_bytes=3.0 * m,
            output_bytes=m,
            stack_amp=1.5,
        )

    def _tls_qat_costs(self, p: float) -> RequestCosts:
        m = self.spec.message_bytes
        overhead = self.costs.qat_setup_cycles + self.costs.qat_completion_cycles
        copy = 2 * self.costs.memcpy_cycles(m, cold=p > 0.5)  # into/out of DMA buffers
        # Staging copies + card DMA both ways + socket copy + NIC DMA.
        ddr = m * p + 2 * m + 4 * m * p + m * _dma_factor(p)
        stalls = self._stall_cycles(3 * m * p)
        return RequestCosts(
            cpu_cycles=overhead + copy + stalls,
            ddr_bytes=ddr,
            pressure_bytes=5.0 * m,
            output_bytes=m,
            stack_amp=2.2,
            pcie_bytes=2 * m,
            accel_block_seconds=self.costs.qat_offload_latency_s
            + m / self.costs.qat_crypto_bytes_per_sec,
            accel_bytes=m,
        )

    def _tls_smartdimm_costs(self, p: float) -> RequestCosts:
        m = self.spec.message_bytes
        pages = max(1, (m + 16 + 4095) // 4096)
        lines = pages * 64
        # Under contention the sbuf has already been evicted, so its flush
        # is cheap (the paper's 50%-faster measurement); on a calm cache the
        # flush pays the full dirty-writeback price per line — one reason
        # offload only makes sense when the LLC is contended (Sec. VI).
        sbuf_flush = lines * (
            p * self.costs.compcpy_flush_clean_cycles
            + (1 - p) * 2.5 * self.costs.compcpy_flush_dirty_cycles
        )
        cycles = (
            self.costs.gcm_init_cycles  # H, EIV on the CPU (Fig. 7)
            + self.costs.compcpy_copy_cycles_per_byte * pages * 4096
            + sbuf_flush
            + lines * self.costs.compcpy_flush_dirty_cycles  # dbuf flush at USE
            + (pages + 1) * self.costs.mmio_write_cycles
            + self.costs.compcpy_lock_cycles
        )
        # Fig. 1c: storage DMA leak + sbuf flush writebacks (only when the
        # data was still cached) + sbuf rdCAS stream + self-recycle writes +
        # NIC DMA from DRAM; the payload never re-enters the cache.
        ddr = m * p + m * (1 - p) + m + m + m
        stalls = self._stall_cycles(0.3 * m)  # streamed loads overlap the DSA
        return RequestCosts(
            cpu_cycles=cycles + stalls,
            ddr_bytes=ddr,
            pressure_bytes=0.3 * m,  # copied through and flushed immediately
            output_bytes=m,
            stack_amp=0.8,
        )

    def _tls_smartdimm_direct_costs(self, p: float) -> RequestCosts:
        """The Sec. IV-E direct-offload projection: the CPU issues compute
        reads and lets the controller's timer table retire results; the
        payload never crosses the host bus or the cache for the transform."""
        m = self.spec.message_bytes
        pages = max(1, (m + 16 + 4095) // 4096)
        lines = pages * 64
        cycles = (
            self.costs.gcm_init_cycles
            + lines * 2  # one command-slot issue per CMP_RDCAS
            + (pages + 1) * self.costs.mmio_write_cycles
            + self.costs.compcpy_lock_cycles
        )
        # Channel traffic: only the NIC's consumption DMA; the DSA's DRAM
        # accesses are internal to the DIMM (they consume device bandwidth
        # but no host-bus bytes, which is what this metric counts).
        ddr = m * p + m
        return RequestCosts(
            cpu_cycles=cycles,
            ddr_bytes=ddr,
            pressure_bytes=0.05 * m,
            output_bytes=m,
            stack_amp=0.7,
        )

    # .. deflate ...........................................................................

    def _deflate_cpu_costs(self, p: float) -> RequestCosts:
        m = self.spec.message_bytes
        out = max(1, int(m * self.spec.compression_ratio_cpu))
        compress = self.costs.deflate_cycles(m) + 15000  # + stream setup/teardown
        # Window + hash chains walked per input byte, cold per request at
        # high connection counts, plus the output's copies to the socket.
        state = self.costs.deflate_state_bytes
        ddr = m * p + m * p + state * p * 1.2 + 2 * out * p + 2 * out * p + out * _dma_factor(p)
        stalls = self._stall_cycles((m + 0.35 * state) * p)
        return RequestCosts(
            cpu_cycles=compress + stalls,
            ddr_bytes=ddr,
            pressure_bytes=1.5 * m + 0.6 * state,
            output_bytes=out,
            stack_amp=2.2,
        )

    def _deflate_qat_costs(self, p: float) -> RequestCosts:
        m = self.spec.message_bytes
        out = max(1, int(m * self.spec.compression_ratio_cpu))
        overhead = self.costs.qat_setup_cycles + self.costs.qat_completion_cycles
        copy = 2 * self.costs.memcpy_cycles(m, cold=p > 0.5)
        ddr = m * p + (m + out) + 4 * m * p + out * _dma_factor(p)
        stalls = self._stall_cycles(2 * m * p)
        return RequestCosts(
            cpu_cycles=overhead + copy + stalls,
            ddr_bytes=ddr,
            pressure_bytes=4.0 * m,
            output_bytes=out,
            stack_amp=2.2,
            pcie_bytes=m + out,
            # Compression on the 8970 is a longer round trip than crypto,
            # and the nginx integration is synchronous: the worker blocks
            # for the full request serialisation + card round trip.  The
            # effective sync-mode service rate is the constant that makes
            # QuickAssist "unsuitable for fine-grain offloading" (Fig. 12).
            accel_block_seconds=self.costs.qat_offload_latency_s
            + m / self.costs.qat_sync_deflate_bytes_per_sec,
            accel_bytes=m,
        )

    def _deflate_smartdimm_costs(self, p: float) -> RequestCosts:
        m = self.spec.message_bytes
        out = max(1, int(m * self.spec.compression_ratio_dsa))
        pages = max(1, (m + 4095) // 4096)
        lines = pages * 64
        sbuf_flush = lines * (
            p * self.costs.compcpy_flush_clean_cycles
            + (1 - p) * 2.5 * self.costs.compcpy_flush_dirty_cycles
        )
        cycles = (
            self.costs.compcpy_copy_cycles_per_byte * pages * 4096
            + sbuf_flush
            + lines * self.costs.compcpy_flush_dirty_cycles
            + lines * 400  # ordered copy: full membar + drain per 64B segment
            + (2 * pages) * self.costs.mmio_write_cycles  # one CompCpy per page
            + pages * (self.costs.compcpy_lock_cycles + 4500)  # per-page call + socket write
        )
        ddr = m * p + m * (1 - p) + m + out + out * _dma_factor(p)
        stalls = self._stall_cycles(0.3 * m)
        return RequestCosts(
            cpu_cycles=cycles + stalls,
            ddr_bytes=ddr,
            pressure_bytes=0.3 * m,
            output_bytes=out,
            stack_amp=0.8,
        )

    # -- fixed point ----------------------------------------------------------------------------

    def solve(self) -> ServerMetrics:
        """Iterate the contention fixed point and report the operating point."""
        spec = self.spec
        p = 0.5
        costs = self.request_costs(p)
        rps = 1.0
        bounds = {}
        for _ in range(self.ITERATIONS):
            # Half the connections have a response somewhere in flight;
            # their buffers and per-connection state occupy the LLC.
            inflight = max(spec.threads * 4, spec.connections // 2)
            pressure = (
                spec.connections * self.costs.connection_state_bytes
                + inflight * costs.pressure_bytes
                + spec.background_pressure_bytes
                + self.external_pressure
            )
            p = self.miss_probability(pressure)
            costs = self.request_costs(p)
            bounds = {
                "cpu": spec.threads * self.costs.core_ghz * 1e9 / costs.cpu_cycles
                if costs.cpu_cycles
                else float("inf"),
                "link": self.costs.link_bytes_per_sec / max(costs.output_bytes, 1),
                "memory": self.membw_available / max(costs.ddr_bytes, 1),
                "pcie": self.costs.pcie_bytes_per_sec / costs.pcie_bytes
                if costs.pcie_bytes
                else float("inf"),
                # Synchronous offload API: each worker thread blocks for the
                # round trip, so the thread pool caps concurrent offloads.
                "accelerator": spec.threads / costs.accel_block_seconds
                if costs.accel_block_seconds
                else float("inf"),
            }
            rps = min(bounds.values())
        bottleneck = min(bounds, key=bounds.get)
        cpu_util = min(
            1.0, rps * costs.cpu_cycles / (spec.threads * self.costs.core_ghz * 1e9)
        )
        return ServerMetrics(
            rps=rps,
            cpu_utilisation=cpu_util,
            membw_bytes_per_request=costs.ddr_bytes,
            membw_bytes_per_sec=rps * costs.ddr_bytes,
            miss_probability=p,
            bottleneck=bottleneck,
            cycles_per_request=costs.cpu_cycles,
            output_bytes=costs.output_bytes,
            pressure_bytes_per_request=costs.pressure_bytes,
            pcie_bytes_per_request=costs.pcie_bytes,
        )


# -- co-running workloads (Table I) ---------------------------------------------------------------


@dataclass
class CoRunnerSpec:
    """A cache/bandwidth-intensive co-runner (505.mcf-like)."""

    instances: int = 10
    bytes_per_sec_solo: float = 30e9  # aggregate DDR demand when unimpeded
    pressure_bytes: float = 18e6  # live LLC footprint
    membw_sensitivity: float = 0.85  # fraction of mcf runtime that is memory-bound


@dataclass
class CoRunResult:
    nginx_solo: ServerMetrics
    nginx_corun: ServerMetrics
    corunner_slowdown: float

    @property
    def nginx_slowdown(self) -> float:
        return (self.nginx_solo.rps - self.nginx_corun.rps) / self.nginx_solo.rps


def corun(
    spec: WorkloadSpec,
    corunner: CoRunnerSpec = None,
    costs: CostModel = DEFAULT_COSTS,
    llc_bytes: float = 27.5e6,
) -> CoRunResult:
    """Solve Nginx and a memory-intensive co-runner sharing the socket.

    Interference mechanisms, each hitting the placements differently:

    * **Memory latency stretch.**  Combined DDR demand loads the channels;
      queueing stretches every miss.  Stall-heavy placements (CPU-resident
      ULPs) lose the most, the stall-light SmartDIMM path the least.
    * **LLC theft.**  The co-runner's live footprint raises the server's
      miss probability (and the server's churn slows the co-runner).
    * **PCIe/IIO contention.**  The lookaside card's DMA and doorbell
      traffic contends in the IIO; under memory load its offload round trip
      inflates, which directly caps the synchronous QAT configuration and
      drags mcf down with it (Table I's 28.7%/37.9% outliers).
    """
    corunner = corunner or CoRunnerSpec()
    peak = costs.ddr_peak_bytes_per_sec
    solo = ServerModel(spec, costs, llc_bytes).solve()
    stretch = 1.0
    nginx = solo
    for _ in range(40):
        corunner_bw = corunner.bytes_per_sec_solo / stretch
        load = min((nginx.membw_bytes_per_sec + corunner_bw) / peak, 0.98)
        target = 1.0 + 0.21 * load * load / (1.0 - 0.65 * load)
        stretch = 0.5 * stretch + 0.5 * target  # damped fixed point
        co_costs = costs.with_overrides(
            per_core_miss_bandwidth=costs.per_core_miss_bandwidth / stretch,
            qat_offload_latency_s=costs.qat_offload_latency_s * (1.0 + 1.1 * (stretch - 1.0)),
            # Polling loops spin longer when the card's responses queue
            # behind contended IIO/DRAM traffic.
            qat_completion_cycles=int(costs.qat_completion_cycles * (1.0 + 2.5 * (stretch - 1.0))),
            qat_setup_cycles=int(costs.qat_setup_cycles * (1.0 + 1.5 * (stretch - 1.0))),
        )
        nginx = ServerModel(
            spec,
            co_costs,
            llc_bytes,
            external_pressure_bytes=corunner.pressure_bytes,
        ).solve()
    # The co-runner's slowdown: bandwidth queueing, cache churn from the
    # server, and IIO interference when a PCIe accelerator is in play.
    churn_bytes_per_sec = nginx.rps * nginx.pressure_bytes_per_request
    pcie_bytes_per_sec = nginx.rps * nginx.pcie_bytes_per_request
    corunner_slowdown = corunner.membw_sensitivity * (
        0.275 * nginx.membw_bytes_per_sec / peak
        + 0.03 * churn_bytes_per_sec / (churn_bytes_per_sec + 10e9)
        + 0.45 * pcie_bytes_per_sec / costs.pcie_bytes_per_sec
    )
    return CoRunResult(
        nginx_solo=solo, nginx_corun=nginx, corunner_slowdown=corunner_slowdown
    )
