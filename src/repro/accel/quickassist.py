"""QuickAssist-style lookaside PCIe accelerator.

Functionally identical to the software path (the card implements the same
AES-GCM and DEFLATE), but every offload pays the lookaside tax the paper's
Observation 2 describes: staging copy into a DMA-able buffer, descriptor
preparation and doorbell, DMA across a shared PCIe link both ways, and
completion notification (polling by default).  For 4 KB messages the tax
exceeds the saved ULP cycles, which is exactly why the QuickAssist bars in
Figs. 11/12 fail to beat the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.costs import CostModel, DEFAULT_COSTS
from repro.accel.pcie import PcieLink
from repro.faults.errors import CompletionLostError, DeadlineExceededError
from repro.faults.plan import FaultSite
from repro.overload.retry import RetryBudget
from repro.ulp.ctx_cache import cached_aesgcm
from repro.ulp.deflate import deflate_compress
from repro.ulp.gcm import AESGCM


@dataclass
class QatResult:
    payload: bytes
    cpu_cycles: float  # host cycles burned managing the offload
    offload_latency_s: float  # wall time the request waits on the card
    pcie_bytes: int


class QuickAssist:
    """A lookaside crypto + compression card behind a PCIe link."""

    def __init__(self, costs: CostModel = DEFAULT_COSTS, link: PcieLink = None,
                 retry_budget: RetryBudget = None):
        self.costs = costs
        self.link = link or PcieLink(bandwidth_bytes_per_sec=costs.pcie_bytes_per_sec)
        self.offloads = 0
        self._fault_plan = None
        self.completions_lost = 0
        self.completion_retries = 0
        self.budget_denials = 0
        self.deadline_sheds = 0
        # Shared token bucket capping aggregate resubmission traffic; the
        # per-op max_retries bound remains (it bounds a single request's
        # worst case; the budget bounds the *storm*).
        self.retry_budget = retry_budget or RetryBudget()

    def attach_fault_plan(self, plan) -> None:
        """Enable ``accel.completion_drop`` injection: a fired fault loses
        the completion notification, so the host burns a polling timeout and
        re-submits the request (bounded by the spec's ``max_retries`` and
        by the card's shared :class:`RetryBudget`)."""
        self._fault_plan = plan

    def _gcm(self, key: bytes) -> AESGCM:
        # The card keeps per-session cipher state on-device; model that with
        # the process-wide session-keyed context cache.
        return cached_aesgcm(key)

    def _management_cycles(self, nbytes: int) -> float:
        cycles = self.costs.qat_setup_cycles + self.costs.qat_completion_cycles
        if self.costs.qat_staging_copy:
            cycles += 2 * self.costs.memcpy_cycles(nbytes, cold=True)
        return cycles

    def _offload(self, in_bytes: int, out_bytes: int, engine_rate: float,
                 deadline_s: float = None) -> tuple:
        self.offloads += 1
        base = (
            self.link.transfer_time(in_bytes)
            + in_bytes / engine_rate
            + self.link.transfer_time(out_bytes)
        )
        if deadline_s is not None and base > deadline_s:
            # Deadline check at submission: the op cannot finish inside the
            # remaining budget even without faults, so shed before paying
            # the DMA tax.
            self.deadline_sheds += 1
            raise DeadlineExceededError(
                "lookaside op needs %.1fus but only %.1fus of deadline remain"
                % (base * 1e6, deadline_s * 1e6),
                site="quickassist", now=base, deadline=deadline_s,
            )
        cycles = self._management_cycles(in_bytes)
        attempts = 0
        wasted = 0.0
        plan = self._fault_plan
        if plan is not None:
            max_retries = int(
                plan.param(FaultSite.ACCEL_COMPLETION_DROP, "max_retries", 2)
            )
            timeout = float(
                plan.param(FaultSite.ACCEL_COMPLETION_DROP, "timeout_s", 100e-6)
            )
            while plan.fires(FaultSite.ACCEL_COMPLETION_DROP):
                # The request completed on-card but its notification never
                # arrived: the host polls until `timeout`, then re-submits,
                # paying the DMA and management tax again.
                attempts += 1
                self.completions_lost += 1
                wasted += base + timeout
                cycles += self._management_cycles(in_bytes)
                if attempts > max_retries:
                    raise CompletionLostError(
                        "accelerator completion lost %d times; retry budget (%d) "
                        "exhausted" % (attempts, max_retries),
                        attempts=attempts,
                        wasted_seconds=wasted,
                    )
                if not self.retry_budget.try_acquire():
                    # The shared bucket is dry: the card as a whole is
                    # retrying faster than it succeeds.  Fail this op fast
                    # rather than feed the storm.
                    self.budget_denials += 1
                    raise CompletionLostError(
                        "shared retry budget drained after %d attempts"
                        % attempts,
                        attempts=attempts,
                        wasted_seconds=wasted,
                    )
                # Exponential backoff (with deterministic jitter) before the
                # resubmission hits the wire.
                wasted += self.retry_budget.backoff_s(attempts)
                if deadline_s is not None and wasted + base > deadline_s:
                    self.deadline_sheds += 1
                    raise DeadlineExceededError(
                        "deadline expired while retrying a lost completion",
                        site="quickassist", now=wasted + base,
                        deadline=deadline_s,
                    )
            self.completion_retries += attempts
            self.retry_budget.on_success()
        latency = wasted + base
        pcie = (attempts + 1) * (in_bytes + out_bytes)
        return cycles, latency, pcie

    def tls_encrypt(self, key: bytes, nonce: bytes, plaintext: bytes,
                    aad: bytes = b"", deadline_s: float = None) -> QatResult:
        """Offload AES-GCM to the card; returns ciphertext||tag + costs.

        `deadline_s` is the remaining time budget for this op; when the
        transfer (or its retries) cannot finish inside it the call sheds
        with :class:`DeadlineExceededError` instead of serving late.
        """
        ciphertext, tag = self._gcm(key).encrypt(nonce, plaintext, aad)
        payload = ciphertext + tag
        cycles, latency, pcie = self._offload(
            len(plaintext), len(payload), self.costs.qat_crypto_bytes_per_sec,
            deadline_s=deadline_s,
        )
        return QatResult(payload, cycles, latency, pcie)

    def compress(self, data: bytes, level: int = 6,
                 deadline_s: float = None) -> QatResult:
        """Offload DEFLATE to the card; returns the stream + costs."""
        compressed = deflate_compress(data, level=level)
        cycles, latency, pcie = self._offload(
            len(data), len(compressed), self.costs.qat_deflate_bytes_per_sec,
            deadline_s=deadline_s,
        )
        return QatResult(compressed, cycles, latency, pcie)
