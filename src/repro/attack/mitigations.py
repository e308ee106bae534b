"""The gauntlet's defense matrix: every mitigation as a bank hook.

Three kinds of defense face the synthesized attacks:

* the shipped :class:`~repro.trr.mechanism.SamplingTrr` (§7's target);
* PRAC variants (§8.2) adapted as :class:`PracHook` -- per-row counters fed
  from activation *events* so SiMRA's hidden multi-row activations are
  accounted, with back-off serviced immediately through
  :meth:`~repro.dram.bank.Bank.targeted_refresh`;
* the §8.1 countermeasure policies -- the weighted-contribution policy
  retrofitted into the sampler as :class:`WeightedSamplingTrr`, and the
  compute-region / clustered-decoder policies as *admission* checks that
  reject an attack's operations at the interface before it runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..disturbance.calibration import TRR_CAPABLE_REF_PERIOD
from ..disturbance.distributions import rng_for
from ..dram.commands import ActivationEvent
from ..dram.errors import AddressError
from ..dram.module import DramModule
from ..mitigations.countermeasures import (
    ClusteredActivationDecoder,
    ComputeRegionPolicy,
    WeightedContributionPolicy,
)
from ..mitigations.prac import OpClass, PracConfig, PracCounters
from ..trr.mechanism import SamplingTrr
from .synthesis import AttackSpec

#: bank-blocking time of one RFM command (ns), the DDR5 tRFM ballpark
RFM_NS = 350.0

#: every mitigation the gauntlet knows, in evaluation order
MITIGATIONS: tuple[str, ...] = (
    "none",
    "sampling-trr",
    "weighted-trr",
    "prac-po-naive",
    "prac-po-wc",
    "prac-ao-wc",
    "compute-region",
    "clustered-decoder",
)


class PracHook:
    """PRAC as a bank hook: per-row counters fed from activation events.

    Counting at event granularity (not command granularity) is what makes
    PRAC PuD-correct: one SiMRA operation issues two ACT commands but
    activates up to 32 rows, and the counter mat must account every one of
    them (§8.2).  When a counter crosses the RDT the hook services the
    resulting back-off *immediately* -- refreshing the hot rows'
    neighborhoods via :meth:`~repro.dram.bank.Bank.targeted_refresh` --
    instead of waiting for the next REF, because a PuD attacker can cross
    the RDT many times within one tREFI.

    The back-off must fire at the exact event where a counter crosses the
    RDT, so the host's compiled stream path replays a PRAC stretch in
    segments: multi-period runs only where :meth:`quiet_periods` proves no
    counter can reach the RDT, single periods wherever a crossing is
    possible.  The bound works on the per-period increments the host
    learns with :meth:`period_increments`.
    """

    def __init__(
        self,
        module: DramModule,
        config: PracConfig,
        warm_start: bool = False,
    ) -> None:
        self.module = module
        self.config = config
        self.warm_start = warm_start
        self._counters: dict[int, PracCounters] = {}
        self.acts_seen = 0
        self.refs_seen = 0
        self.rfms = 0
        self.stall_ns = 0.0
        self.targeted_refreshes = 0

    @property
    def stats(self) -> dict:
        """Counter snapshot, dict-shaped for report/gauntlet consumers."""
        return {
            "acts_seen": self.acts_seen,
            "refs_seen": self.refs_seen,
            "rfms": self.rfms,
            "stall_ns": self.stall_ns,
            "targeted_refreshes": self.targeted_refreshes,
        }

    def counters(self, bank: int) -> PracCounters:
        counters = self._counters.get(bank)
        if counters is None:
            counters = PracCounters(bank, self.config, warm_start=self.warm_start)
            self._counters[bank] = counters
        return counters

    # -- TrrHook interface ---------------------------------------------
    def on_act(self, bank: int, row: int, now_ns: float) -> None:
        # counting happens on events, where the true row group is visible
        self.acts_seen += 1

    def on_act_stream(self, bank: int, rows, times: int = 1) -> None:
        self.acts_seen += len(rows) * int(times)

    def period_increments(self, bank: int, run_period) -> Optional[dict[int, int]]:
        """Counter increments ``run_period()`` makes on ``bank``, or None
        when a served RFM hides them."""
        return self.counters(bank).increments(run_period)

    def quiet_periods(self, bank: int, increments: dict[int, int]) -> int:
        """Periods that can run before any counter could reach the RDT.

        ``increments`` are one period's per-row counter increments.  A run
        of ``n`` periods also emits the session the bank held back from
        the previous period, worth at most one more period, so ``n + 1``
        periods must keep every counter below the RDT.  The bound is only
        valid while that held-back session has ``times == 1``; after a
        multi-period run the host replays one single period first.
        """
        counters = self.counters(bank)
        headroom = self.config.rdt - 1
        return min(
            (headroom - counters.counter(row)) // increment
            for row, increment in increments.items()
        ) - 1

    def on_ref(self, bank: int, now_ns: float) -> list[int]:
        self.refs_seen += 1
        counters = self.counters(bank)
        if counters.back_off_pending is not None:
            # fallback path: a back-off raised outside any event window
            self.rfms += 1
            return counters.serve_rfm()
        return []

    def on_event(self, bank: int, event: ActivationEvent, times: float = 1.0) -> None:
        counters = self.counters(bank)
        if event.kind is ActivationEvent.Kind.SIMRA:
            op = OpClass.SIMRA
        elif event.kind is ActivationEvent.Kind.COMRA_PAIR:
            op = OpClass.COMRA
        else:
            op = OpClass.ACT
        self.stall_ns += counters.record(
            event.rows, op, times=max(1, int(times))
        )
        if counters.back_off_pending is not None:
            hot = counters.serve_rfm()
            self.rfms += 1
            self.stall_ns += RFM_NS
            self.targeted_refreshes += len(hot)
            self.module.bank(bank).targeted_refresh(hot, event.t_close_ns)


class WeightedSamplingTrr:
    """§8.1 weighted-contribution retrofit of the sampling TRR.

    Two changes versus :class:`~repro.trr.mechanism.SamplingTrr`: the
    tracker ingests activation *events* with
    :class:`WeightedContributionPolicy` weights (a SiMRA op adds the SiMRA
    weight to every activated row, not the two ACT commands the bus
    shows), and it keeps per-row weighted counts instead of a bounded
    FIFO, so a dummy flood cannot *evict* the aggressors -- it can only
    dilute their sampling probability, which the weights bound from below.
    """

    def __init__(
        self,
        policy: Optional[WeightedContributionPolicy] = None,
        capable_ref_period: int = TRR_CAPABLE_REF_PERIOD,
        seed: int = 0,
    ) -> None:
        self.policy = policy or WeightedContributionPolicy()
        self.capable_ref_period = capable_ref_period
        self._weights: dict[int, dict[int, float]] = {}
        self._rng = rng_for("weighted-trr", seed)
        self.acts_seen = 0
        self.refs_seen = 0
        self.targeted_refreshes = 0

    @property
    def stats(self) -> dict:
        """Counter snapshot, dict-shaped for report/gauntlet consumers."""
        return {
            "acts_seen": self.acts_seen,
            "refs_seen": self.refs_seen,
            "targeted_refreshes": self.targeted_refreshes,
        }

    def _bank_weights(self, bank: int) -> dict[int, float]:
        weights = self._weights.get(bank)
        if weights is None:
            weights = {}
            self._weights[bank] = weights
        return weights

    # -- TrrHook interface ---------------------------------------------
    def on_act(self, bank: int, row: int, now_ns: float) -> None:
        self.acts_seen += 1
        weights = self._bank_weights(bank)
        weights[row] = weights.get(row, 0.0) + 1.0

    def on_act_stream(self, bank: int, rows, times: int = 1) -> None:
        """Observe ``times`` repetitions of the ACT sequence ``rows``.

        Weight accumulation commutes and integer-valued float sums are
        exact, so adding ``count * times`` per distinct row equals the
        same number of sequential ``+ 1.0`` updates bit for bit.
        """
        rows = np.asarray(rows, dtype=np.int64)
        total = int(rows.size) * int(times)
        if total == 0:
            return
        self.acts_seen += total
        weights = self._bank_weights(bank)
        unique, counts = np.unique(rows, return_counts=True)
        for row, count in zip(unique.tolist(), counts.tolist()):
            weights[row] = weights.get(row, 0.0) + float(count * times)

    def on_event(self, bank: int, event: ActivationEvent, times: float = 1.0) -> None:
        if event.kind is ActivationEvent.Kind.SIMRA:
            extra = float(self.policy.simra_weight)
        elif event.kind is ActivationEvent.Kind.COMRA_PAIR:
            extra = float(self.policy.comra_weight)
        else:
            return
        weights = self._bank_weights(bank)
        for row in event.rows:
            weights[row] = weights.get(row, 0.0) + extra * max(1.0, times)

    def on_ref(self, bank: int, now_ns: float) -> list[int]:
        self.refs_seen += 1
        if self._rng.random() >= 1.0 / self.capable_ref_period:
            return []
        weights = self._bank_weights(bank)
        if not weights:
            return []
        rows = sorted(weights)
        total = sum(weights[row] for row in rows)
        pick = float(self._rng.random()) * total
        sampled = rows[-1]
        cumulative = 0.0
        for row in rows:
            cumulative += weights[row]
            if pick < cumulative:
                sampled = row
                break
        weights.clear()
        self.targeted_refreshes += 1
        return [sampled]


# ----------------------------------------------------------------------
# Admission policies (interface/decoder constraints)
# ----------------------------------------------------------------------
def policy_rejection(
    mitigation: str, module: DramModule, spec: AttackSpec
) -> Optional[str]:
    """Why the interface/decoder blocks ``spec`` before it runs, if it does.

    The compute-region policy rejects PuD operations whose operands leave
    the compute region; the clustered-activation decoder only exposes
    contiguous SiMRA groups, so double-sided SiMRA pairs do not exist.
    Plain (RowHammer) activations are never rejected.
    """
    if mitigation == "compute-region":
        policy = ComputeRegionPolicy(
            subarray_rows=module.geometry.rows_per_subarray
        )
        policy.reset()
        offsets = [
            row % module.geometry.rows_per_subarray for row in spec.activated
        ]
        try:
            if spec.technique == "simra":
                policy.check_simra(offsets)
            elif spec.technique == "comra":
                policy.check_comra(offsets[0], offsets[-1])
        except AddressError as error:
            return str(error)
    if mitigation == "clustered-decoder" and spec.technique == "simra":
        decoder = ClusteredActivationDecoder()
        decoder.reset()
        if decoder.sandwiched_victims(spec.activated):
            return (
                "decoder exposes only contiguous groups; the double-sided "
                "pair's sandwiched victims are unreachable"
            )
    return None


def build_hook(mitigation: str, module: DramModule, seed: int = 0):
    """Instantiate the bank hook for one mitigation (None for 'none').

    The compute-region and clustered-decoder rows keep the shipped
    sampling TRR attached: they are interface constraints layered on a
    chip that still has its own mitigation.
    """
    if mitigation == "none":
        return None
    if mitigation == "sampling-trr":
        return SamplingTrr(seed=seed)
    if mitigation == "weighted-trr":
        return WeightedSamplingTrr(seed=seed)
    if mitigation == "prac-po-naive":
        return PracHook(module, PracConfig.po_naive())
    if mitigation == "prac-po-wc":
        return PracHook(module, PracConfig.po_weighted())
    if mitigation == "prac-ao-wc":
        return PracHook(module, PracConfig.ao_weighted())
    if mitigation in ("compute-region", "clustered-decoder"):
        return SamplingTrr(seed=seed)
    raise KeyError(
        f"unknown mitigation {mitigation!r}; known: {MITIGATIONS}"
    )
