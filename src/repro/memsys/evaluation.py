"""Fig. 25 evaluation driver: PRAC variants over mixes and PuD intensities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..mitigations.prac import PracConfig
from ..workloads.mixes import PUD_PERIODS_NS, PudWorkloadConfig, WorkloadMix, build_mixes
from ..workloads.fast_traces import TraceTape
from ..workloads.profiles import WorkloadProfile
from .system import MemSysConfig, MemorySystem, SimResult, alone_ipc, mix_tapes


@dataclass
class MixOutcome:
    """Normalized performance of one (mix, period, mitigation) point."""

    mix_id: int
    period_ns: float
    mitigation: str
    weighted_speedup: float
    baseline_weighted_speedup: float
    backoffs: int

    @property
    def normalized_performance(self) -> float:
        if self.baseline_weighted_speedup <= 0:
            return 0.0
        return self.weighted_speedup / self.baseline_weighted_speedup

    @property
    def overhead_percent(self) -> float:
        return 100.0 * (1.0 - self.normalized_performance)


@dataclass
class Fig25Evaluation:
    """Sweeps mixes x periods x {PRAC-PO-Naive, PRAC-PO-WC}."""

    mix_count: int = 60
    periods_ns: Sequence[float] = PUD_PERIODS_NS
    config: MemSysConfig = field(default_factory=MemSysConfig)

    def _alone_ipc(self, profile: WorkloadProfile) -> float:
        # shares the module-level cache in .system, keyed on
        # (profile name, config fields, seed)
        return alone_ipc(profile, config=self.config)

    def _run(
        self,
        mix: WorkloadMix,
        period_ns: float,
        prac: Optional[PracConfig],
        tapes: Sequence[TraceTape],
    ) -> SimResult:
        pud = PudWorkloadConfig(period_ns=period_ns)
        system = MemorySystem(mix, pud=pud, prac=prac, config=self.config,
                              seed=mix.mix_id, tapes=tapes)
        return system.run()

    def evaluate(
        self, mitigations: Optional[dict[str, Optional[PracConfig]]] = None
    ) -> list[MixOutcome]:
        """Run the full sweep; baseline is always included implicitly."""
        if mitigations is None:
            mitigations = {
                "PRAC-PO-Naive": PracConfig.po_naive(),
                "PRAC-PO-WC": PracConfig.po_weighted(),
            }
        outcomes: list[MixOutcome] = []
        for mix in build_mixes(self.mix_count):
            alone = [self._alone_ipc(profile) for profile in mix.profiles]
            # every run of the mix replays these; dropped with the mix
            tapes = mix_tapes(mix, seed=mix.mix_id)
            for period in self.periods_ns:
                baseline = self._run(mix, period, None, tapes)
                ws_base = baseline.weighted_speedup(alone)
                for name, prac in mitigations.items():
                    result = self._run(mix, period, prac, tapes)
                    outcomes.append(
                        MixOutcome(
                            mix_id=mix.mix_id,
                            period_ns=period,
                            mitigation=name,
                            weighted_speedup=result.weighted_speedup(alone),
                            baseline_weighted_speedup=ws_base,
                            backoffs=result.backoffs,
                        )
                    )
        return outcomes


def average_overhead(outcomes: Sequence[MixOutcome], mitigation: str) -> float:
    """Average overhead (%) of one mitigation across all points."""
    points = [o.overhead_percent for o in outcomes if o.mitigation == mitigation]
    if not points:
        raise ValueError(f"no outcomes for {mitigation}")
    return sum(points) / len(points)


def overhead_by_period(
    outcomes: Sequence[MixOutcome], mitigation: str
) -> dict[float, float]:
    """Mean overhead per PuD period (the Fig. 25 x-axis series)."""
    by_period: dict[float, list[float]] = {}
    for outcome in outcomes:
        if outcome.mitigation == mitigation:
            by_period.setdefault(outcome.period_ns, []).append(
                outcome.overhead_percent
            )
    return {
        period: sum(values) / len(values)
        for period, values in sorted(by_period.items())
    }
