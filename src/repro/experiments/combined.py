"""§6 experiments: combining RowHammer with CoMRA and/or SiMRA (Figs. 21-23).

Procedure (Fig. 20): characterize each technique's HC_first for a victim,
pre-hammer the victim with the multiple-row-activation technique(s) up to a
fraction of their HC_first, then continue with RowHammer until the first
bitflip; report the RowHammer-phase count against RowHammer alone.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

import numpy as np

from ..core.scale import ExperimentScale
from ..disturbance.calibration import Mechanism
from .base import ExperimentResult, simra_sessions

FRACTIONS = (0.1, 0.5, 0.9)


def _run_combined(
    experiment_id: str,
    title: str,
    comra: bool,
    simra: bool,
    paper_note: str,
    scale: Optional[ExperimentScale],
) -> ExperimentResult:
    result = ExperimentResult(experiment_id, title)
    sessions = simra_sessions(scale)
    reductions: dict[float, list[float]] = defaultdict(list)
    absolutes: dict[float, list[float]] = defaultdict(list)
    rh_alone: list[float] = []

    for session in sessions:
        # Spend the scaled-down budget on the weakest sandwichable rows
        # (the ones the paper's exhaustive §6 sweep reports), ranked by
        # the vectorized HC_first oracle instead of list order.
        victims = session.rank_victims(
            session.combined_victims(), Mechanism.ROWHAMMER
        )[:8]
        for fraction in FRACTIONS:
            outcomes = session.measure_combined(
                victims,
                comra_fraction=fraction if comra else 0.0,
                simra_fraction=fraction if simra else 0.0,
            )
            for outcome in outcomes:
                if outcome is None:
                    continue
                reductions[fraction].append(outcome.reduction)
                absolutes[fraction].append(outcome.hc_combined)
                if fraction == FRACTIONS[0]:
                    rh_alone.append(outcome.hc_rowhammer)

    mean_rh = float(np.mean(rh_alone)) if rh_alone else None
    for fraction in FRACTIONS:
        values = reductions.get(fraction, [])
        if not values:
            continue
        arr = np.asarray(values)
        mean_combined = float(np.mean(absolutes[fraction]))
        # The paper compares *average* HC_first of the combined pattern
        # against RowHammer alone (Obs. 22-24); the ratio of means is
        # robust to rows whose cross-coupled damage flips during the
        # pre-hammer phase (their RowHammer-phase count collapses to ~1).
        mean_ratio = (mean_rh / mean_combined) if mean_rh else None
        result.rows.append(
            {
                "prehammer_fraction": fraction,
                "mean_reduction_x": mean_ratio,
                "median_row_reduction_x": float(np.median(arr)),
                "max_reduction_x": float(arr.max()),
                "fraction_improved": float((arr > 1.0).mean()),
                "mean_hc_combined": mean_combined,
                "rows": len(values),
            }
        )
        if mean_ratio is not None:
            result.checks[f"mean_reduction_at_{int(fraction * 100)}pct"] = mean_ratio
        result.checks[f"fraction_improved_at_{int(fraction * 100)}pct"] = float(
            (arr > 1.0).mean()
        )
    if mean_rh is not None:
        result.checks["mean_hc_rowhammer_alone"] = mean_rh
    result.notes.append(paper_note)
    return result


def run_fig21(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 21: RowHammer combined with CoMRA."""
    return _run_combined(
        "fig21",
        "Combined RowHammer + CoMRA",
        comra=True,
        simra=False,
        paper_note=(
            "paper Obs. 22: 95.33% of rows improve; HC_first falls 1.34x at "
            "90% CoMRA pre-hammer and 1.02x at 10%"
        ),
        scale=scale,
    )


def run_fig22(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 22: RowHammer combined with SiMRA."""
    return _run_combined(
        "fig22",
        "Combined RowHammer + SiMRA",
        comra=False,
        simra=True,
        paper_note=(
            "paper Obs. 23: less effective than RH+CoMRA; ~1.22x at the "
            "90% pre-hammer level"
        ),
        scale=scale,
    )


def run_fig23(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 23: RowHammer combined with CoMRA and SiMRA together."""
    return _run_combined(
        "fig23",
        "Combined RowHammer + CoMRA + SiMRA",
        comra=True,
        simra=True,
        paper_note=(
            "paper Obs. 24: the most effective combined pattern; minimum "
            "average HC_first 1.66x below RowHammer alone"
        ),
        scale=scale,
    )
