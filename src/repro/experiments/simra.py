"""§5 experiments: read disturbance of SiMRA (Figs. 13-19).

All run on SK Hynix chips -- the only vendor whose chips expose SiMRA
(§5.3); the experiments verify the other vendors' chips ignore the
trigger as a sanity check in ``tests``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from ..core import patterns
from ..core.metrics import ChangeDistribution, DistributionSummary
from ..core.scale import ExperimentScale
from ..disturbance.calibration import ALL_PATTERNS
from ..dram.errors import AddressError
from ..dram.organization import REGION_ORDER
from .base import ExperimentResult, found_values, simra_sessions

DS_COUNTS = (2, 4, 8, 16)
SS_COUNTS = (2, 4, 8, 16, 32)


def run_fig13(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 13: double-sided SiMRA vs double-sided RowHammer."""
    result = ExperimentResult(
        "fig13", "Double-sided SiMRA vs RowHammer (HC_first change + minima)"
    )
    sessions = simra_sessions(scale)
    lowest_rh = None
    per_count_lowest: dict[int, float] = {}
    per_count_changes: dict[int, list[tuple[float, float]]] = defaultdict(list)

    for session in sessions:
        for count in DS_COUNTS:
            pairs = session.sample_simra_pairs(count)
            found_ms = [
                m
                for group in session.measure_simra_ds(pairs, max_victims=2)
                for m in group
                if m.found
            ]
            rh_many = session.measure_rowhammer_ds(
                [m.victim for m in found_ms]
            )
            for m, rh in zip(found_ms, rh_many):
                if rh.found:
                    per_count_changes[count].append((rh.hc_first, m.hc_first))
                    lowest_rh = (
                        rh.hc_first
                        if lowest_rh is None
                        else min(lowest_rh, rh.hc_first)
                    )
                low = per_count_lowest.get(count)
                per_count_lowest[count] = (
                    m.hc_first if low is None else min(low, m.hc_first)
                )

    overall_lowest = min(per_count_lowest.values()) if per_count_lowest else None
    for count in DS_COUNTS:
        pairs = per_count_changes.get(count, [])
        dist = ChangeDistribution.from_pairs(
            [b for b, _ in pairs], [t for _, t in pairs]
        )
        result.rows.append(
            {
                "n_rows": count,
                "lowest_simra": per_count_lowest.get(count),
                "fraction_improved": dist.fraction_improved if pairs else None,
                "fraction_gt99pct_reduction": (
                    dist.fraction_reduced_by(99.0) if pairs else None
                ),
                "rows": len(pairs),
            }
        )
        if pairs:
            result.checks[f"fraction_improved_n{count}"] = dist.fraction_improved
    if overall_lowest is not None:
        result.checks["lowest_simra_hc"] = overall_lowest
    if lowest_rh is not None and overall_lowest:
        result.checks["min_reduction_vs_rowhammer"] = lowest_rh / overall_lowest
    result.notes.append(
        "paper Obs. 12: HC_first down to 26; >=25.19% of victims show >99% "
        "reduction for every N; 100/98.8/97.4/94.9% improve for N=2/4/8/16"
    )
    return result


def run_fig14(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 14: double-sided SiMRA data-pattern sweep per N."""
    result = ExperimentResult("fig14", "Double-sided SiMRA data-pattern sweep")
    sessions = simra_sessions(scale)
    for count in DS_COUNTS:
        per_pattern: dict[str, list[float]] = defaultdict(list)
        for session in sessions:
            pairs = session.sample_simra_pairs(count, include_sentinel=False)[:3]
            for pattern in ALL_PATTERNS:
                for group in session.measure_simra_ds(
                    pairs, pattern=pattern, max_victims=1
                ):
                    for m in group:
                        if m.found:
                            per_pattern[pattern.value].append(m.hc_first)
        means = {}
        for pattern_name, values in per_pattern.items():
            summary = DistributionSummary.from_values(values)
            means[pattern_name] = summary.mean
            result.rows.append(
                {
                    "n_rows": count,
                    "aggressor_pattern": pattern_name,
                    "min": summary.minimum,
                    "mean": summary.mean,
                }
            )
        if "0x00" in means and "0xFF" in means and means["0x00"] > 0:
            # aggressor 0xFF -> victim 0x00: the weak direction (Obs. 13)
            result.checks[f"victim00_penalty_n{count}"] = (
                means["0xFF"] / means["0x00"]
            )
    result.notes.append(
        "paper Obs. 13-14: aggressor 0x00 (victim 0xFF) is strongest; the "
        "opposite polarity raises average HC_first by up to 57.8x; SiMRA "
        "flips 1->0 while RowHammer flips 0->1"
    )
    return result


def run_fig15(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 15: double-sided SiMRA temperature sweep per N."""
    result = ExperimentResult("fig15", "Double-sided SiMRA temperature sweep")
    sessions = simra_sessions(scale)
    temperatures = (50.0, 60.0, 70.0, 80.0)
    for count in DS_COUNTS:
        means = {}
        for temperature in temperatures:
            values: list[float] = []
            for session in sessions:
                session.set_temperature(temperature)
                pairs = session.sample_simra_pairs(count, include_sentinel=False)
                for group in session.measure_simra_ds(
                    pairs[:3], max_victims=1
                ):
                    values.extend(found_values(group))
            if values:
                summary = DistributionSummary.from_values(values)
                means[temperature] = summary.mean
                result.rows.append(
                    {
                        "n_rows": count,
                        "temp_C": temperature,
                        "min": summary.minimum,
                        "mean": summary.mean,
                    }
                )
        for session in sessions:
            session.set_temperature(80.0)
        if 50.0 in means and 80.0 in means and means[80.0] > 0:
            result.checks[f"hc_ratio_50C_over_80C_n{count}"] = (
                means[50.0] / means[80.0]
            )
    result.notes.append(
        "paper Obs. 15: average HC_first shrinks ~3.0-3.3x from 50 to 80 degC "
        "for every N"
    )
    return result


def run_fig16(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 16: single-sided SiMRA vs single-sided RowHammer.

    Contiguous groups of every N are anchored at the same block bases, so
    each block's lower edge victim is shared across N -- the per-victim
    pairing that exposes Obs. 17's monotonic trend.
    """
    result = ExperimentResult("fig16", "Single-sided SiMRA vs RowHammer")
    sessions = simra_sessions(scale)
    per_count: dict[int, list[float]] = {count: [] for count in SS_COUNTS}
    rh_values: list[float] = []
    for session in sessions:
        geometry = session.module.geometry
        bases = [
            base
            for base in session.simra_blocks()[: max(4, session.scale.simra_groups)]
            if base - 1 >= 0 and geometry.same_subarray(base - 1, base)
        ]
        for count in SS_COUNTS:
            edges, pairs = [], []
            for base in bases:
                try:
                    pair = patterns.simra_pair_for(
                        session.module, base, count, "single-sided"
                    )
                except AddressError:
                    continue
                edges.append(base - 1)
                pairs.append(pair)
            for edge, group in zip(edges, session.measure_simra_ss(pairs)):
                per_count[count].extend(
                    m.hc_first for m in group if m.found and m.victim == edge
                )
        for base, group in zip(bases, session.measure_rowhammer_ss(bases)):
            rh_values.extend(
                m.hc_first for m in group
                if m.found and m.victim == base - 1
            )

    means: dict[int, float] = {}
    mins: dict[int, float] = {}
    for count in SS_COUNTS:
        values = per_count[count]
        if not values:
            continue
        summary = DistributionSummary.from_values(values)
        means[count] = summary.mean
        mins[count] = summary.minimum
        result.rows.append(
            {
                "technique": f"ss-simra-{count}",
                "min": summary.minimum,
                "mean": summary.mean,
                "rows": summary.count,
            }
        )
    if rh_values:
        summary = DistributionSummary.from_values(rh_values)
        result.rows.append(
            {
                "technique": "ss-rowhammer",
                "min": summary.minimum,
                "mean": summary.mean,
                "rows": summary.count,
            }
        )
        if 32 in mins:
            result.checks["ss_simra32_vs_ss_rh_min"] = summary.minimum / mins[32]
    if 2 in means and 32 in means and means[32] > 0:
        result.checks["ss_simra_32_vs_2_mean"] = means[2] / means[32]
    monotone = all(
        means[a] >= means[b]
        for a, b in zip(SS_COUNTS, SS_COUNTS[1:])
        if a in means and b in means
    )
    result.checks["mean_decreases_with_n"] = float(monotone)
    result.notes.append(
        "paper Obs. 16-17: single-sided SiMRA-32's lowest HC_first is 1.17x "
        "below single-sided RowHammer; average falls 1.47x from N=2 to N=32"
    )
    return result


def run_fig17(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 17: double-sided SiMRA vs RowPress across tAggOn."""
    result = ExperimentResult("fig17", "Double-sided SiMRA vs RowPress (tAggOn)")
    sessions = simra_sessions(scale)
    t_agg_on_values = (36.0, 144.0, 7_800.0, 70_200.0)
    for count in DS_COUNTS:
        means = {}
        for t_agg_on in t_agg_on_values:
            values: list[float] = []
            for session in sessions:
                pairs = session.sample_simra_pairs(count, include_sentinel=False)
                for group in session.measure_simra_ds(
                    pairs[:3], t_agg_on_ns=t_agg_on, max_victims=1
                ):
                    values.extend(found_values(group))
            if values:
                summary = DistributionSummary.from_values(values)
                means[t_agg_on] = summary.mean
                result.rows.append(
                    {
                        "n_rows": count,
                        "t_agg_on_ns": t_agg_on,
                        "min": summary.minimum,
                        "mean": summary.mean,
                    }
                )
        if 36.0 in means and 70_200.0 in means and means[70_200.0] > 0:
            result.checks[f"press_gain_n{count}"] = means[36.0] / means[70_200.0]
    result.notes.append(
        "paper Obs. 18: 70.2us tAggOn lowers average HC_first 144.9x-270.3x"
    )
    return result


def run_fig18(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 18: SiMRA ACT->PRE / PRE->ACT timing sweep."""
    result = ExperimentResult("fig18", "Double-sided SiMRA timing-delay sweep")
    # partial activation is a per-row coin flip, so sample enough groups
    # and victims for both populations to show up
    scale = (scale or ExperimentScale.default()).with_overrides(simra_groups=8)
    sessions = simra_sessions(scale)
    delays = (1.5, 3.0, 4.5)
    count = 16
    means: dict[tuple[float, float], float] = {}
    for act_to_pre in delays:
        for pre_to_act in delays:
            values: list[float] = []
            for session in sessions:
                pairs = session.sample_simra_pairs(count, include_sentinel=False)
                for group in session.measure_simra_ds(
                    pairs[:6],
                    act_to_pre_ns=act_to_pre,
                    pre_to_act_ns=pre_to_act,
                    max_victims=2,
                ):
                    values.extend(found_values(group))
            if values:
                summary = DistributionSummary.from_values(values)
                means[(act_to_pre, pre_to_act)] = summary.mean
                result.rows.append(
                    {
                        "act_to_pre_ns": act_to_pre,
                        "pre_to_act_ns": pre_to_act,
                        "min": summary.minimum,
                        "mean": summary.mean,
                    }
                )
    if (3.0, 1.5) in means and (3.0, 4.5) in means and means[(3.0, 4.5)] > 0:
        result.checks["preact_gain_1p5_to_4p5"] = (
            means[(3.0, 1.5)] / means[(3.0, 4.5)]
        )
    if (1.5, 3.0) in means and (3.0, 3.0) in means and means[(3.0, 3.0)] > 0:
        result.checks["partial_activation_penalty"] = (
            means[(1.5, 3.0)] / means[(3.0, 3.0)]
        )
    result.notes.append(
        "paper Obs. 19-20: raising PRE->ACT 1.5->4.5 ns lowers HC_first "
        "~1.23x; ACT->PRE of 1.5 ns partially activates rows and raises "
        "average HC_first ~2.28x"
    )
    return result


def run_fig19(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 19: double-sided SiMRA HC_first by subarray region per N."""
    result = ExperimentResult("fig19", "Double-sided SiMRA spatial variation")
    scale = (scale or ExperimentScale.default()).with_overrides(
        simra_groups=8
    )
    sessions = simra_sessions(scale)
    for count in DS_COUNTS:
        by_region: dict[str, list[float]] = defaultdict(list)
        for session in sessions:
            pairs = session.sample_simra_pairs(count)
            for group in session.measure_simra_ds(pairs, max_victims=2):
                for m in group:
                    if m.found:
                        by_region[m.region.value].append(m.hc_first)
        means = {}
        for region in REGION_ORDER:
            values = by_region.get(region.value)
            if not values:
                continue
            summary = DistributionSummary.from_values(values)
            means[region.value] = summary.mean
            result.rows.append(
                {
                    "n_rows": count,
                    "region": region.value,
                    "mean": summary.mean,
                    "rows": summary.count,
                }
            )
        if len(means) >= 2:
            result.checks[f"spatial_span_n{count}"] = (
                max(means.values()) / min(means.values())
            )
    result.notes.append(
        "paper Obs. 21: the region ordering differs per N (e.g. for N=4 the "
        "beginning is least vulnerable, for N=8 the end is)"
    )
    return result
