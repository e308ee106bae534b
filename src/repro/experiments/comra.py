"""§4 experiments: read disturbance of CoMRA (Figs. 4-11).

Each ``run_figNN`` regenerates the corresponding figure's series on the
simulated population and reports the headline shape metrics the paper
highlights in its observations.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

import numpy as np

from ..core.metrics import ChangeDistribution, DistributionSummary
from ..core.scale import ExperimentScale
from ..disturbance.calibration import ALL_PATTERNS
from ..dram.organization import REGION_ORDER
from .base import (
    ExperimentResult,
    REPRESENTATIVE_CONFIGS,
    found_values,
    population_sessions,
    representative_sessions,
)


def run_fig04(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 4: double-sided CoMRA vs double-sided RowHammer.

    Left plot: per-row HC_first change distribution; right plot: the lowest
    HC_first observed per vendor for each technique.
    """
    result = ExperimentResult(
        "fig04", "Double-sided CoMRA vs RowHammer (HC_first change + minima)"
    )
    sessions = population_sessions(scale)
    per_vendor_rh: dict[str, list[float]] = defaultdict(list)
    per_vendor_comra: dict[str, list[float]] = defaultdict(list)
    changes_all: list[tuple[float, float]] = []

    for session in sessions:
        victims = session.candidate_victims()
        rh_many = session.measure_rowhammer_ds(victims)
        comra_many = session.measure_comra_ds(victims)
        for rh, comra in zip(rh_many, comra_many):
            if rh.found:
                per_vendor_rh[session.module.vendor.value].append(rh.hc_first)
            if comra.found:
                per_vendor_comra[session.module.vendor.value].append(comra.hc_first)
            if rh.found and comra.found:
                changes_all.append((rh.hc_first, comra.hc_first))

    distribution = ChangeDistribution.from_pairs(
        [b for b, _ in changes_all], [t for _, t in changes_all]
    )
    for vendor in per_vendor_rh:
        rh_min = min(per_vendor_rh[vendor])
        comra_min = min(per_vendor_comra[vendor])
        result.rows.append(
            {
                "vendor": vendor,
                "lowest_rowhammer": rh_min,
                "lowest_comra": comra_min,
                "min_reduction_x": rh_min / comra_min,
                "rows_tested": len(per_vendor_rh[vendor]),
            }
        )
        result.checks[f"min_reduction_{vendor}"] = rh_min / comra_min
    result.checks["fraction_improved"] = distribution.fraction_improved
    result.notes.append(
        "paper: lowest-HC_first reductions 13.98x/1.18x/3.28x/1.58x "
        "(SK Hynix/Micron/Samsung/Nanya); 99% of rows improve (Obs. 1-2)"
    )
    return result


def run_fig05(
    scale: Optional[ExperimentScale] = None,
    config_ids: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Fig. 5: CoMRA HC_first across the four data patterns."""
    result = ExperimentResult("fig05", "Double-sided CoMRA data-pattern sweep")
    sessions = representative_sessions(
        scale, config_ids if config_ids is not None else REPRESENTATIVE_CONFIGS
    )
    for session in sessions:
        victims = session.candidate_victims()[::2]
        per_pattern: dict[str, list[float]] = defaultdict(list)
        for pattern in ALL_PATTERNS:
            for m in session.measure_comra_ds(victims, pattern=pattern):
                if m.found:
                    per_pattern[pattern.value].append(m.hc_first)
        vendor = session.module.vendor.value
        best_avg = None
        for pattern_name, values in per_pattern.items():
            summary = DistributionSummary.from_values(values)
            result.rows.append(
                {
                    "vendor": vendor,
                    "pattern": pattern_name,
                    "min": summary.minimum,
                    "median": summary.median,
                    "mean": summary.mean,
                }
            )
            if best_avg is None or summary.mean < best_avg[1]:
                best_avg = (pattern_name, summary.mean)
        if best_avg is not None:
            result.checks[f"best_pattern_is_checker_{vendor}"] = float(
                best_avg[0] in ("0xAA", "0x55")
            )
    result.notes.append(
        "paper Obs. 3: checkerboard is in general the most effective pattern"
    )
    return result


def run_fig06(
    scale: Optional[ExperimentScale] = None,
    config_ids: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Fig. 6: CoMRA HC_first at 50/60/70/80 degC."""
    result = ExperimentResult("fig06", "Double-sided CoMRA temperature sweep")
    sessions = representative_sessions(
        scale, config_ids if config_ids is not None else REPRESENTATIVE_CONFIGS
    )
    temperatures = (50.0, 60.0, 70.0, 80.0)
    for session in sessions:
        vendor = session.module.vendor.value
        victims = session.candidate_victims()[::2]
        means = {}
        for temperature in temperatures:
            session.set_temperature(temperature)
            values = []
            for m in session.measure_comra_ds(victims):
                if m.found:
                    values.append(m.hc_first)
            if values:
                summary = DistributionSummary.from_values(values)
                means[temperature] = summary.mean
                result.rows.append(
                    {
                        "vendor": vendor,
                        "temp_C": temperature,
                        "min": summary.minimum,
                        "mean": summary.mean,
                    }
                )
        session.set_temperature(80.0)
        if 50.0 in means and 80.0 in means and means[80.0] > 0:
            result.checks[f"hc_ratio_50C_over_80C_{vendor}"] = (
                means[50.0] / means[80.0]
            )
    result.notes.append(
        "paper Obs. 4: hotter is worse for SK Hynix/Samsung/Nanya "
        "(up to 3.45x); Micron inverts (~1.14x the other way)"
    )
    return result


def run_fig07(
    scale: Optional[ExperimentScale] = None,
    config_ids: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Fig. 7: single-sided CoMRA vs single-sided and far double-sided RH."""
    result = ExperimentResult(
        "fig07", "Single-sided CoMRA vs RowHammer vs far double-sided RowHammer"
    )
    sessions = representative_sessions(
        scale, config_ids if config_ids is not None else REPRESENTATIVE_CONFIGS
    )
    for session in sessions:
        vendor = session.module.vendor.value
        geometry = session.module.geometry
        aggressors = [
            v for v in session.candidate_victims()
            if v + 40 < geometry.rows_per_bank
            and geometry.same_subarray(v, v + 40)
        ][::2]
        buckets: dict[str, list[float]] = {"ss-comra": [], "ss-rowhammer": [],
                                           "far-ds-rowhammer": []}
        far_pairs = [(aggressor, aggressor + 40) for aggressor in aggressors]
        for group in session.measure_comra_ss(far_pairs):
            buckets["ss-comra"].extend(found_values(group))
        for group in session.measure_rowhammer_ss(aggressors):
            buckets["ss-rowhammer"].extend(found_values(group))
        for group in session.measure_far_ds_rowhammer(far_pairs):
            buckets["far-ds-rowhammer"].extend(found_values(group))
        summaries = {}
        for technique, values in buckets.items():
            if not values:
                continue
            summary = DistributionSummary.from_values(values)
            summaries[technique] = summary
            result.rows.append(
                {
                    "vendor": vendor,
                    "technique": technique,
                    "min": summary.minimum,
                    "median": summary.median,
                    "mean": summary.mean,
                }
            )
        if "ss-comra" in summaries and "ss-rowhammer" in summaries:
            result.checks[f"ss_comra_vs_ss_rh_{vendor}"] = (
                summaries["ss-rowhammer"].minimum / summaries["ss-comra"].minimum
            )
        if "ss-comra" in summaries and "far-ds-rowhammer" in summaries:
            result.checks[f"ss_comra_vs_far_ds_{vendor}"] = (
                summaries["far-ds-rowhammer"].mean / summaries["ss-comra"].mean
            )
    result.notes.append(
        "paper Obs. 5: single-sided CoMRA beats single-sided RowHammer "
        "(e.g. 1.42x in SK Hynix) and tracks far double-sided RowHammer (~1.02x)"
    )
    return result


def run_fig08(
    scale: Optional[ExperimentScale] = None,
    config_ids: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Fig. 8: CoMRA vs RowPress across tAggOn values."""
    result = ExperimentResult("fig08", "Double-sided CoMRA vs RowPress (tAggOn)")
    sessions = representative_sessions(
        scale, config_ids if config_ids is not None else REPRESENTATIVE_CONFIGS
    )
    t_agg_on_values = (36.0, 144.0, 7_800.0, 70_200.0)
    for session in sessions:
        vendor = session.module.vendor.value
        victims = session.candidate_victims()[::3]
        means: dict[tuple[str, float], float] = {}
        for t_agg_on in t_agg_on_values:
            comra_values = found_values(
                session.measure_comra_ds(victims, t_agg_on_ns=t_agg_on)
            )
            press_values = found_values(
                session.measure_rowhammer_ds(victims, t_agg_on_ns=t_agg_on)
            )
            for technique, values in (("comra", comra_values),
                                      ("rowpress", press_values)):
                if not values:
                    continue
                summary = DistributionSummary.from_values(values)
                means[(technique, t_agg_on)] = summary.mean
                result.rows.append(
                    {
                        "vendor": vendor,
                        "technique": technique,
                        "t_agg_on_ns": t_agg_on,
                        "min": summary.minimum,
                        "mean": summary.mean,
                    }
                )
        if ("comra", 36.0) in means and ("comra", 70_200.0) in means:
            result.checks[f"comra_press_gain_{vendor}"] = (
                means[("comra", 36.0)] / means[("comra", 70_200.0)]
            )
        if ("rowpress", 36.0) in means and ("rowpress", 70_200.0) in means:
            result.checks[f"rowpress_gain_{vendor}"] = (
                means[("rowpress", 36.0)] / means[("rowpress", 70_200.0)]
            )
        if ("comra", 7_800.0) in means and ("rowpress", 7_800.0) in means:
            result.checks[f"rowpress_beats_comra_at_trefi_{vendor}"] = (
                means[("comra", 7_800.0)] / means[("rowpress", 7_800.0)]
            )
    result.notes.append(
        "paper Obs. 6-7: 70.2us tAggOn lowers CoMRA's average HC_first "
        "~78.7x (RowPress ~31.2x); at 7.8us RowPress overtakes CoMRA (~1.17x)"
    )
    return result


def run_fig09(
    scale: Optional[ExperimentScale] = None,
    config_ids: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Fig. 9: CoMRA PRE -> ACT latency sweep."""
    result = ExperimentResult("fig09", "Double-sided CoMRA PRE->ACT latency sweep")
    sessions = representative_sessions(
        scale, config_ids if config_ids is not None else REPRESENTATIVE_CONFIGS
    )
    delays = (7.5, 9.0, 10.5, 12.0)
    for session in sessions:
        vendor = session.module.vendor.value
        victims = session.candidate_victims()[::2]
        means = {}
        for delay in delays:
            values = found_values(
                session.measure_comra_ds(victims, pre_to_act_ns=delay)
            )
            if values:
                summary = DistributionSummary.from_values(values)
                means[delay] = summary.mean
                result.rows.append(
                    {
                        "vendor": vendor,
                        "pre_to_act_ns": delay,
                        "min": summary.minimum,
                        "mean": summary.mean,
                    }
                )
        if 7.5 in means and 12.0 in means and means[7.5] > 0:
            result.checks[f"hc_increase_7p5_to_12_{vendor}"] = (
                means[12.0] / means[7.5]
            )
    result.notes.append(
        "paper Obs. 8: average HC_first rises 3.10x/1.18x/1.17x/3.01x from "
        "7.5 ns to 12 ns (SK Hynix/Micron/Samsung/Nanya)"
    )
    return result


def run_fig10(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Fig. 10: effect of reversing the copy direction."""
    result = ExperimentResult("fig10", "CoMRA copy-direction reversal")
    sessions = representative_sessions(scale)
    ds_changes: list[float] = []
    ss_changes: list[float] = []
    for session in sessions:
        geometry = session.module.geometry
        victims = session.candidate_victims()[::2]
        forward_many = session.measure_comra_ds(victims)
        backward_many = session.measure_comra_ds(victims, reverse=True)
        for forward, backward in zip(forward_many, backward_many):
            if forward.found and backward.found:
                ds_changes.append(
                    100.0 * (backward.hc_first - forward.hc_first) / forward.hc_first
                )
        eligible = [
            victim for victim in victims
            if victim + 40 < geometry.rows_per_bank
            and geometry.same_subarray(victim, victim + 40)
        ]
        shared = [list(geometry.neighbors(victim, 1)) for victim in eligible]
        forward_ss = session.measure_comra_ss(
            [(victim, victim + 40) for victim in eligible], victims=shared
        )
        backward_ss = session.measure_comra_ss(
            [(victim + 40, victim) for victim in eligible], victims=shared
        )
        for f_group, b_group in zip(forward_ss, backward_ss):
            f = found_values(f_group)
            b = found_values(b_group)
            if f and b:
                ss_changes.append(100.0 * (b[0] - f[0]) / f[0])
    for sided, changes in (("double", ds_changes), ("single", ss_changes)):
        if not changes:
            continue
        arr = np.abs(np.asarray(changes))
        result.rows.append(
            {
                "sided": sided,
                "median_abs_change_pct": float(np.median(arr)),
                "mean_abs_change_pct": float(arr.mean()),
                "max_abs_change_pct": float(arr.max()),
                "rows": len(changes),
            }
        )
        # the typical row barely moves; a small tail can swing wildly
        # (up to 20.1x, Obs. 9), so the headline statistic is the median
        result.checks[f"median_abs_change_pct_{sided}"] = float(np.median(arr))
        result.checks[f"max_abs_change_pct_{sided}"] = float(arr.max())
    result.notes.append(
        "paper Obs. 9: average change 2.79% (double) / 0.40% (single); a "
        "small fraction of rows shows large asymmetry (up to 20.1x)"
    )
    return result


def run_fig11(
    scale: Optional[ExperimentScale] = None,
    config_ids: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Fig. 11: CoMRA HC_first by victim location in the subarray."""
    result = ExperimentResult("fig11", "Double-sided CoMRA spatial variation")
    # spatial bins need denser row coverage than the default step
    scale = (scale or ExperimentScale.default()).with_overrides(row_step=5)
    sessions = representative_sessions(
        scale, config_ids if config_ids is not None else REPRESENTATIVE_CONFIGS
    )
    for session in sessions:
        vendor = session.module.vendor.value
        by_region: dict[str, list[float]] = defaultdict(list)
        victims = session.candidate_victims()
        for m in session.measure_comra_ds(victims):
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
                    "vendor": vendor,
                    "region": region.value,
                    "min": summary.minimum,
                    "mean": summary.mean,
                    "rows": summary.count,
                }
            )
        if means:
            result.checks[f"spatial_span_{vendor}"] = (
                max(means.values()) / min(means.values())
            )
    result.notes.append(
        "paper Obs. 10: spatial spans up to 1.40x/2.25x/2.57x/1.04x "
        "(SK Hynix/Micron/Samsung/Nanya); trends differ per vendor (Obs. 11)"
    )
    return result
