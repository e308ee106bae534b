"""Vectorized row-population engine: subarray-sized profile tables.

A per-row sampler would make ~40 scalar RNG draws and build five dicts
*per row*; subarray scans in the Fig. 4-24 experiments would pay that
thousands of times.  This module samples whole subarrays at once as
structure-of-arrays tables: one bulk numpy draw per *purpose* (hc_ref,
comra ratio, each eta pair, ...) covers every row of the subarray.

Determinism: each purpose draws from its own counter-based stream keyed
``(config_id, serial, bank, subarray, purpose)`` via
:func:`~repro.disturbance.distributions.rng_for`.  A given module serial
therefore always produces the same population table, independent of the
order rows are first touched (the old per-row keying had the same property
at ~40x the RNG dispatch cost).  Row order within a purpose's array is
physical-row order, so individual rows are also stable.

Sentinel rows are pinned *after* bulk sampling: the table materializes the
row's :class:`~repro.disturbance.model.RowProfile` view, applies the
model's scalar ``_pin_sentinel`` logic to it, and writes the pinned scalars
back into the arrays, so vectorized oracles observe pinned values too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import math

import numpy as np

from .calibration import (
    ALL_PATTERNS,
    DataPattern,
    Mechanism,
    SIMRA_COUNTS,
    SIMRA_PROB_BETTER,
)
from .distributions import Lognormal, rng_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .model import DisturbanceModel, RowProfile


@dataclass
class PopulationTable:
    """Structure-of-arrays profile table for one (bank, subarray).

    Every array has one element per row of the subarray, indexed by the
    row's offset within it.  Dict-valued :class:`RowProfile` fields become
    dicts of arrays (one array per mechanism / pattern / eta pair / SiMRA
    count), which keeps per-row views cheap and lets the analytic oracles
    operate on whole subarrays without materializing profiles at all.
    """

    bank: int
    subarray: int
    row_start: int
    hc_ref: np.ndarray
    ss_penalty: np.ndarray
    comra_ratio: np.ndarray
    direction_ratio: dict[Mechanism, np.ndarray]
    temp_slope: dict[Mechanism, np.ndarray]
    eta: dict[tuple[Mechanism, Mechanism], np.ndarray]
    region_index: np.ndarray
    partial_susceptible: np.ndarray
    pattern_noise: dict[DataPattern, np.ndarray]
    copy_dir_noise: dict[bool, np.ndarray]
    press_noise: np.ndarray
    weak_cells: np.ndarray
    retention_ns: np.ndarray
    simra_ratio: dict[int, np.ndarray]

    def view(self, offset: int) -> "RowProfile":
        """Materialize one row's :class:`RowProfile` from the table."""
        from .model import RowProfile

        return RowProfile(
            hc_ref=float(self.hc_ref[offset]),
            ss_penalty=float(self.ss_penalty[offset]),
            comra_ratio=float(self.comra_ratio[offset]),
            direction_ratio={
                mech: float(arr[offset])
                for mech, arr in self.direction_ratio.items()
            },
            temp_slope={
                mech: float(arr[offset]) for mech, arr in self.temp_slope.items()
            },
            eta={pair: float(arr[offset]) for pair, arr in self.eta.items()},
            region_index=int(self.region_index[offset]),
            partial_susceptible=bool(self.partial_susceptible[offset]),
            pattern_noise={
                pattern: float(arr[offset])
                for pattern, arr in self.pattern_noise.items()
            },
            copy_dir_noise={
                forward: float(arr[offset])
                for forward, arr in self.copy_dir_noise.items()
            },
            press_noise=float(self.press_noise[offset]),
            weak_cells=int(self.weak_cells[offset]),
            retention_ns=float(self.retention_ns[offset]),
            simra_ratio={
                count: float(arr[offset])
                for count, arr in self.simra_ratio.items()
            },
        )

    def write_back(self, offset: int, prof: "RowProfile") -> None:
        """Store a (mutated) profile view's scalars back into the arrays."""
        self.hc_ref[offset] = prof.hc_ref
        self.ss_penalty[offset] = prof.ss_penalty
        self.comra_ratio[offset] = prof.comra_ratio
        for mech, arr in self.direction_ratio.items():
            arr[offset] = prof.direction_ratio[mech]
        for mech, arr in self.temp_slope.items():
            arr[offset] = prof.temp_slope[mech]
        for pair, arr in self.eta.items():
            arr[offset] = prof.eta[pair]
        self.partial_susceptible[offset] = prof.partial_susceptible
        for pattern, arr in self.pattern_noise.items():
            arr[offset] = prof.pattern_noise[pattern]
        for forward, arr in self.copy_dir_noise.items():
            arr[offset] = prof.copy_dir_noise[forward]
        self.press_noise[offset] = prof.press_noise
        self.weak_cells[offset] = prof.weak_cells
        self.retention_ns[offset] = prof.retention_ns
        for count, arr in self.simra_ratio.items():
            arr[offset] = prof.simra_ratio[count]


def sample_population(
    model: "DisturbanceModel", bank: int, subarray: int
) -> PopulationTable:
    """Sample one subarray's population table with bulk draws.

    Each purpose pulls from its own ``(config_id, serial, bank, subarray,
    purpose)`` stream so fields stay independent.
    """
    cal = model.calibration
    vc = model.vendor_cal
    geom = model.geometry
    n = geom.rows_per_subarray
    row_start = subarray * n

    def stream(*purpose: object) -> np.random.Generator:
        return rng_for(cal.config_id, model.serial, bank, subarray, *purpose)

    # Table 2's minima are *population* minima: no sampled row may
    # undershoot them (the sentinel rows sit exactly on them).
    hc_ref = np.maximum(
        np.asarray(model._hc_dist.sample(stream("hc-ref"), n), dtype=float),
        0.95 * cal.rh_min,
    )
    comra_ratio = np.minimum(
        np.asarray(
            model._comra_ratio_dist.sample(stream("comra-ratio"), n), dtype=float
        ),
        hc_ref / (0.95 * cal.comra_min),
    )
    ss_penalty = np.asarray(
        Lognormal(math.log(vc.ss_penalty_median), vc.ss_penalty_sigma).sample(
            stream("ss-penalty"), n
        ),
        dtype=float,
    )
    direction_ratio = {
        mech: np.asarray(
            Lognormal(
                math.log(vc.direction_ratio_median[mech]),
                vc.direction_ratio_sigma[mech],
            ).sample(stream("direction-ratio", mech.value), n),
            dtype=float,
        )
        for mech in Mechanism
    }
    temp_slope = {
        mech: stream("temp-slope", mech.value).normal(
            vc.temp_slope_mean.get(mech, 0.0), vc.temp_slope_sd.get(mech, 0.0), n
        )
        for mech in Mechanism
    }
    eta: dict[tuple[Mechanism, Mechanism], np.ndarray] = {}
    for pair, mean in vc.eta_mean.items():
        rng = stream("eta", pair[0].value, pair[1].value)
        noise = rng.lognormal(0.0, vc.eta_sigma, n)
        value = np.minimum(0.9, mean * noise)
        if pair[0] is Mechanism.SIMRA:
            value[rng.random(n) < vc.eta_simra_zero_prob] = 0.0
        eta[pair] = value

    offsets = np.arange(n)
    region_index = np.minimum(offsets * 5 // n, 4)
    partial_susceptible = stream("simra-partial").random(n) < vc.simra_partial_prob
    pattern_noise = {
        pattern: stream("pattern-noise", pattern.value).lognormal(0.0, 0.08, n)
        for pattern in ALL_PATTERNS
    }
    copy_dir_noise = {}
    for forward in (True, False):
        rng = stream("copy-dir", forward)
        tail = rng.random(n) < vc.copy_direction_tail_prob
        copy_dir_noise[forward] = np.where(
            tail,
            rng.lognormal(0.0, vc.copy_direction_tail_sigma, n),
            rng.lognormal(0.0, vc.copy_direction_sigma, n),
        )
    press_noise = stream("press-noise").lognormal(0.0, 0.12, n)
    weak_cells = np.maximum(
        8,
        (
            geom.columns
            * vc.weak_cell_fraction
            * stream("weak-cells").uniform(0.6, 1.4, n)
        ).astype(int),
    )
    retention_ns = np.asarray(
        Lognormal(math.log(vc.retention_median_ns), vc.retention_sigma).sample(
            stream("retention"), n
        ),
        dtype=float,
    )

    simra_ratio: dict[int, np.ndarray] = {}
    for count in SIMRA_COUNTS:
        if model._simra_mixture is None:
            simra_ratio[count] = np.ones(n)
            continue
        rng = stream("simra-ratio", count)
        ratio = model._simra_mixture.sample_array(rng, n)
        # Obs. 12's tail: some victims regress under SiMRA.
        prob_better = SIMRA_PROB_BETTER.get(count, 0.95)
        regressed = rng.random(n) > prob_better
        ratio = np.where(
            regressed, rng.uniform(0.55, 0.98, n), np.maximum(ratio, 1.001)
        )
        if cal.simra_min:
            ratio = np.minimum(ratio, hc_ref / (0.95 * cal.simra_min))
        simra_ratio[count] = ratio

    table = PopulationTable(
        bank=bank,
        subarray=subarray,
        row_start=row_start,
        hc_ref=hc_ref,
        ss_penalty=ss_penalty,
        comra_ratio=comra_ratio,
        direction_ratio=direction_ratio,
        temp_slope=temp_slope,
        eta=eta,
        region_index=region_index,
        partial_susceptible=partial_susceptible,
        pattern_noise=pattern_noise,
        copy_dir_noise=copy_dir_noise,
        press_noise=press_noise,
        weak_cells=weak_cells,
        retention_ns=retention_ns,
        simra_ratio=simra_ratio,
    )

    # Pin sentinels through the model's scalar logic, then write the
    # pinned values back so array oracles see them.
    for (b, row), mechanism in model._sentinels.items():
        if b != bank or not row_start <= row < row_start + n:
            continue
        offset = row - row_start
        prof = table.view(offset)
        model._pin_sentinel(prof, mechanism)
        table.write_back(offset, prof)
    return table
