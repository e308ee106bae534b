"""Tables 1 and 2: the tested chip population and per-config HC_first.

Table 1 is reproduced directly from the module calibrations (it is the
population definition); Table 2's minimum/average HC_first columns are
*measured* through the full pipeline on the simulated modules and compared
against the paper's reported values.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.scale import ExperimentScale
from ..disturbance.calibration import MODULE_CALIBRATIONS
from .base import ExperimentResult, found_values, population_sessions


def run_table1(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    """Table 1: summary of DDR4 chips tested (population definition)."""
    result = ExperimentResult("table1", "Tested DDR4 chip population")
    total_modules = 0
    total_chips = 0
    for calibration in MODULE_CALIBRATIONS:
        result.rows.append(
            {
                "vendor": calibration.vendor.value,
                "modules": calibration.n_modules,
                "chips": calibration.n_chips,
                "die_rev": calibration.die_rev,
                "density": calibration.density,
                "org": calibration.org,
            }
        )
        total_modules += calibration.n_modules
        total_chips += calibration.n_chips
    result.checks["total_modules"] = total_modules
    result.checks["total_chips"] = total_chips
    result.notes.append("paper: 316 chips in 40 modules from four vendors")
    return result


def run_table2(
    scale: Optional[ExperimentScale] = None,
    config_ids: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Table 2: measured min/avg HC_first per module configuration.

    ``config_ids`` restricts the run to a subset of module configurations;
    the campaign runner uses it to shard the experiment across workers
    (per-config results are independent, so shards merge losslessly).
    """
    result = ExperimentResult(
        "table2", "Per-configuration minimum (average) HC_first"
    )
    sessions = population_sessions(scale, config_ids=config_ids)
    for session in sessions:
        calibration = session.module.calibration
        victims = session.candidate_victims()
        rh_values = found_values(session.measure_rowhammer_ds(victims))
        comra_values = found_values(session.measure_comra_ds(victims))
        simra_values: list[float] = []
        if session.module.supports_simra:
            for count in (2, 4, 8, 16):
                pairs = session.sample_simra_pairs(count)[:3]
                for group in session.measure_simra_ds(pairs, max_victims=2):
                    simra_values.extend(found_values(group))
        row = {
            "config": calibration.config_id,
            "rh_min": min(rh_values) if rh_values else None,
            "rh_min_paper": calibration.rh_min,
            "rh_avg": float(np.mean(rh_values)) if rh_values else None,
            "rh_avg_paper": calibration.rh_avg,
            "comra_min": min(comra_values) if comra_values else None,
            "comra_min_paper": calibration.comra_min,
            "simra_min": min(simra_values) if simra_values else None,
            "simra_min_paper": calibration.simra_min,
        }
        result.rows.append(row)
        if rh_values:
            result.checks[f"rh_min_ratio_{calibration.config_id}"] = (
                min(rh_values) / calibration.rh_min
            )
            result.checks[f"rh_avg_ratio_{calibration.config_id}"] = float(
                np.mean(rh_values) / calibration.rh_avg
            )
        if comra_values:
            result.checks[f"comra_min_ratio_{calibration.config_id}"] = (
                min(comra_values) / calibration.comra_min
            )
        if simra_values and calibration.simra_min:
            result.checks[f"simra_min_ratio_{calibration.config_id}"] = (
                min(simra_values) / calibration.simra_min
            )
    result.notes.append(
        "min columns should match the paper exactly (sentinel rows); "
        "avg columns depend on the sampled row subset"
    )
    return result
