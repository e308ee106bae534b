"""Factory helpers that build the paper's chip population (Tables 1 and 2).

The paper tests 316 chips across 40 modules in 14 configurations.  A full
population is available for paper-scale runs; scaled populations (one module
per configuration, smaller subarrays) keep the default test/benchmark
runtime reasonable.  See :class:`ExperimentScale` in :mod:`repro.core` for
the knobs experiments expose.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..disturbance.calibration import (
    MODULE_CALIBRATIONS,
    ModuleCalibration,
    Vendor,
    module_calibration,
)
from .module import DramModule
from .organization import ModuleGeometry


def scaled_geometry(
    calibration: ModuleCalibration,
    rows_per_subarray: int = 96,
    subarrays_per_bank: int = 6,
    columns: int = 1024,
    banks: int = 2,
) -> ModuleGeometry:
    """Geometry for a scaled simulation of one module configuration.

    ``rows_per_subarray`` must stay a multiple of 32 so SiMRA's aligned
    32-row decoder blocks never straddle a subarray boundary.
    """
    if rows_per_subarray % 32:
        raise ValueError("rows_per_subarray must be a multiple of 32")
    return ModuleGeometry(
        banks=banks,
        subarrays_per_bank=subarrays_per_bank,
        rows_per_subarray=rows_per_subarray,
        columns=columns,
    )


def paper_geometry(calibration: ModuleCalibration) -> ModuleGeometry:
    """Geometry matching the configuration's reverse-engineered subarrays."""
    return ModuleGeometry(
        banks=4,
        subarrays_per_bank=6,
        rows_per_subarray=calibration.subarray_size,
        columns=8192,
    )


def make_module(
    config_id: str,
    serial: int = 0,
    geometry: Optional[ModuleGeometry] = None,
    **geometry_overrides: int,
) -> DramModule:
    """Instantiate one simulated module of a Table 2 configuration."""
    calibration = module_calibration(config_id)
    if geometry is None:
        geometry = scaled_geometry(calibration, **geometry_overrides)
    return DramModule(calibration, geometry=geometry, serial=serial)


def build_population(
    vendors: Optional[Iterable[Vendor]] = None,
    modules_per_config: int = 1,
    geometry: Optional[ModuleGeometry] = None,
    config_ids: Optional[Iterable[str]] = None,
    **geometry_overrides: int,
) -> list[DramModule]:
    """Build a module population, by default one module per configuration.

    ``modules_per_config`` can be raised up to the real counts for
    paper-scale statistics; serial numbers make each module a distinct
    (deterministic) chip sample.
    """
    wanted_vendors = set(vendors) if vendors is not None else None
    wanted_configs = set(config_ids) if config_ids is not None else None
    modules: list[DramModule] = []
    for calibration in MODULE_CALIBRATIONS:
        if wanted_vendors is not None and calibration.vendor not in wanted_vendors:
            continue
        if wanted_configs is not None and calibration.config_id not in wanted_configs:
            continue
        count = min(modules_per_config, calibration.n_modules) or 1
        for serial in range(count):
            modules.append(
                make_module(
                    calibration.config_id,
                    serial=serial,
                    geometry=geometry,
                    **geometry_overrides,
                )
            )
    return modules


def simra_capable_modules(modules: Iterable[DramModule]) -> list[DramModule]:
    """Filter a population to SiMRA-capable chips (SK Hynix only, §5.3)."""
    return [m for m in modules if m.supports_simra]
