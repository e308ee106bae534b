"""A simulated DRAM module: banks + fault model + row mapping + identity.

The module is the unit the testing infrastructure talks to, mirroring the
paper's setup where one DIMM at a time sits on the FPGA board.  It exposes:

* logical-address command entry points (the mapping translation happens
  here, exactly where a real chip's row decoder does it),
* physical-space helpers for analysis code that has already reverse
  engineered the mapping,
* the module's identity (vendor, die revision, ...) from Table 2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..disturbance.calibration import ModuleCalibration, Vendor
from ..disturbance.model import DisturbanceModel
from ..disturbance.retention import RetentionModel
from .bank import Bank, TrrHook
from .errors import AddressError
from .mapping import RowMapping, make_mapping
from .organization import ModuleGeometry
from .timing import DDR4_2400, TimingParams


class DramModule:
    """One simulated DDR4 module (DIMM)."""

    def __init__(
        self,
        calibration: ModuleCalibration,
        geometry: Optional[ModuleGeometry] = None,
        timing: TimingParams = DDR4_2400,
        serial: int = 0,
    ) -> None:
        self.calibration = calibration
        self.geometry = geometry or ModuleGeometry()
        self.timing = timing
        self.serial = serial
        self.model = DisturbanceModel(self.geometry, calibration, serial)
        self.retention = RetentionModel(self.geometry, calibration, serial)
        self.mapping: RowMapping = make_mapping(
            calibration.mapping_scheme, self.geometry.rows_per_bank
        )
        self.banks = [
            Bank(
                index=i,
                geometry=self.geometry,
                timing=timing,
                model=self.model,
                retention=self.retention,
            )
            for i in range(self.geometry.banks)
        ]

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def vendor(self) -> Vendor:
        return self.calibration.vendor

    @property
    def config_id(self) -> str:
        return self.calibration.config_id

    @property
    def label(self) -> str:
        return f"{self.config_id}#{self.serial}"

    @property
    def supports_simra(self) -> bool:
        return self.model.supports_simra

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DramModule({self.label}, {self.vendor.value} "
            f"{self.calibration.density} die-{self.calibration.die_rev})"
        )

    # ------------------------------------------------------------------
    # Address translation
    # ------------------------------------------------------------------
    def to_physical(self, logical_row: int) -> int:
        return self.mapping.to_physical(logical_row)

    def to_logical(self, physical_row: int) -> int:
        return self.mapping.to_logical(physical_row)

    def bank(self, index: int) -> Bank:
        if not 0 <= index < len(self.banks):
            raise AddressError(f"bank {index} out of range")
        return self.banks[index]

    @property
    def ledger(self):
        """The fault model's damage ledger (module-wide, slot-addressed).

        All banks of a module share one
        :class:`~repro.disturbance.ledger.DamageLedger`; tests and
        benchmarks reach it here instead of chaining through
        ``module.model.ledger``.
        """
        return self.model.ledger

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def set_temperature(self, celsius: float) -> None:
        """Set the chip temperature (heater-pad setpoint reached)."""
        for bank in self.banks:
            bank.temperature_c = celsius

    @property
    def temperature_c(self) -> float:
        return self.banks[0].temperature_c

    def attach_trr(self, trr: Optional[TrrHook]) -> None:
        """Enable/disable the in-DRAM TRR mechanism on every bank."""
        for bank in self.banks:
            bank.trr = trr

    # ------------------------------------------------------------------
    # Host-facing convenience (logical address space, nominal timing)
    # ------------------------------------------------------------------
    def write_row(
        self, bank: int, logical_row: int, data: np.ndarray, now_ns: float = 0.0
    ) -> None:
        self.bank(bank).write_row_direct(self.to_physical(logical_row), data, now_ns)
