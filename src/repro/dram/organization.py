"""Geometry of a simulated DRAM module.

The hierarchy mirrors Fig. 1 of the paper: channel > module > rank > chip >
bank > subarray > row > cell.  For characterization purposes the unit we
simulate is a *module* (the paper's results are reported per module/chip
population); the chips of a module behave as bit-slices of the same rows, so
a single logical row array per bank is sufficient and is what the testing
infrastructure observes through the x8/x16 data bus.

Row counts are scaled: a real 8 Gb bank has 65536 or 131072 rows, which is
wasteful to simulate when experiments only ever touch six subarrays per bank.
:class:`ModuleGeometry` lets callers choose the number of subarrays and rows
per subarray while keeping addressing arithmetic identical to real devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import AddressError


class SubarrayRegion(str, Enum):
    """Victim-row location bins within a subarray (PuDHammer §4.2).

    The paper splits a subarray into five equal 20% bins to study spatial
    variation (Figs. 11 and 19).
    """

    BEGINNING = "beginning"
    BEGINNING_MIDDLE = "beginning-middle"
    MIDDLE = "middle"
    MIDDLE_END = "middle-end"
    END = "end"


#: Region bins in subarray order.
REGION_ORDER = (
    SubarrayRegion.BEGINNING,
    SubarrayRegion.BEGINNING_MIDDLE,
    SubarrayRegion.MIDDLE,
    SubarrayRegion.MIDDLE_END,
    SubarrayRegion.END,
)


def region_of(index_in_subarray: int, rows_per_subarray: int) -> SubarrayRegion:
    """Map a row's offset within its subarray to one of the five regions."""
    if not 0 <= index_in_subarray < rows_per_subarray:
        raise AddressError(
            f"row offset {index_in_subarray} outside subarray of "
            f"{rows_per_subarray} rows"
        )
    bin_index = index_in_subarray * 5 // rows_per_subarray
    return REGION_ORDER[min(bin_index, 4)]


@dataclass(frozen=True)
class ModuleGeometry:
    """Shape of one simulated module.

    Attributes
    ----------
    banks:
        Banks per module (DDR4 x8 chips expose 16 banks; we default to 4
        since experiments use a single bank and its neighbors).
    subarrays_per_bank:
        Number of subarrays simulated per bank.  Real banks have dozens to
        hundreds; the paper tests six per bank.
    rows_per_subarray:
        Rows in each subarray.  Real DDR4 subarrays have 512--1024 rows
        (Table 2 reports the reverse-engineered sizes); tests default to a
        scaled-down value.
    columns:
        Cells per row observed through the module interface.  A real 8 KiB
        row is scaled down by default; the fault model expresses flip counts
        as fractions so results are invariant to this knob.
    """

    banks: int = 4
    subarrays_per_bank: int = 6
    rows_per_subarray: int = 96
    columns: int = 1024

    def __post_init__(self) -> None:
        if self.banks < 1 or self.subarrays_per_bank < 1:
            raise AddressError("module must have at least one bank/subarray")
        if self.rows_per_subarray < 10:
            raise AddressError("subarrays need >= 10 rows for 5 region bins")
        if self.columns % 8:
            raise AddressError("columns must be a multiple of 8 (byte-wide IO)")

    @property
    def rows_per_bank(self) -> int:
        return self.subarrays_per_bank * self.rows_per_subarray

    @property
    def row_bytes(self) -> int:
        return self.columns // 8

    # ------------------------------------------------------------------
    # Address arithmetic (all in *physical* row space)
    # ------------------------------------------------------------------
    def check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.banks:
            raise AddressError(f"bank {bank} out of range [0, {self.banks})")

    def check_row(self, row: int) -> None:
        if not 0 <= row < self.rows_per_bank:
            raise AddressError(
                f"row {row} out of range [0, {self.rows_per_bank})"
            )

    def subarray_of(self, row: int) -> int:
        """Index of the subarray containing a physical row."""
        self.check_row(row)
        return row // self.rows_per_subarray

    def offset_in_subarray(self, row: int) -> int:
        """Row offset within its subarray."""
        self.check_row(row)
        return row % self.rows_per_subarray

    def region_of_row(self, row: int) -> SubarrayRegion:
        """Spatial region bin of a physical row."""
        return region_of(self.offset_in_subarray(row), self.rows_per_subarray)

    def same_subarray(self, row_a: int, row_b: int) -> bool:
        return self.subarray_of(row_a) == self.subarray_of(row_b)

    def subarray_rows(self, subarray: int) -> range:
        """Physical row indices of one subarray."""
        if not 0 <= subarray < self.subarrays_per_bank:
            raise AddressError(
                f"subarray {subarray} out of range [0, {self.subarrays_per_bank})"
            )
        start = subarray * self.rows_per_subarray
        return range(start, start + self.rows_per_subarray)

    @lru_cache(maxsize=None)
    def neighbors(self, row: int, distance: int = 1) -> tuple[int, ...]:
        """Physically adjacent rows at ``distance`` within the same subarray.

        Read disturbance does not cross subarray boundaries in this model:
        the sense-amplifier stripes between subarrays isolate wordline
        coupling, consistent with the paper testing victims within the
        aggressors' subarray.  Memoized: deposit-plan builds ask for the
        same (row, distance) pairs for every translated trace.
        """
        self.check_row(row)
        result = []
        for candidate in (row - distance, row + distance):
            if 0 <= candidate < self.rows_per_bank and self.same_subarray(row, candidate):
                result.append(candidate)
        return tuple(result)
