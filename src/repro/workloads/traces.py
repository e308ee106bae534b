"""Deterministic synthetic trace generation from workload profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..disturbance.distributions import rng_for
from .profiles import WorkloadProfile

#: rows per bank a trace addresses by default; the memory-system kernel
#: sizes its PRAC counter table to it
ROWS_PER_BANK = 4096


@dataclass(frozen=True)
class TraceEntry:
    """One memory request in a core's instruction stream."""

    gap_instructions: int
    bank: int
    row: int
    is_write: bool


class TraceGenerator:
    """Infinite deterministic request stream for one workload profile.

    Requests follow the profile's statistics: geometric instruction gaps
    with mean ``1000 / mpki``, row-buffer locality as the probability of
    reusing the previous row on the same bank, and a bounded working set
    of rows per bank.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        rows_per_bank: int = ROWS_PER_BANK,
        working_set_rows: int = 512,
    ) -> None:
        self.profile = profile
        self.rows_per_bank = rows_per_bank
        self.working_set_rows = min(working_set_rows, rows_per_bank)
        self._rng = rng_for("trace", profile.name, seed)
        self._last: dict[int, int] = {}

    def __iter__(self) -> Iterator[TraceEntry]:
        return self

    def __next__(self) -> TraceEntry:
        rng = self._rng
        profile = self.profile
        mean_gap = 1000.0 / profile.mpki
        gap = int(rng.geometric(1.0 / max(1.0, mean_gap)))
        bank = int(rng.integers(0, profile.bank_spread))
        last_row = self._last.get(bank)
        if last_row is not None and rng.random() < profile.row_locality:
            row = last_row
        else:
            row = int(rng.integers(0, self.working_set_rows))
        self._last[bank] = row
        is_write = bool(rng.random() > profile.read_fraction)
        return TraceEntry(gap, bank, row, is_write)
