"""High-level Processing-using-DRAM operations.

:class:`PudEngine` wraps a module + DRAM Bender host and exposes the PuD
operations the paper's introduction motivates (§2.3):

* in-DRAM data copy (RowClone / CoMRA) within a subarray,
* multi-row copy (one source to up to 31 destinations via SiMRA),
* fractional-value writes (FracDRAM) and MAJ/AND/OR bulk bitwise ops,
* true random number generation from SiMRA charge-sharing ties
  (QUAC-TRNG).

All operations run through the command-level interface, so every PuD op a
user performs also exercises the read-disturbance model -- exactly the
interaction PuDHammer characterizes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..bender.host import DramBenderHost
from ..bender.program import ProgramBuilder
from ..core.patterns import (
    COMRA_DELAY_NS,
    SIMRA_ACT_TO_PRE_NS,
    SIMRA_PRE_TO_ACT_NS,
)
from ..dram.errors import AddressError, UnsupportedOperationError
from ..dram.module import DramModule


class PudEngine:
    """Executes PuD operations on one simulated module."""

    def __init__(self, module: DramModule, bank: int = 0) -> None:
        self.module = module
        self.bank = bank
        self.host = DramBenderHost(module)

    # ------------------------------------------------------------------
    # Row IO
    # ------------------------------------------------------------------
    def write(self, row: int, data: np.ndarray) -> None:
        """Write a physical row through the command interface."""
        self.host.write_rows(
            self.bank, {self.module.to_logical(row): np.asarray(data, np.uint8)}
        )

    def read(self, row: int) -> np.ndarray:
        """Read a physical row through the command interface."""
        logical = self.module.to_logical(row)
        return self.host.read_rows(self.bank, [logical])[logical]

    def write_bits(self, row: int, bits: np.ndarray) -> None:
        self.write(row, np.packbits(np.asarray(bits, dtype=np.uint8)))

    # ------------------------------------------------------------------
    # RowClone (CoMRA)
    # ------------------------------------------------------------------
    def copy(self, src: int, dst: int, check_subarray: bool = True) -> None:
        """In-DRAM copy of ``src`` into ``dst`` (same subarray).

        Issues the Fig. 3c sequence: ACT src -> tRAS -> PRE -> violated
        7.5 ns -> ACT dst -> tRAS -> PRE.  With ``check_subarray=False``
        the sequence is issued blindly (a cross-subarray attempt silently
        fails on the device) -- what the subarray reverse-engineering probe
        relies on.
        """
        if src == dst:
            raise AddressError(f"RowClone source and destination alias row {src}")
        if check_subarray and not self.module.geometry.same_subarray(src, dst):
            raise AddressError(
                f"RowClone requires same-subarray rows; {src} and {dst} differ"
            )
        timing = self.module.timing
        program = (
            ProgramBuilder("rowclone")
            .act(self.bank, self.module.to_logical(src), timing.tRP)
            .pre(self.bank, timing.tRAS)
            .act(self.bank, self.module.to_logical(dst), COMRA_DELAY_NS)
            .pre(self.bank, timing.tRAS)
            .build()
        )
        self.host.run(program)

    def multi_copy(self, src: int, destination_count: int) -> tuple[int, ...]:
        """Copy ``src`` into a whole SiMRA group (up to 31 destinations).

        The source is fully sensed, then an ACT-PRE-ACT trigger opens the
        group; the bitlines still carry the source data, which latches into
        every activated row.  Returns the destination rows written.
        """
        if not self.module.supports_simra:
            raise UnsupportedOperationError(
                f"{self.module.vendor.value} chips do not expose SiMRA"
            )
        n_rows = destination_count + 1
        if n_rows not in (2, 4, 8, 16, 32):
            raise AddressError(
                "destination_count + 1 must be a power of two in 2..32"
            )
        group = self._contiguous_group_containing(src, n_rows)
        timing = self.module.timing
        trigger = group[-1] if group[-1] != src else group[0]
        program = (
            ProgramBuilder("multi-copy")
            .act(self.bank, self.module.to_logical(src), timing.tRP)
            .pre(self.bank, timing.tRAS)
            .act(self.bank, self.module.to_logical(trigger), SIMRA_PRE_TO_ACT_NS)
            .pre(self.bank, timing.tRAS)
            .build()
        )
        self.host.run(program)
        return tuple(r for r in group if r != src)

    def _contiguous_group_containing(self, row: int, n_rows: int) -> tuple[int, ...]:
        base = (row // n_rows) * n_rows
        group = self.module.banks[self.bank].simra_group(base, base + n_rows - 1)
        if group is None or row not in group or len(group) != n_rows:
            raise AddressError(
                f"no {n_rows}-row decoder group contains row {row}"
            )
        self._check_group_subarray(group)
        return group

    def _check_group_subarray(self, group: Sequence[int]) -> None:
        """Reject row groups that straddle a subarray boundary.

        Co-activation only shares charge among rows on the same local
        bitlines; a group crossing into the next subarray would silently
        compute on half the rows.  Default geometries keep 32-row decoder
        blocks subarray-aligned, but scaled/overridden geometries need not.
        """
        geometry = self.module.geometry
        subarrays = {geometry.subarray_of(row) for row in group}
        if len(subarrays) > 1:
            raise AddressError(
                f"row group {tuple(group)} spans subarrays "
                f"{tuple(sorted(subarrays))}; co-activation requires one "
                "subarray"
            )

    # ------------------------------------------------------------------
    # FracDRAM fractional values
    # ------------------------------------------------------------------
    def write_fractional(self, row: int) -> None:
        """Leave a row's cells at ~VDD/2 (FracDRAM).

        Writes all-ones, then interrupts the charge restoration with an
        early precharge inside the fractional window.
        """
        self.write(row, np.full(self.module.geometry.row_bytes, 0xFF, np.uint8))
        program = (
            ProgramBuilder("frac-write")
            .act(self.bank, self.module.to_logical(row), self.module.timing.tRP)
            .pre(self.bank, 10.5)  # interrupt restoration mid-way
            .build()
        )
        self.host.run(program)

    # ------------------------------------------------------------------
    # Bulk bitwise operations (Ambit/ComputeDRAM/FracDRAM style)
    # ------------------------------------------------------------------
    def simultaneous_activate(self, row_a: int, row_b: int) -> tuple[int, ...]:
        """Issue the ACT-PRE-ACT trigger and return the activated group."""
        if not self.module.supports_simra:
            raise UnsupportedOperationError(
                f"{self.module.vendor.value} chips do not expose SiMRA"
            )
        if row_a == row_b:
            raise AddressError(
                f"simultaneous activation needs two distinct rows, got "
                f"{row_a} twice"
            )
        group = self.module.banks[self.bank].simra_group(row_a, row_b)
        if group is None:
            raise AddressError(f"rows {row_a}/{row_b} share no decoder group")
        self._check_group_subarray(group)
        timing = self.module.timing
        program = (
            ProgramBuilder("simra-op")
            .act(self.bank, self.module.to_logical(row_a), timing.tRP)
            .pre(self.bank, SIMRA_ACT_TO_PRE_NS)
            .act(self.bank, self.module.to_logical(row_b), SIMRA_PRE_TO_ACT_NS)
            .pre(self.bank, timing.tRAS)
            .build()
        )
        self.host.run(program)
        return group

    def majority(self, operand_rows: Sequence[int], group_size: int = 4) -> np.ndarray:
        """Bitwise MAJ of an odd number of operands (MAJ3/5/7/...).

        Operands are copied into a 2^k decoder group padded with one
        fractional row (FracDRAM's trick turns an even group into an odd
        majority).  The result lands in every group row; the first is read
        back.  Destroys the group's contents, as real SiMRA does.
        """
        k = len(operand_rows)
        if k % 2 == 0:
            raise AddressError("majority needs an odd operand count")
        if k + 1 > group_size or group_size not in (2, 4, 8, 16, 32):
            raise AddressError(
                f"{k} operands do not fit a {group_size}-row group with a "
                "fractional pad"
            )
        self._check_operands(operand_rows)
        group = self._scratch_group(group_size, avoid=operand_rows)
        # Load operands into the group via RowClone, pad with frac rows.
        for slot, operand in zip(group, operand_rows):
            self.copy(operand, slot)
        for slot in group[k:]:
            self.write_fractional(slot)
        self.simultaneous_activate(group[0], group[-1])
        return self.read(group[0])

    def and_(self, row_a: int, row_b: int) -> np.ndarray:
        """Bitwise AND via MAJ3(A, B, 0)."""
        return self._two_input(row_a, row_b, fill=0x00)

    def or_(self, row_a: int, row_b: int) -> np.ndarray:
        """Bitwise OR via MAJ3(A, B, 1)."""
        return self._two_input(row_a, row_b, fill=0xFF)

    def _check_operands(self, operand_rows: Sequence[int]) -> None:
        """Reject aliased or cross-subarray operand sets up front.

        The bulk ops destructively copy operands into a scratch group; a
        duplicated operand would silently weight one row double, and a
        cross-subarray operand would fail its RowClone *after* earlier
        operands were already staged.  Both are caught before any command
        is issued.
        """
        if len(set(operand_rows)) != len(operand_rows):
            raise AddressError(
                f"operand rows {tuple(operand_rows)} alias each other"
            )
        geometry = self.module.geometry
        subarrays = {geometry.subarray_of(row) for row in operand_rows}
        if len(subarrays) > 1:
            raise AddressError(
                f"operand rows {tuple(operand_rows)} span subarrays "
                f"{tuple(sorted(subarrays))}; bulk ops stage operands via "
                "same-subarray RowClone"
            )

    def _two_input(self, row_a: int, row_b: int, fill: int) -> np.ndarray:
        self._check_operands((row_a, row_b))
        group = self._scratch_group(4, avoid=(row_a, row_b))
        self.copy(row_a, group[0])
        self.copy(row_b, group[1])
        self.write(group[2], np.full(self.module.geometry.row_bytes, fill, np.uint8))
        self.write_fractional(group[3])
        self.simultaneous_activate(group[0], group[3])
        return self.read(group[0])

    def _scratch_group(
        self, n_rows: int, avoid: Sequence[int] = ()
    ) -> tuple[int, ...]:
        """A decoder group in the operands' subarray to compute in.

        Uses the tail of the subarray as the compute region -- the layout
        §8.1's "separating PuD-enabled rows" countermeasure formalizes.
        """
        geometry = self.module.geometry
        subarray = geometry.subarray_of(avoid[0]) if avoid else 0
        rows = geometry.subarray_rows(subarray)
        for base in range(rows.stop - n_rows, rows.start - 1, -n_rows):
            group = self.module.banks[self.bank].simra_group(base, base + n_rows - 1)
            if group is None or len(group) != n_rows:
                continue
            if any(r in avoid for r in group):
                continue
            return group
        raise AddressError(f"no free {n_rows}-row scratch group in subarray")


def reference_majority(bit_rows: Sequence[np.ndarray]) -> np.ndarray:
    """Software majority of bit arrays (ground truth for tests/examples)."""
    stack = np.stack([np.asarray(b) for b in bit_rows])
    return (stack.sum(axis=0) * 2 > stack.shape[0]).astype(np.uint8)
