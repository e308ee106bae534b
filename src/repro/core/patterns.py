"""Hammer-pattern program builders (the paper's access patterns).

Each function builds a :class:`~repro.bender.program.TestProgram` that
hammers aggressors for ``count`` iterations (``COUNT`` builds a probe
template, see :mod:`repro.bender.program`).  Inputs are *physical* row
addresses (characterization happens after reverse engineering the mapping,
§3.2); the builders translate to logical addresses for the command stream.

Patterns implemented (paper figure):

* double/single-sided RowHammer and RowPress (Figs. 4, 7, 8)
* far double-sided RowHammer (Fig. 7)
* double/single-sided CoMRA, both copy directions (Figs. 3, 9, 10)
* SiMRA-N, double- and single-sided address pairs (Figs. 12-19)
* one tREFI window of the §7 TRR-bypass round, which
  :meth:`repro.attack.synthesis.AttackSpec.build_round` assembles
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..bender.program import Count, ProgramBuilder, TestProgram
from ..dram.bank import SIMRA_BLOCK
from ..dram.errors import AddressError
from ..dram.module import DramModule

#: Default violated PRE -> ACT delay for CoMRA (§4.2) in nanoseconds.
COMRA_DELAY_NS = 7.5
#: Default violated delays in SiMRA's ACT -> PRE -> ACT (§5.2).
SIMRA_ACT_TO_PRE_NS = 3.0
SIMRA_PRE_TO_ACT_NS = 3.0
#: Nominal row-on time (tRAS).
T_AGG_ON_NOMINAL_NS = 36.0


def _logical(module: DramModule, physical_row: int) -> int:
    return module.to_logical(physical_row)


def victims_of(module: DramModule, rows: Sequence[int]) -> list[int]:
    """Rows at distance 1 or 2 from any of ``rows`` (the model's blast
    radius), ``rows`` themselves excluded, in ascending order."""
    victims: set[int] = set()
    for row in rows:
        for distance in (1, 2):
            victims.update(module.geometry.neighbors(row, distance))
    return sorted(victims - set(rows))


# ----------------------------------------------------------------------
# RowHammer / RowPress
# ----------------------------------------------------------------------
def double_sided_rowhammer(
    module: DramModule,
    victim: int,
    count: Count,
    bank: int = 0,
    t_agg_on_ns: float = T_AGG_ON_NOMINAL_NS,
) -> TestProgram:
    """Alternately hammer the two physical neighbors of ``victim``.

    One iteration (one *hammer*) activates both aggressors once.  With
    ``t_agg_on_ns`` beyond tRAS this is double-sided RowPress (Fig. 8).
    """
    low, high = victim - 1, victim + 1
    if not module.geometry.same_subarray(low, high):
        raise AddressError(f"victim {victim} has no same-subarray sandwich")
    trp = module.timing.tRP
    a1, a2 = _logical(module, low), _logical(module, high)
    body = (
        ProgramBuilder()
        .act(bank, a1, trp)
        .pre(bank, t_agg_on_ns)
        .act(bank, a2, trp)
        .pre(bank, t_agg_on_ns)
    )
    return ProgramBuilder(f"ds-rowhammer@{victim}").loop(count, body).build()


def single_sided_rowhammer(
    module: DramModule,
    aggressor: int,
    count: Count,
    bank: int = 0,
    t_agg_on_ns: float = T_AGG_ON_NOMINAL_NS,
) -> TestProgram:
    """Hammer one aggressor row repeatedly (victims on either side)."""
    a = _logical(module, aggressor)
    trp = module.timing.tRP
    body = ProgramBuilder().act(bank, a, trp).pre(bank, t_agg_on_ns)
    return ProgramBuilder(f"ss-rowhammer@{aggressor}").loop(count, body).build()


def far_double_sided_rowhammer(
    module: DramModule,
    row_a: int,
    row_b: int,
    count: Count,
    bank: int = 0,
    t_agg_on_ns: float = T_AGG_ON_NOMINAL_NS,
) -> TestProgram:
    """Alternate two distant aggressors at nominal timing (Fig. 7 control).

    Identical command stream to single-sided CoMRA except the PRE -> ACT
    delay is the nominal ``tRP``, isolating the copy window's contribution.
    """
    trp = module.timing.tRP
    a1, a2 = _logical(module, row_a), _logical(module, row_b)
    body = (
        ProgramBuilder()
        .act(bank, a1, trp)
        .pre(bank, t_agg_on_ns)
        .act(bank, a2, trp)
        .pre(bank, t_agg_on_ns)
    )
    return ProgramBuilder(f"far-ds-rowhammer@{row_a}/{row_b}").loop(count, body).build()


# ----------------------------------------------------------------------
# CoMRA (consecutive multiple-row activation, §4)
# ----------------------------------------------------------------------
def comra_cycle(
    module: DramModule,
    src: int,
    dst: int,
    count: Count,
    bank: int = 0,
    pre_to_act_ns: float = COMRA_DELAY_NS,
    t_agg_on_ns: float = T_AGG_ON_NOMINAL_NS,
) -> TestProgram:
    """Repeat the three-step in-DRAM copy cycle of Fig. 3c.

    ACT src -> wait tRAS -> PRE -> (violated delay) -> ACT dst -> wait
    ``t_agg_on_ns`` -> PRE.  One cycle is one hammer.
    """
    trp = module.timing.tRP
    tras = module.timing.tRAS
    s, d = _logical(module, src), _logical(module, dst)
    body = (
        ProgramBuilder()
        .act(bank, s, trp)
        .pre(bank, tras)
        .act(bank, d, pre_to_act_ns)
        .pre(bank, t_agg_on_ns)
    )
    return ProgramBuilder(f"comra@{src}->{dst}").loop(count, body).build()


def double_sided_comra(
    module: DramModule,
    victim: int,
    count: Count,
    bank: int = 0,
    pre_to_act_ns: float = COMRA_DELAY_NS,
    t_agg_on_ns: float = T_AGG_ON_NOMINAL_NS,
    reverse: bool = False,
) -> TestProgram:
    """CoMRA with src and dst sandwiching ``victim`` (Fig. 3a)."""
    src, dst = victim - 1, victim + 1
    if reverse:
        src, dst = dst, src
    if not module.geometry.same_subarray(victim - 1, victim + 1):
        raise AddressError(f"victim {victim} has no same-subarray sandwich")
    return comra_cycle(
        module, src, dst, count, bank=bank,
        pre_to_act_ns=pre_to_act_ns, t_agg_on_ns=t_agg_on_ns,
    )


def single_sided_comra(
    module: DramModule,
    src: int,
    dst: int,
    count: Count,
    bank: int = 0,
    pre_to_act_ns: float = COMRA_DELAY_NS,
    t_agg_on_ns: float = T_AGG_ON_NOMINAL_NS,
) -> TestProgram:
    """CoMRA with src and dst far apart in the same subarray (Fig. 3b)."""
    if not module.geometry.same_subarray(src, dst):
        raise AddressError("CoMRA source and destination must share a subarray")
    if abs(src - dst) < 10:
        raise AddressError("single-sided CoMRA rows should be far apart")
    return comra_cycle(
        module, src, dst, count, bank=bank,
        pre_to_act_ns=pre_to_act_ns, t_agg_on_ns=t_agg_on_ns,
    )


# ----------------------------------------------------------------------
# SiMRA (simultaneous multiple-row activation, §5)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimraAddressPair:
    """The two ACT addresses of an ACT-PRE-ACT trigger plus the expected
    simultaneously-activated row group."""

    row_a: int
    row_b: int
    group: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.group)

    def sandwiched_victims(self) -> tuple[int, ...]:
        members = set(self.group)
        return tuple(
            v
            for v in range(min(self.group) + 1, max(self.group))
            if v not in members and v - 1 in members and v + 1 in members
        )


def simra_pair_for(
    module: DramModule,
    block_base: int,
    n_rows: int,
    style: str = "double-sided",
    anchor_offset: int = 0,
) -> SimraAddressPair:
    """Choose ACT addresses activating ``n_rows`` rows of one 32-row block.

    ``style='double-sided'`` picks a strided group that sandwiches
    unactivated victims (bits 1..k differ -> stride-2 rows); 32-row groups
    are necessarily contiguous, so no double-sided 32-row pair exists
    (paper footnote 3).  ``style='single-sided'`` picks a contiguous group
    (bits 0..k-1 differ) whose victims border the block.

    ``anchor_offset`` selects among the block's group shapes by fixing the
    non-differing address bits (how the paper's 100 random groups vary).
    """
    if n_rows not in (2, 4, 8, 16, 32):
        raise AddressError(f"SiMRA supports 2/4/8/16/32 rows, not {n_rows}")
    if block_base % SIMRA_BLOCK:
        raise AddressError(f"block base {block_base} not 32-row aligned")
    k = n_rows.bit_length() - 1
    if style == "double-sided":
        if n_rows == 32:
            raise AddressError(
                "no 32-row group sandwiches an unactivated victim (footnote 3)"
            )
        bits = list(range(1, k + 1))
    elif style == "single-sided":
        bits = list(range(k))
    else:
        raise AddressError(f"unknown SiMRA style {style!r}")
    diff = sum(1 << b for b in bits)
    anchor = anchor_offset % SIMRA_BLOCK & ~diff
    row_a = block_base + anchor
    row_b = block_base + anchor + diff
    bank0 = module.banks[0]
    group = bank0.simra_group(row_a, row_b)
    if group is None or len(group) != n_rows:
        raise AddressError(
            f"decoder produced {group} for pair ({row_a}, {row_b})"
        )
    return SimraAddressPair(row_a, row_b, group)


def simra_pair_sandwiching(
    module: DramModule,
    victim: int,
    n_rows: int,
    bank: int = 0,
) -> Optional[SimraAddressPair]:
    """A double-sided SiMRA pair whose ``n_rows`` group sandwiches ``victim``.

    Requires the victim to sit at an odd offset within its 32-row block,
    with both even neighbors inside the same aligned stride-2 window; rows
    whose neighbors straddle a window carry no such group (real decoder
    constraint -- not every row can be double-sided-SiMRA'd).
    """
    if n_rows not in (2, 4, 8, 16):
        return None
    offset = victim % SIMRA_BLOCK
    block_base = victim - offset
    if offset % 2 == 0:
        return None
    low = offset - 1
    mask = 2 * n_rows - 2  # differing bits 1..k
    anchor = low & ~mask
    if (low + 2) & ~mask != anchor:
        return None  # the upper neighbor falls outside the aligned window
    rows = tuple(block_base + anchor + combo for combo in range(0, mask + 1, 2))
    geometry = module.geometry
    if rows[-1] >= geometry.rows_per_bank:
        return None
    if not geometry.same_subarray(rows[0], rows[-1]):
        return None
    group = module.banks[bank].simra_group(rows[0], rows[-1])
    if group != rows:
        return None
    return SimraAddressPair(rows[0], rows[-1], group)


def simra_hammer(
    module: DramModule,
    pair: SimraAddressPair,
    count: Count,
    bank: int = 0,
    act_to_pre_ns: float = SIMRA_ACT_TO_PRE_NS,
    pre_to_act_ns: float = SIMRA_PRE_TO_ACT_NS,
    t_agg_on_ns: float = T_AGG_ON_NOMINAL_NS,
) -> TestProgram:
    """Repeat the SiMRA operation of Fig. 12c; one operation = one hammer."""
    trp = module.timing.tRP
    a, b = _logical(module, pair.row_a), _logical(module, pair.row_b)
    body = (
        ProgramBuilder()
        .act(bank, a, trp)
        .pre(bank, act_to_pre_ns)
        .act(bank, b, pre_to_act_ns)
        .pre(bank, t_agg_on_ns)
    )
    return ProgramBuilder(
        f"simra{pair.count}@{pair.row_a}/{pair.row_b}"
    ).loop(count, body).build()


# ----------------------------------------------------------------------
# §7: the tREFI window of a TRR-bypass round (after U-TRR)
# ----------------------------------------------------------------------
def trefi_window(
    builder: ProgramBuilder,
    bank: int,
    period: Sequence[tuple[int, float, float]],
    pairs: int,
    used_ns: float,
    trefi: float,
    ref: bool = True,
) -> None:
    """Append one tREFI window of ``pairs`` ACT/PRE pairs to ``builder``.

    ``period`` lists one ``(logical row, ACT slack, PRE slack)`` per pair,
    and the pairs cycle through it: the whole periods become one ``Loop``
    and the pairs left over follow it flat.  A NOP pads the window from
    ``used_ns`` (the caller's own arithmetic for the commands' duration)
    to ``trefi``, and a REF closes it unless ``ref`` is False (postponed
    refreshes).
    """
    reps, rest = divmod(pairs, len(period))
    if reps:
        body = ProgramBuilder()
        for row, act_ns, pre_ns in period:
            body.act(bank, row, act_ns).pre(bank, pre_ns)
        builder.loop(reps, body)
    for row, act_ns, pre_ns in period[:rest]:
        builder.act(bank, row, act_ns).pre(bank, pre_ns)
    if trefi > used_ns:
        builder.nop(trefi - used_ns)
    if ref:
        builder.ref()
