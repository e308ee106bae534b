"""Compiler: lower hammer programs into batched command streams.

The real DRAM Bender gets its throughput from *replaying* a compiled
instruction memory instead of interpreting commands one at a time; the
Blacksmith fuzzer and the Phoenix artifact do the same on the host side.
This module mirrors that split for the simulated pipeline:

* :func:`compile_stream` lowers a flat ``Act``/``Pre``/``Nop`` body into a
  :class:`CompiledStream` -- parallel arrays of opcodes, physical rows and
  cumulative slack offsets, with NOP delays folded into the offsets.  The
  stream is replayed by :meth:`~repro.dram.bank.Bank.execute_stream`
  without any per-command dataclass dispatch.

* :func:`run_stream` executes ``count`` periods of a stream as *one
  warm-up period plus one period scaled by* ``count - 1``: damage accrual
  is linear in the repetition count, so the second pass's fault-model
  ``times`` multiplier carries the skipped repetitions and the bank
  counters are topped up arithmetically.  The host's stream path and the
  batched probe engine's capture probe both run streams through it.

* :func:`build_plan` turns a whole :class:`TestProgram` into an execution
  plan.  Periodic prefixes of flat ACT/PRE runs (the shape every hammer
  window has: ``k`` repetitions of the same ACT/PRE period) become
  :class:`ChunkStep`\\ s, which the host runs through :func:`run_stream`
  like a compiled ``Loop`` body, per-run inside REF-delimited windows, so
  it composes with an attached TRR hook (see ``DramBenderHost``).

A period is only chunkable when it opens with an ACT and closes with a
PRE: then the bank is precharged at every chunk boundary and the session
state cannot straddle the clock jump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..dram.bank import STREAM_ACT, STREAM_PRE
from .program import Act, Instruction, Loop, Nop, Pre, TestProgram

#: minimum repetitions of a period before chunking beats interpretation
MIN_PERIODS = 4
#: longest period (in commands) the detector searches for
MAX_PERIOD = 64
#: consecutive non-periodic positions scanned before the remainder of a
#: run is handed to the interpreter wholesale (keeps planning linear)
SCAN_BUDGET = 64


@dataclass
class CompiledStream:
    """One lowered ACT/PRE period, ready for ``Bank.execute_stream``.

    ``op_list``/``row_list``/``offset_list`` are plain Python lists (they
    iterate faster in the replay loop than numpy arrays); PRE entries
    carry row ``-1``.  ``act_rows`` is the physical row of every ACT in
    stream order -- exactly what a TRR sampler would have observed -- as a
    tuple of ints, built once so a hook's ``on_act_stream`` can use it
    as-is.
    """

    bank: int
    op_list: list
    row_list: list
    offset_list: list
    act_rows: tuple
    duration_ns: float


@dataclass
class RunStep:
    """Interpret these instructions one by one (the unrolled path)."""

    instructions: tuple


@dataclass
class ChunkStep:
    """Execute ``count`` repetitions of ``stream`` as a scaled chunk."""

    stream: CompiledStream
    count: int


PlanStep = Union[RunStep, ChunkStep, Loop]


def compile_stream(
    body: Sequence[Instruction], module
) -> Optional[CompiledStream]:
    """Lower a flat single-bank ACT/PRE/NOP body; None if not stream-safe.

    Stream-safe means: only ``Act``/``Pre``/``Nop`` instructions, a single
    bank throughout, first command an ACT and last a PRE (the bank is
    closed at the boundary, so repetitions tile).  Logical rows are
    translated to physical here, once, instead of per iteration.
    """
    bank: Optional[int] = None
    t = 0.0
    op_list: list = []
    row_list: list = []
    offset_list: list = []
    act_rows: list = []
    to_physical = module.to_physical
    for instr in body:
        if isinstance(instr, Act):
            t += instr.slack_ns
            if bank is None:
                bank = instr.bank
            elif instr.bank != bank:
                return None
            phys = to_physical(instr.row)
            op_list.append(STREAM_ACT)
            row_list.append(phys)
            offset_list.append(t)
            act_rows.append(phys)
        elif isinstance(instr, Pre):
            t += instr.slack_ns
            if bank is None:
                bank = instr.bank
            elif instr.bank != bank:
                return None
            op_list.append(STREAM_PRE)
            row_list.append(-1)
            offset_list.append(t)
        elif isinstance(instr, Nop):
            t += instr.slack_ns
        else:  # RD/WR/REF or a nested Loop
            return None
    if not op_list or op_list[0] != STREAM_ACT or op_list[-1] != STREAM_PRE:
        return None
    return CompiledStream(
        bank=bank,
        op_list=op_list,
        row_list=row_list,
        offset_list=offset_list,
        act_rows=tuple(act_rows),
        duration_ns=t,
    )


def run_stream(bank, stream: CompiledStream, base_ns: float, count: int) -> dict:
    """Run ``count >= 1`` periods of ``stream`` on ``bank`` from ``base_ns``.

    One warm-up pass (steady-state synergy windows and tAggOff gaps), then
    one pass starting a period later with ``bank.event_times`` multiplied
    by ``count - 1``; the clock jumps over the skipped periods, which is
    exact because every offset is a multiple of the 1.5 ns bus cycle.  The
    scaled pass carries the damage of periods 2..count but counts only
    one period of commands, so the bank counters are topped up with its
    deltas times ``count - 2``.  Returns those per-period counter deltas
    (empty when ``count < 2``); the bank ends as ``count`` periods run one
    by one through ``execute_stream`` would leave its counters.
    """
    bank.execute_stream(
        stream.op_list, stream.row_list, stream.offset_list, base_ns
    )
    if count < 2:
        return {}
    stats = bank.stats
    before = dict(stats)
    saved = bank.event_times
    bank.event_times *= count - 1
    try:
        bank.execute_stream(
            stream.op_list,
            stream.row_list,
            stream.offset_list,
            base_ns + stream.duration_ns,
        )
    finally:
        bank.event_times = saved
    deltas = {
        key: stats[key] - value
        for key, value in before.items()
        if stats[key] != value
    }
    if count > 2:
        for key, delta in deltas.items():
            stats[key] += delta * (count - 2)
    return deltas


def _find_periodic_prefix(
    ops: np.ndarray,
    banks: np.ndarray,
    rows: np.ndarray,
    slacks: np.ndarray,
) -> Optional[tuple[int, int]]:
    """Best ``(period, repetitions)`` at position 0, or None.

    Vectorized: for each candidate period ``p`` the self-overlap equality
    ``x[p:] == x[:-p]`` is computed across all four fields at once; the
    length of the initial all-True run gives how far the periodicity
    extends.  Among candidates with at least :data:`MIN_PERIODS`
    repetitions the one covering the most commands wins (ties favor the
    shortest period, which maximizes the scaling factor).
    """
    n = ops.size
    if n < 2 * MIN_PERIODS or ops[0] != STREAM_ACT:
        return None
    best: Optional[tuple[int, int, int]] = None
    max_p = min(MAX_PERIOD, n // MIN_PERIODS)
    for p in range(2, max_p + 1):
        if ops[p - 1] != STREAM_PRE:
            continue  # period must close its session at the boundary
        eq = (
            (ops[p:] == ops[:-p])
            & (banks[p:] == banks[:-p])
            & (rows[p:] == rows[:-p])
            & (slacks[p:] == slacks[:-p])
        )
        m = n if eq.all() else p + int(np.argmin(eq))
        k = m // p
        if k < MIN_PERIODS:
            continue
        coverage = k * p
        if best is None or coverage > best[2]:
            best = (p, k, coverage)
    if best is None:
        return None
    return best[0], best[1]


def _plan_run(
    run: Sequence[Instruction],
    module,
    steps: list,
    raw: list,
    flush_raw,
) -> None:
    """Chunk the periodic stretches of one maximal ACT/PRE run."""
    ops = np.fromiter(
        (STREAM_ACT if isinstance(i, Act) else STREAM_PRE for i in run),
        dtype=np.int8,
        count=len(run),
    )
    banks = np.fromiter((i.bank for i in run), dtype=np.int32, count=len(run))
    rows = np.fromiter(
        (i.row if isinstance(i, Act) else -1 for i in run),
        dtype=np.int64,
        count=len(run),
    )
    slacks = np.fromiter(
        (i.slack_ns for i in run), dtype=np.float64, count=len(run)
    )
    pos = 0
    n = len(run)
    misses = 0
    while pos < n:
        if misses >= SCAN_BUDGET:
            break
        found = _find_periodic_prefix(
            ops[pos:], banks[pos:], rows[pos:], slacks[pos:]
        )
        stream = None
        if found is not None:
            p, k = found
            stream = compile_stream(run[pos : pos + p], module)
        if stream is None:
            raw.append(run[pos])
            pos += 1
            misses += 1
            continue
        flush_raw()
        steps.append(ChunkStep(stream, k))
        pos += p * k
        misses = 0
    raw.extend(run[pos:])


def build_plan(program: TestProgram, module) -> list:
    """Lower a program into a plan of Run / Chunk / Loop steps."""
    steps: list = []
    raw: list = []

    def flush_raw() -> None:
        if raw:
            steps.append(RunStep(tuple(raw)))
            raw.clear()

    instructions = program.instructions
    i = 0
    n = len(instructions)
    while i < n:
        instr = instructions[i]
        if isinstance(instr, Loop):
            flush_raw()
            steps.append(instr)
            i += 1
            continue
        if not isinstance(instr, (Act, Pre)):
            raw.append(instr)
            i += 1
            continue
        j = i
        while j < n and isinstance(instructions[j], (Act, Pre)):
            j += 1
        _plan_run(instructions[i:j], module, steps, raw, flush_raw)
        i = j
    flush_raw()
    return steps
