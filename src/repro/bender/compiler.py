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
  plan.  Programs state their repetition as ``Loop`` instructions (DRAM
  Bender's loop instruction), and this is the one place it is lowered:
  a ``Loop`` whose body compiles becomes a :class:`StreamStep`, which the
  host runs through :func:`run_stream` per REF-delimited stretch so it
  composes with an attached TRR hook (see ``DramBenderHost``); any other
  ``Loop`` becomes a :class:`LoopStep` over its body's plan; everything
  else is interpreted (:class:`RunStep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..dram.bank import STREAM_ACT, STREAM_PRE
from .program import Act, Instruction, Loop, Nop, Pre, TestProgram


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
class StreamStep:
    """Run ``count`` periods of ``stream``: a ``Loop`` whose body compiled."""

    stream: CompiledStream
    count: int


@dataclass
class LoopStep:
    """Repeat ``plan`` ``count`` times: a ``Loop`` whose body did not
    compile, its body planned in turn."""

    plan: list
    count: int


PlanStep = Union[RunStep, StreamStep, LoopStep]


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
    deltas times ``count - 2``, and its last PRE moves ``count - 2``
    periods on to where the last period's lies.  Returns those per-period
    counter deltas (empty when ``count < 2``); the bank ends as ``count``
    periods run one by one through ``execute_stream`` would leave its
    counters and last PRE.
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
        bank._last_pre_ns += stream.duration_ns * (count - 2)
    return deltas


def build_plan(program: TestProgram, module) -> list[PlanStep]:
    """Lower a program into a plan of Run / Stream / Loop steps; an
    unbound template (see :meth:`TestProgram.bind`) raises ValueError."""
    return _plan(program.instructions, module)


def _plan(instructions: Sequence[Instruction], module) -> list[PlanStep]:
    steps: list[PlanStep] = []
    raw: list = []
    for instr in instructions:
        if not isinstance(instr, Loop):
            raw.append(instr)
            continue
        if instr.bound_count == 0:
            continue
        if raw:
            steps.append(RunStep(tuple(raw)))
            raw = []
        stream = compile_stream(instr.body, module)
        if stream is not None:
            steps.append(StreamStep(stream, instr.count))
        else:
            steps.append(LoopStep(_plan(instr.body, module), instr.count))
    if raw:
        steps.append(RunStep(tuple(raw)))
    return steps
