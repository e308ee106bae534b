"""The host side of the testing infrastructure.

:class:`DramBenderHost` plays :class:`~repro.bender.program.TestProgram`
objects into a simulated module the way the real host + FPGA replay command
streams into a DIMM:

* logical row addresses are sent to the device (the mapping lives in the
  device's row decoder),
* read data is collected into the program result,
* execution time is tracked in nanoseconds.

Two execution paths (see DESIGN.md, "Execution engine"):

* **unrolled** -- per-instruction interpretation; always correct, the
  reference the stream path is tested against (``compile_streams=False``
  runs everything this way), and the fallback for every ``Loop`` body that
  does not lower to a stream (several banks, nested loops, RD/WR/REF,
  NOP-only).
* **compiled stream** -- periodic ACT/PRE stretches (a ``Loop`` body or a
  periodic run inside a flat program) are lowered once by
  :mod:`repro.bender.compiler` into a command stream and executed as one
  warm-up period (steady-state synergy windows and tAggOff gaps) plus one
  period whose fault-model ``times`` multiplier carries the remaining
  repetitions, the clock jumping over the skipped duration.  Valid because
  damage accrual is linear in the repetition count and the bank is closed
  at every period boundary.  The passes run *per REF-delimited stretch*,
  which is what makes them compose with an attached TRR hook:
  between TRR-capable REFs the sampler's observable state depends only on
  the ACT sequence, so per-ACT callbacks are suppressed during the two
  passes and the hook receives one batched
  ``on_act_stream(bank, rows, times)`` that reproduces the exact buffer
  state sequential ``on_act`` calls would have left.  A hook that can act
  mid-stretch (PRAC back-off) exposes a quiet-period bound, and the
  stretch is replayed in segments: multi-period runs where no counter
  can reach the RDT, single periods where a crossing is possible, so
  every back-off fires at the same event and ``t_close_ns`` as unrolled.
  The bound keeps two one-period margins, both for the session the bank
  holds back one command (see ``DramBenderHost._run_periods``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..dram.module import DramModule
from ..obs import NULL_OBS
from .compiler import (
    ChunkStep,
    CompiledStream,
    RunStep,
    build_plan,
    compile_stream,
)
from .program import Act, Instruction, Loop, Nop, Pre, Rd, Ref, TestProgram, Wr

#: cache sentinel for loop bodies that do not lower to a stream
_NO_STREAM = object()


def write_stride_ns(timing) -> float:
    """Clock advance of one nominal-timing row write (see ``write_rows``).

    Single source of truth for the host's write cadence: the batched
    probe engine replays captured write prologues in closed form using
    this stride, and the two must agree bit for bit.
    """
    return timing.tRP + timing.tRAS + timing.tWR


def write_data_at_ns(timing) -> float:
    """Offset of the WR (data landing) within one ``write_rows`` stride."""
    return timing.tRP + timing.tRCD


@dataclass
class ReadRecord:
    """One RD command's returned data."""

    bank: int
    logical_row: int
    data: np.ndarray
    at_ns: float


@dataclass
class ProgramResult:
    """Everything a test program run produced."""

    program_name: str
    reads: list[ReadRecord] = field(default_factory=list)
    start_ns: float = 0.0
    end_ns: float = 0.0
    warnings: list[str] = field(default_factory=list)
    #: lazily-built (bank, logical_row) -> last read index (O(1) lookups)
    _read_index: dict = field(default_factory=dict, repr=False, compare=False)
    _indexed_upto: int = field(default=0, repr=False, compare=False)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def data_for(self, bank: int, logical_row: int) -> np.ndarray:
        """Last read data for a row (raises if the row was never read)."""
        reads = self.reads
        if self._indexed_upto > len(reads):
            # the reads list shrank (caller replaced it); rebuild
            self._read_index.clear()
            self._indexed_upto = 0
        index = self._read_index
        while self._indexed_upto < len(reads):
            record = reads[self._indexed_upto]
            index[(record.bank, record.logical_row)] = self._indexed_upto
            self._indexed_upto += 1
        position = index.get((bank, logical_row))
        if position is None:
            raise KeyError(f"row {logical_row} (bank {bank}) was never read")
        return reads[position].data


class DramBenderHost:
    """Executes test programs against one simulated module."""

    #: default for the ``compile_streams`` constructor argument; benchmarks
    #: flip this to force interpretation in code they don't construct.
    default_compile_streams = True
    #: plans/streams cached per host before the caches reset
    _CACHE_MAX = 64

    def __init__(
        self,
        module: DramModule,
        enforce_refresh_window: bool = False,
        compile_streams: Optional[bool] = None,
        obs=None,
    ) -> None:
        self.module = module
        self.enforce_refresh_window = enforce_refresh_window
        self.compile_streams = (
            self.default_compile_streams
            if compile_streams is None
            else compile_streams
        )
        #: metrics registry counting which execution path each loop/chunk
        #: took (``host.loops{path=...}`` / ``host.chunks{path=...}``);
        #: recorded per loop, never per command, so the disabled default
        #: costs one no-op call per loop
        self.obs = obs if obs is not None else NULL_OBS
        self.now_ns = 0.0
        # Plans are keyed by program identity (programs are mutable, so
        # content hashing is off the table); the program reference is kept
        # so a dead id can't alias a new object.  Callers must not mutate
        # a program's instruction list between runs -- nothing in the
        # repo does.
        self._plans: dict[int, tuple[TestProgram, list]] = {}
        self._loop_streams: dict[Loop, object] = {}

    # ------------------------------------------------------------------
    def run(self, program: TestProgram) -> ProgramResult:
        """Execute a program; returns collected reads and timing."""
        result = ProgramResult(program.name, start_ns=self.now_ns)
        duration = program.duration_ns
        if duration > self.module.timing.tREFW:
            message = (
                f"program {program.name!r} runs {duration / 1e6:.1f} ms, beyond "
                f"the {self.module.timing.tREFW / 1e6:.0f} ms refresh window; "
                "retention failures may mix with read disturbance"
            )
            if self.enforce_refresh_window:
                raise RuntimeError(message)
            result.warnings.append(message)

        if self.compile_streams:
            self._execute_plan(self._plan_for(program), result)
        else:
            self._execute(program.instructions, result)
        self._flush_banks()
        result.end_ns = self.now_ns
        return result

    def _flush_banks(self) -> None:
        for bank in self.module.banks:
            bank.flush(self.now_ns)

    # ------------------------------------------------------------------
    # Plan machinery (compiled stream path)
    # ------------------------------------------------------------------
    def _plan_for(self, program: TestProgram) -> list:
        key = id(program)
        entry = self._plans.get(key)
        if entry is not None and entry[0] is program:
            return entry[1]
        plan = build_plan(program, self.module)
        if len(self._plans) >= self._CACHE_MAX:
            self._plans.clear()
        self._plans[key] = (program, plan)
        return plan

    def _execute_plan(self, plan: list, result: ProgramResult) -> None:
        for step in plan:
            cls = step.__class__
            if cls is RunStep:
                self._execute(step.instructions, result)
            elif cls is ChunkStep:
                self.obs.inc("host.chunks", path="stream")
                self._run_periods(step.stream, step.count)
            else:  # Loop
                self._execute_loop(step, result)

    def _run_periods(self, stream: CompiledStream, count: int) -> None:
        """Replay ``count`` periods of ``stream``, split where a hook can act.

        Without a quiet-period bound on the hook this is one
        :meth:`_run_stream` call.  With one (PRAC), the first period runs
        alone; the second, also alone, teaches the hook one period's
        counter increments (its held-back predecessor is a whole period of
        this stream with ``times == 1``).  From then on each multi-period
        run stays within the hook's bound, whose own margin covers the
        held-back predecessor, and is followed by one single period, which
        emits the run's last session (held back with ``times = n - 1``)
        before the bound is consulted again.  Where the bound allows fewer
        than two periods, single periods run until the back-off fires at
        its exact event.
        """
        bank = self.module.bank(stream.bank)
        hook = bank.trr
        quiet_periods = getattr(hook, "quiet_periods", None)
        if quiet_periods is None:
            self._run_stream(bank, stream, count)
            return
        self._run_stream(bank, stream, 1)
        done = 1
        increments = None
        while done < count:
            if increments is None:
                increments = hook.period_increments(
                    stream.bank, lambda: self._run_stream(bank, stream, 1)
                )
                done += 1
                continue
            n = max(1, min(count - done, quiet_periods(stream.bank, increments)))
            self._run_stream(bank, stream, n)
            done += n
            if n > 1 and done < count:
                self._run_stream(bank, stream, 1)
                done += 1

    def _run_stream(self, bank, stream: CompiledStream, count: int) -> None:
        """Warm-up pass + one pass scaled by ``count - 1``; exact clocking.

        All command times are ``base + offset`` with offsets precomputed
        at compile time; slacks are multiples of the 1.5 ns bus cycle, so
        every timestamp is exact in float64 and bit-identical to the
        unrolled path's accumulation.
        """
        base = self.now_ns
        trr = bank.trr
        if trr is not None:
            bank.trr_act_suppressed = True
        try:
            bank.execute_stream(
                stream.op_list, stream.row_list, stream.offset_list, base
            )
            if count > 1:
                before = dict(bank.stats)
                saved = bank.event_times
                bank.event_times = saved * (count - 1)
                try:
                    bank.execute_stream(
                        stream.op_list,
                        stream.row_list,
                        stream.offset_list,
                        base + stream.duration_ns,
                    )
                finally:
                    bank.event_times = saved
                if count > 2:
                    # the scaled pass carried iterations 2..count's damage
                    # but only counted one period of commands; top up the
                    # command/op counters with the skipped repetitions
                    stats = bank.stats
                    for key, value in before.items():
                        delta = stats[key] - value
                        if delta:
                            stats[key] += delta * (count - 2)
        finally:
            if trr is not None:
                bank.trr_act_suppressed = False
        if trr is not None:
            trr.on_act_stream(stream.bank, stream.act_rows, count)
        self.now_ns = base + stream.duration_ns * count

    def _loop_stream(self, loop: Loop) -> Optional[CompiledStream]:
        cached = self._loop_streams.get(loop)
        if cached is not None:
            return None if cached is _NO_STREAM else cached
        stream = compile_stream(loop.body, self.module)
        if len(self._loop_streams) >= self._CACHE_MAX:
            self._loop_streams.clear()
        self._loop_streams[loop] = _NO_STREAM if stream is None else stream
        return stream

    # ------------------------------------------------------------------
    def _execute(self, instructions, result: ProgramResult) -> None:
        for instr in instructions:
            if isinstance(instr, Loop):
                self._execute_loop(instr, result)
            else:
                self._step(instr, result)

    def _execute_loop(self, loop: Loop, result: ProgramResult) -> None:
        if loop.count == 0:
            return
        if self.compile_streams:
            stream = self._loop_stream(loop)
            if stream is not None:
                self.obs.inc("host.loops", path="stream")
                self._run_periods(stream, loop.count)
                return
        self.obs.inc("host.loops", path="unrolled")
        for _ in range(loop.count):
            self._execute(loop.body, result)

    # ------------------------------------------------------------------
    def _step(self, instr: Instruction, result: ProgramResult) -> None:
        self.now_ns += instr.slack_ns
        module = self.module
        if isinstance(instr, Act):
            module.bank(instr.bank).act(module.to_physical(instr.row), self.now_ns)
        elif isinstance(instr, Pre):
            module.bank(instr.bank).pre(self.now_ns)
        elif isinstance(instr, Rd):
            data = module.bank(instr.bank).rd(
                module.to_physical(instr.row), self.now_ns
            )
            result.reads.append(
                ReadRecord(instr.bank, instr.row, data, self.now_ns)
            )
        elif isinstance(instr, Wr):
            module.bank(instr.bank).wr(
                module.to_physical(instr.row),
                np.frombuffer(instr.data, dtype=np.uint8),
                self.now_ns,
            )
        elif isinstance(instr, Ref):
            for bank in module.banks:
                bank.ref(self.now_ns)
        elif isinstance(instr, Nop):
            pass
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown instruction {instr!r}")

    # ------------------------------------------------------------------
    # Convenience operations (nominal-timing row IO in logical space)
    # ------------------------------------------------------------------
    def write_rows(self, bank: int, rows: dict[int, np.ndarray]) -> None:
        """Initialize rows with data at nominal timing.

        Per-row cadence: ACT at ``+tRP``, WR at ``+tRCD`` after the ACT,
        PRE closing the row ``tRAS + tWR`` after the bank opened -- i.e.
        each row advances the clock by :func:`write_stride_ns` and lands
        its data :func:`write_data_at_ns` after the row's start.  The
        batched probe engine replays this cadence in closed form; keep
        the two definitions in sync.
        """
        timing = self.module.timing
        for logical_row, data in rows.items():
            self.now_ns += timing.tRP
            self.module.bank(bank).act(
                self.module.to_physical(logical_row), self.now_ns
            )
            self.now_ns += timing.tRCD
            self.module.bank(bank).wr(
                self.module.to_physical(logical_row),
                np.asarray(data, dtype=np.uint8),
                self.now_ns,
            )
            self.now_ns += timing.tRAS - timing.tRCD + timing.tWR
            self.module.bank(bank).pre(self.now_ns)

    def read_rows(self, bank: int, rows) -> dict[int, np.ndarray]:
        """Read rows back at nominal timing (restores their charge)."""
        timing = self.module.timing
        out: dict[int, np.ndarray] = {}
        for logical_row in rows:
            self.now_ns += timing.tRP
            physical = self.module.to_physical(logical_row)
            self.module.bank(bank).act(physical, self.now_ns)
            self.now_ns += timing.tRCD
            out[logical_row] = self.module.bank(bank).rd(physical, self.now_ns)
            self.now_ns += timing.tRAS - timing.tRCD
            self.module.bank(bank).pre(self.now_ns)
        return out
