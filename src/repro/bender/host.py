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
  runs everything this way), and the path of every instruction outside a
  ``Loop`` and of every ``Loop`` whose body does not lower to a stream
  (several banks, nested loops, RD/WR/REF, NOP-only; its body's own
  streamable loops still stream).
* **compiled stream** -- programs state their repetition as ``Loop``
  instructions, as DRAM Bender's loop instruction does.  A ``Loop`` body
  of ACT/PRE/NOP on one bank is lowered once per program by
  :func:`repro.bender.compiler.build_plan` into a command stream and
  executed as one warm-up period (steady-state synergy windows and
  tAggOff gaps) plus one period whose fault-model ``times`` multiplier
  carries the remaining repetitions, the clock jumping over the skipped
  duration.  Valid because damage accrual is linear in the repetition
  count and the bank is closed at every period boundary.  The passes run
  *per REF-delimited stretch*, which is what makes them compose with an
  attached TRR hook:
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

On top of the stream path, a program run again is **replayed from a
captured trace** (DESIGN.md, "Program trace replay"): its second run
records the device-model effects through the bank's capture tap into a
one-window :class:`~repro.dram.replay.Trace`, the type the batched probe
engine replays, and later runs re-apply it, running only REFs live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..dram.module import DramModule
from ..dram.replay import TraceRecorder
from ..obs import NULL_OBS
from .compiler import (
    CompiledStream,
    RunStep,
    StreamStep,
    build_plan,
    run_stream,
)
from .program import Act, Instruction, Loop, Nop, Pre, Rd, Ref, TestProgram, Wr

#: ``_ProgramEntry.capture`` sentinel: the program's runs cannot be replayed
_NO_TRACE = object()


def write_stride_ns(timing) -> float:
    """Clock advance of one nominal-timing row write (see ``write_rows``).

    Single source of truth for the host's write cadence: the batched
    probe engine re-initializes a probe's rows in closed form using this
    stride, and the two must agree bit for bit.
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


@dataclass
class _ProgramEntry:
    """A program's cached plan and, once it ran twice, its run trace."""

    program: TestProgram
    plan: list
    duration_ns: float
    #: runs executed so far; the first never captures, so a program run
    #: once pays no capture
    runs: int = 0
    #: the :class:`_Capture` of its second run, None before it, or
    #: ``_NO_TRACE``
    capture: object = None
    #: the one bank the program commands (see :func:`_trace_bank`),
    #: found on its second run
    bank_index: Optional[int] = None


class _Capture:
    """One run of a program on ``bank``, captured for replay at another
    start time: the bank's probe tap and the TRR hook's stand-in while it
    runs, then its trace and what its replays must find unchanged.

    The run is a one-window :class:`~repro.dram.replay.Trace` (all tail,
    count 1) whose ops add the host's own: ``("ref", rel_ns)`` runs a REF
    live on every bank, and ``("trr_stream", rows, times)`` and
    ``("trr_act", row, rel_ns)`` repeat the TRR hook's command-side calls.
    """

    def __init__(self, bank, start: float) -> None:
        self.bank = bank
        self.hook = bank.trr
        self.temperature_c = bank.temperature_c
        self.event_times = bank.event_times
        self.start = start
        self.recorder = TraceRecorder(bank)
        self.recorder.tail(start)
        #: ``(name, path) -> n`` path counters the plan increments
        self.counts: dict = {}
        self.refused = False

    def tap(self, tap: tuple) -> None:
        """``Bank.probe_tap`` while the run is captured."""
        if tap[0] == "frac":
            # a fractional row's next lone activation senses thermal noise
            self.refused = True
        else:
            self.recorder.tap(tap)

    def ref(self, now_ns: float) -> None:
        """A REF's flush belongs to the run; its refreshes run live.

        A REF with a row open needs no refusal: the bank raises
        :class:`~repro.dram.errors.TimingError` on it.
        """
        bank = self.bank
        bank._flush_pending_event(now_ns)
        recorder = self.recorder
        recorder.ops.append(("ref", now_ns - recorder.base))
        bank.probe_tap = None

    def finish(self, end_ns: float) -> bool:
        """Keep the run's trace; False when it cannot be replayed.

        The run itself ran live, so a row it opened while fractional took
        its thermal-noise sensing on the full path; a replay requires the
        opened rows not fractional (``DramBenderHost._replayable``).
        ``gaps`` maps each row the run opens to ``(rel_open_ns, key)``:
        the plan-key form (``model.aggoff_key``) of its gap since its last
        close before the run, None without a close.
        """
        if self.refused:
            return False
        self.trace = self.recorder.finish(end_ns)
        aggoff_key = self.bank.model.aggoff_key
        self.gaps = {
            row: (
                now_ns - self.start,
                None if closed is None else aggoff_key(now_ns - closed),
            )
            for row, (now_ns, closed) in self.recorder.opened.items()
        }
        return True

    def on_act(self, bank: int, row: int, now_ns: float) -> None:
        recorder = self.recorder
        recorder.ops.append(("trr_act", row, now_ns - recorder.base))
        self.hook.on_act(bank, row, now_ns)

    def on_act_stream(self, bank: int, rows, times: int = 1) -> None:
        self.recorder.ops.append(("trr_stream", rows, times))
        self.hook.on_act_stream(bank, rows, times)

    def on_ref(self, bank: int, now_ns: float) -> list[int]:
        return self.hook.on_ref(bank, now_ns)


def _trace_bank(instructions) -> Optional[int]:
    """The one bank a program commands, or None when it cannot be traced
    (several banks, none, or an RD/WR)."""
    banks = set()
    stack = list(instructions)
    while stack:
        instr = stack.pop()
        if isinstance(instr, Loop):
            stack.extend(instr.body)
        elif isinstance(instr, (Rd, Wr)):
            return None
        elif isinstance(instr, (Act, Pre)):
            banks.add(instr.bank)
    return banks.pop() if len(banks) == 1 else None


class DramBenderHost:
    """Executes test programs against one simulated module."""

    #: default for the ``compile_streams`` constructor argument; benchmarks
    #: flip this to force interpretation in code they don't construct.
    default_compile_streams = True
    #: plans cached per host before the cache resets
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
        #: metrics registry counting which execution path each loop took
        #: (``host.loops{path=...}``: ``stream`` or ``unrolled``) and how
        #: each run went (``host.runs{path=...}``); recorded per loop,
        #: never per command, so the disabled default costs one no-op
        #: call per loop
        self.obs = obs if obs is not None else NULL_OBS
        self.now_ns = 0.0
        # Plans are keyed by program identity (programs are mutable, so
        # content hashing is off the table); the program reference is kept
        # so a dead id can't alias a new object.  Each entry also carries
        # the program's duration for the refresh-window check, which
        # otherwise re-walks every instruction on every run, and its run
        # trace.  Callers must not mutate a program's instruction list
        # between runs -- nothing in the repo does.
        self._plans: dict[int, _ProgramEntry] = {}
        #: the run being captured, if any
        self._capture: Optional[_Capture] = None

    # ------------------------------------------------------------------
    def run(self, program: TestProgram) -> ProgramResult:
        """Execute a program; returns collected reads and timing."""
        result = ProgramResult(program.name, start_ns=self.now_ns)
        if self.compile_streams:
            entry = self._plan_for(program)
            duration = entry.duration_ns
        else:
            entry, duration = None, program.duration_ns
        if duration > self.module.timing.tREFW:
            message = (
                f"program {program.name!r} runs {duration / 1e6:.1f} ms, beyond "
                f"the {self.module.timing.tREFW / 1e6:.0f} ms refresh window; "
                "retention failures may mix with read disturbance"
            )
            if self.enforce_refresh_window:
                raise RuntimeError(message)
            result.warnings.append(message)

        if entry is not None:
            self._run_entry(entry, result)
        else:
            self.obs.inc("host.runs", path="full")
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
    def _plan_for(self, program: TestProgram) -> _ProgramEntry:
        """The program's cached entry, its plan built on first use."""
        key = id(program)
        entry = self._plans.get(key)
        if entry is not None and entry.program is program:
            return entry
        entry = _ProgramEntry(
            program, build_plan(program, self.module), program.duration_ns
        )
        if len(self._plans) >= self._CACHE_MAX:
            self._plans.clear()
        self._plans[key] = entry
        return entry

    def _run_entry(self, entry: _ProgramEntry, result: ProgramResult) -> None:
        """Run a planned program: replay its trace, capture one, or run it.

        A trace replays when the banks are where the capture left them in
        every way the trace freezes: no held-back or open session, the
        same hook, temperature and damage multiplier, no opened row
        fractional, and every opened row's gap since its last close
        before the run on the same plan key.  Everything else -- data
        patterns, retention, realized flips, group sensing, REFs -- is
        guarded or run live by the ops themselves.
        """
        capture = entry.capture
        if capture is None and entry.runs:
            if entry.bank_index is None:
                entry.bank_index = _trace_bank(entry.program.instructions)
                if entry.bank_index is None:
                    entry.capture = _NO_TRACE
            if entry.bank_index is not None and self._idle():
                bank = self.module.bank(entry.bank_index)
                hook = bank.trr
                if not (
                    hasattr(hook, "on_event") or hasattr(hook, "quiet_periods")
                ):
                    self._capture_run(entry, bank, result)
                    return
        elif capture.__class__ is _Capture:
            bank = capture.bank
            if (
                bank.trr is not capture.hook
                or bank.temperature_c != capture.temperature_c
                or bank.event_times != capture.event_times
            ):
                entry.capture = None
            elif self._replayable(capture):
                self.obs.inc("host.runs", path="replay")
                self._replay(capture)
                return
        self.obs.inc("host.runs", path="full")
        entry.runs += 1
        self._execute_plan(entry.plan, result)
        self._flush_banks()

    def _idle(self) -> bool:
        """No bank holds a session open or held back."""
        return all(
            bank._open is None
            and bank._pending is None
            and bank._comra_context is None
            for bank in self.module.banks
        )

    def _replayable(self, capture: _Capture) -> bool:
        """The entry guards of :meth:`_run_entry`: idle banks, no opened
        row fractional, and one plan-key comparison per opened row (equal
        gaps have equal keys, so the key alone decides)."""
        bank = capture.bank
        if not self._idle() or not bank._frac.isdisjoint(capture.gaps):
            return False
        start = self.now_ns
        closes = bank._last_close
        aggoff_key = bank.model.aggoff_key
        for row, (rel, key) in capture.gaps.items():
            closed = closes.get(row)
            gap_key = (
                None if closed is None else aggoff_key(start + rel - closed)
            )
            if gap_key != key:
                return False
        return True

    def _capture_run(
        self, entry: _ProgramEntry, bank, result: ProgramResult
    ) -> None:
        """Run the plan under a :class:`_Capture` of the bank's probe tap
        and TRR hook; keep it for replay unless it was refused (a row
        left fractional)."""
        self.obs.inc("host.runs", path="capture")
        entry.runs += 1
        capture = _Capture(bank, self.now_ns)
        hook = capture.hook
        bank.probe_tap = capture.tap
        if hook is not None:
            bank.trr = capture
        self._capture = capture
        try:
            self._execute_plan(entry.plan, result)
            self._flush_banks()
        finally:
            self._capture = None
            bank.probe_tap = None
            bank.trr = hook
        entry.capture = capture if capture.finish(self.now_ns) else _NO_TRACE

    def _replay(self, capture: _Capture) -> None:
        """Re-apply a captured run at the current clock, its REFs live."""
        bank = capture.bank
        index = bank.index
        hook = bank.trr
        banks = self.module.banks

        def host_op(op: tuple, base: float) -> None:
            tag = op[0]
            if tag == "ref":
                now_ns = base + op[1]
                for each in banks:
                    each.ref(now_ns)
            elif tag == "trr_stream":
                hook.on_act_stream(index, op[1], op[2])
            else:  # trr_act
                hook.on_act(index, op[1], base + op[2])

        self.now_ns = capture.trace.replay(bank, self.now_ns, 1, host_op)
        obs = self.obs
        for (name, path), n in capture.counts.items():
            obs.inc(name, n, path=path)

    def _inc(self, name: str, path: str) -> None:
        """Count an execution path, and record it in a capture."""
        self.obs.inc(name, path=path)
        capture = self._capture
        if capture is not None:
            key = (name, path)
            capture.counts[key] = capture.counts.get(key, 0) + 1

    def _execute_plan(self, plan: list, result: ProgramResult) -> None:
        for step in plan:
            cls = step.__class__
            if cls is RunStep:
                self._execute(step.instructions, result)
            elif cls is StreamStep:
                self._inc("host.loops", "stream")
                self._run_periods(step.stream, step.count)
            else:  # LoopStep
                self._inc("host.loops", "unrolled")
                for _ in range(step.count):
                    self._execute_plan(step.plan, result)

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
        """:func:`~repro.bender.compiler.run_stream` at the host clock,
        with the TRR hook's per-ACT callbacks replaced by one batched
        ``on_act_stream``."""
        base = self.now_ns
        trr = bank.trr
        if trr is not None:
            bank.trr_act_suppressed = True
        try:
            run_stream(bank, stream, base, count)
        finally:
            if trr is not None:
                bank.trr_act_suppressed = False
        if trr is not None:
            trr.on_act_stream(stream.bank, stream.act_rows, count)
        self.now_ns = base + stream.duration_ns * count

    # ------------------------------------------------------------------
    def _execute(self, instructions, result: ProgramResult) -> None:
        """Interpret instructions one by one, unrolling every ``Loop``."""
        for instr in instructions:
            if isinstance(instr, Loop):
                if instr.count:
                    self._inc("host.loops", "unrolled")
                    for _ in range(instr.count):
                        self._execute(instr.body, result)
            else:
                self._step(instr, result)

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
            capture = self._capture
            if capture is not None:
                capture.ref(self.now_ns)
            for bank in module.banks:
                bank.ref(self.now_ns)
            if capture is not None:
                capture.bank.probe_tap = capture.tap
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
