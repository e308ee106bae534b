"""Captured device-model effects, re-applied at any start time and count.

The batched probe engine (:mod:`repro.core.probe_batch`) re-runs one
hammer program at many counts, and the DRAM Bender host
(:mod:`repro.bender.host`) one program object many times.  Both record a
run once through :attr:`Bank.probe_tap` with a :class:`TraceRecorder`
and re-apply the :class:`Trace` with :meth:`Trace.replay`: loop segments
(a warm pass and a pass scaled by ``count - 1``, as
:func:`repro.bender.compiler.run_stream` runs them), then a tail; the
host's run is all tail.  Each pass holds ops, in application order:

* ``("event", TraceEvent)`` -- an emitted activation event with its
  resolved deposit plan (:func:`trace_event`);
* ``("touch", row, rel_ns, slot, retention_ns)`` -- a charge restoration
  at ``base + rel_ns``, with the row's ledger slot (None while the row has
  none) and retention threshold pre-resolved (:func:`touch_op`);
* ``("copy", src, dst)`` -- a CoMRA in-DRAM copy;
* ``("sense", group, partial_rows, copy_src, act_to_pre)`` -- a SiMRA
  group sensing, run through ``Bank._sense_group`` on the live bank state
  (``act_to_pre`` only lets the engine's translation recompute the
  partial set).

:meth:`Trace.replay` hands any other op to its caller's ``other(op, base)``
handler (the host's REF and TRR ops).  The trace also keeps what the ops
do not leave: ``_last_close`` moves, the last PRE and counter deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..native import replay_kernel


@dataclass(slots=True)
class TraceEvent:
    """One captured activation event with its resolved deposit plan.

    The event *shape* (gaps, rows, damage-scaling ``times``) is constant
    across replays -- every model-visible quantity is a gap between
    timestamps of one replayed unit, and gaps reaching back before it
    clamp into the model's flat tAggOff band (or are guarded by the
    caller) -- so the plan resolved once can be re-applied directly.  The
    one live input is the aggressor row's data pattern: realized flips
    reclassify it, so each application guards on the bank's
    version-cached ``pattern_of`` and re-resolves on change through
    ``model.resolve_plan`` (exactly the lookup the emission path would
    perform).
    """

    event: object  # ActivationEvent
    row0: int
    pattern: object  # Optional[DataPattern]
    plan: list
    #: damage multiplier follows the probe count (a varying loop's scaled
    #: pass applies its recorded iteration ``count - 1`` times)
    scaled: bool
    #: literal multiplier otherwise
    times: float
    #: the model plan-cache key the plan was resolved under; the engine's
    #: translation derives a shifted unit's key from it with
    #: ``model.shift_plan_key`` instead of re-deriving the time key
    plan_key: tuple
    #: ``_data_version`` of ``row0`` the plan was resolved against; the
    #: version is a faithful change counter for row data, so a matching
    #: version skips the ``pattern_of`` lookup entirely (None forces the
    #: full pattern check on first application)
    version: Optional[int] = None


def trace_event(
    bank, event, pattern, times: float, scaled: bool = False
) -> TraceEvent:
    """A :class:`TraceEvent` for ``event`` with its plan resolved."""
    plan, key = bank.model.resolve_plan(event, bank.temperature_c, pattern)
    return TraceEvent(
        event, event.rows[0], pattern, plan, scaled, float(times),
        plan_key=key,
    )


def touch_op(bank, row: int, rel_ns: float) -> tuple:
    """The ``touch`` op restoring ``row`` at ``base + rel_ns``.

    A row without a ledger slot gets none here (restoring it clears
    nothing); replay looks its slot up until it has one.
    """
    return (
        "touch", row, rel_ns,
        bank.model.ledger.peek(bank.index, row),
        bank.retention.retention_ns(bank.index, row),
    )


def apply_event(bank, entry: TraceEvent, times: float) -> None:
    """Apply a captured event's deposit plan, guarding the pattern.

    An unchanged data version skips the pattern lookup; on a version move
    the (version-cached) ``pattern_of`` runs and the plan is re-resolved
    only if the classification actually changed -- exactly the lookups
    the emission path would perform.
    """
    row0 = entry.row0
    version = bank._data_version.get(row0, 0)
    if version != entry.version:
        pattern = bank.pattern_of(row0)
        if pattern != entry.pattern:
            entry.pattern = pattern
            entry.plan, entry.plan_key = bank.model.resolve_plan(
                entry.event, bank.temperature_c, pattern
            )
        entry.version = version
    bank.model._apply_plan(entry.plan, times)


@dataclass(slots=True)
class Trace:
    """One recorded run, re-applied at any start time and count.

    Times are relative to their window: a segment's warm ops and closes
    to its start, its scaled ops to its second period, the tail's ops,
    closes and last PRE to the tail's start.  A count moves only where
    later windows start, and every slack is a multiple of 1.5 ns, so
    ``base + rel`` lands on the same float as the recorded clock.
    """

    #: ``[period_ns, fixed, warm_ops, scaled_ops, closes]`` per executed
    #: loop segment: ``fixed`` periods, or the replay count's when None;
    #: ``closes`` holds ``(row, rel_ns)`` per row whose last close it moves
    segments: list
    tail: list
    #: ``(row, rel_ns)`` for every row whose last close the tail moves
    closes: tuple
    #: the last PRE, in the tail (None when the run issued none)
    last_pre_ns: Optional[float]
    #: from the tail's start to the run's end
    tail_ns: float
    #: counter deltas, ``refs`` excluded (the caller's live REF ops count
    #: them): a replay adds ``stats_const + stats_linear * (count - 1)``
    stats_const: dict
    stats_linear: dict

    def events(self) -> list:
        """Every event entry, in application order."""
        windows = [ops for seg in self.segments for ops in seg[2:4]]
        return [
            op[1]
            for ops in windows + [self.tail]
            for op in ops
            if op[0] == "event"
        ]

    def replay(self, bank, base: float, count: int = 1, other=None) -> float:
        """Re-apply the run on ``bank`` from ``base`` at ``count``; returns
        the run's end.

        Each segment runs its warm ops at its start and, when it runs
        ``n > 1`` periods (``fixed``, or ``count`` when None), its scaled
        ops a period later with scaled events at ``count - 1`` times; the
        next window starts ``n`` periods on.  Then the tail; then the
        closes, the last PRE and the counter deltas.  ``count`` must give
        every segment the pass shape it was recorded with (one pass, or
        two); ``other(op, base)`` handles the caller's own ops.

        Runs in the compiled kernel (``replay.c``): the same restores and
        plan applications in the same order as the captured command
        pipeline.  The version-match common case of the event guard is
        inlined; guard misses go to :func:`apply_event`, and a touch whose
        row is past its retention threshold, or whose damage reaches the
        realize early-out, to the full ``Bank._restore_row``.
        """
        return replay_kernel().replay(self, bank, base, count, other)


class TraceRecorder:
    """Compiles a run's :attr:`Bank.probe_tap` taps into a :class:`Trace`.

    The caller installs :meth:`tap` as the probe tap, calls :meth:`segment`
    before each ``run_stream`` loop and :meth:`tail` before the rest of the
    run, and ends with :meth:`finish`.  It may append its own ops to
    :attr:`ops`, the current window's list, timed relative to :attr:`base`.
    """

    def __init__(self, bank, count: int = 1) -> None:
        self.bank = bank
        self.count = count
        self.segments: list = []
        #: the current window's ops and start
        self.ops: list = []
        self.base = 0.0
        #: ``row -> (first touch ns, last close before it)`` for every
        #: row the current segment (or the tail) opens
        self.opened: dict = {}
        self._tail: list = []
        #: ``(start, scaled)`` per pass: a held-back session is emitted up
        #: to one window late, scaled when it ran in a varying scaled pass
        self._passes: list = []
        #: where the current segment's scaled pass starts, until it does
        self._scaled_at: Optional[float] = None
        self._start = 0.0
        self._stats = dict(bank.stats)
        self._last_pre = bank._last_pre_ns

    def segment(self, base: float, period_ns: float, fixed) -> None:
        """Start a loop segment at ``base``: ``fixed`` periods of
        ``period_ns``, or the count's when ``fixed`` is None."""
        self._window(base)
        if (self.count if fixed is None else fixed) > 1:
            self._scaled_at = base + period_ns
            self._passes.append((self._scaled_at, fixed is None))
        self.segments.append([period_ns, fixed, self.ops, [], ()])

    def tail(self, base: float) -> None:
        """Start the tail, the rest of the run, at ``base``."""
        self._window(base)
        self._tail = self.ops

    def _window(self, base: float) -> None:
        if self.segments:  # the segment before ends here
            self.segments[-1][4] = self._closes()
        self.opened = {}
        self._scaled_at = None
        self._start = self.base = base
        self.ops = []
        self._passes.append((base, False))

    def _closes(self) -> tuple:
        # every row a window opens closes inside it: a stream ends on a
        # PRE, and a run ends on a flush
        last_close = self.bank._last_close
        return tuple(
            (row, last_close[row] - self._start) for row in self.opened
        )

    def tap(self, tap: tuple) -> None:
        """:attr:`Bank.probe_tap` while the run is recorded."""
        kind = tap[0]
        bank = self.bank
        if kind == "touch":
            row, now_ns = tap[1], tap[2]
            scaled_at = self._scaled_at
            if scaled_at is not None and now_ns >= scaled_at:
                self.ops = self.segments[-1][3]
                self.base = scaled_at
                self._scaled_at = None
            if row not in self.opened:
                # every session row is touched when it opens, so these
                # are the rows whose last close the window moves
                self.opened[row] = (now_ns, bank._last_close.get(row))
            self.ops.append(touch_op(bank, row, now_ns - self.base))
        elif kind == "event":
            _tag, event, pattern, times = tap
            passes = self._passes
            k = len(passes) - 1
            while k > 0 and event.t_open_ns < passes[k][0]:
                k -= 1
            self.ops.append((
                "event",
                trace_event(bank, event, pattern, times, passes[k][1]),
            ))
        else:  # copy, sense
            self.ops.append(tap)

    def finish(self, end_ns: float, stats_linear: Optional[dict] = None) -> Trace:
        """The recorded run, ending at ``end_ns``; ``stats_linear`` is the
        per-count part of its counter deltas (the varying segments'
        scaled-pass deltas ``run_stream`` returns)."""
        bank = self.bank
        linear = stats_linear or {}
        scale = self.count - 1
        before = self._stats
        const = {}
        for key, value in bank.stats.items():
            delta = value - before[key] - linear.get(key, 0) * scale
            if delta and key != "refs":
                const[key] = delta
        last_pre = bank._last_pre_ns
        return Trace(
            segments=self.segments,
            tail=self._tail,
            closes=self._closes(),
            last_pre_ns=(
                None if last_pre == self._last_pre else last_pre - self._start
            ),
            tail_ns=end_ns - self._start,
            stats_const=const,
            stats_linear=linear,
        )
