"""Batched multi-victim HC_first probe engine.

The scalar search path (:mod:`repro.core.hcfirst`) runs one victim at a
time: every binary-search probe builds a fresh host, rewrites every row,
replays the hammer program and reads the victim back.  Real DRAM-Bender
campaigns amortize test time by interleaving probes across subarrays; this
module does the same for the simulated bench while staying bit-identical
to the scalar path.

Three pieces:

* **Planner** -- each victim's search unit claims a *blast set*: every row
  its probes activate, read or write (plus any row-decoder group those
  activations could co-select), widened by :data:`GUARD_DISTANCE` (the
  model deposits damage up to distance 2).  Units whose blast sets
  intersect share observable state (deposits, data, synergy ordinals) and
  are chained into one *component* that executes strictly in declared
  order -- exactly the scalar order.  Disjoint components interleave
  freely: nothing either can do is visible to the other before its next
  re-initialization, so any interleaving replays the same per-row event
  sequences.  :func:`plan_components` computes the components; adjacent
  victims always share one.

* **Search engine** -- each fused unit runs the same
  :func:`~repro.core.hcfirst.hc_first_search` coroutine as the scalar
  path, parked at its next uncached probe count.  A round runs one probe
  per component and sends each outcome straight back to its unit's
  search, so probe outcomes and histories match the scalar search probe
  for probe.

* **Fused replay** -- one probe re-initializes only the rows its unit
  touches (:meth:`BatchedSearchEngine._restore`: copy-on-write row images
  and write-session deposit plans resolved once at plan time), then runs
  the hammer loops as pre-compiled command streams through the host's
  two-pass :func:`~repro.bender.compiler.run_stream` (warm pass + one
  pass scaled by ``count - 1``) and reads the victim back at nominal
  timing; later probes of the same loop shape re-apply the first one's
  :class:`~repro.dram.replay.Trace` (the type the host's program replay
  uses) at their own count, after the same re-initialization.  All
  model-visible quantities are *gaps* between same-probe timestamps,
  every slack is a multiple of the 1.5 ns bus cycle (exact in float64),
  and the probe-boundary tAggOff sign matches the scalar host's clock
  rewind via the restore sentinel -- hence bit identity.

Every unit batches.  A setup the planner cannot prove equivalent is
refused with a :class:`ValueError` whose message starts with the guard's
name, so a new caller fails loudly instead of silently slowing down:
``multi_victim``, ``trr_attached``, ``not_loop_nest`` (a template that
is empty or not a flat sequence of loops; a ``Ref`` or ACT at the top
level is no loop), ``uncompilable_stream`` (a body that is not a
single-bank ACT/PRE stream, a ``Ref`` or nested loop in it included),
``frac_hazard`` (a session open for a FracDRAM sensing window),
``restore_joint_hazard`` (a first activation that could claim the
re-initialization write as a CoMRA/multi-copy source),
``varying_joint_hazard`` (an activation after a varying loop that could
open a copy at some probe counts only), ``clock_sensitive`` (activations
reaching rows the unit does not re-initialize, whose retention decay
would see the engine's continuous clock) and ``missing_expected``.  A
loop varies with the probe count exactly when its count is ``COUNT``; a
template whose loops all have fixed counts needs no guard: every probe
replays its one trace.  A capture raises too: ``prologue_shape`` when it
starts while the bank holds an open or held-back session, and
``count_dependent_aggoff`` when its trace cannot express every count of
its shape (see ``_check_aggoff``).

FracDRAM sensing and SiMRA charge-sharing ties consume a per-bank counter
that seeds an RNG whose bits land in row data, so every unit whose stream
timing can open a multi-row activation is chained into one component and
executes in declared order (*tie chaining*).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from ..bender.compiler import CompiledStream, compile_stream, run_stream
from ..bender.host import write_data_at_ns, write_stride_ns
from ..bender.program import COUNT, Loop
from ..disturbance.model import classify_pattern
from ..dram.bank import STREAM_ACT, STREAM_PRE, Bank
from ..dram.commands import ActivationEvent
from ..dram.replay import (
    Trace,
    TraceEvent,
    TraceRecorder,
    touch_op,
    trace_event,
)
from ..native import replay_kernel
from ..obs import NULL_OBS
from .hcfirst import (
    DEFAULT_MAX_HAMMERS,
    HcFirstResult,
    ProbeResult,
    ProbeSetup,
    hc_first_search,
)
from .metrics import count_flips

#: blast radius around every activated/written row: the disturbance model
#: deposits damage up to distance 2 from an aggressor
GUARD_DISTANCE = 2

#: upper edge of the multi-row activation trigger windows (SiMRA open and
#: multi-copy joins both require a PRE->ACT gap of at most 6 ns)
_MULTI_ACT_GAP_NS = 6.0


def blast_rows(rows: Sequence[int], guard: int = GUARD_DISTANCE) -> frozenset[int]:
    """Every row a probe over ``rows`` can observably touch."""
    out: set[int] = set()
    for row in rows:
        out.update(range(row - guard, row + guard + 1))
    return frozenset(out)


def plan_components(
    blasts: Sequence[frozenset[int]],
    chained: Sequence[int] = (),
) -> list[list[int]]:
    """Group unit indices whose blast sets transitively intersect.

    ``chained`` unit indices are additionally unioned with each other (the
    tie-counter chain).  Each component lists its units in declared order
    (the scalar execution order); distinct components share no observable
    state.
    """
    n = len(blasts)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i in range(n):
        for j in range(i + 1, n):
            if blasts[i] & blasts[j]:
                union(i, j)
    chained = list(chained)
    for i, j in zip(chained, chained[1:]):
        union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


@dataclass
class _BatchedUnit:
    """One victim's search, lowered for fused replay."""

    victim: int
    expected: np.ndarray
    snapshot: object  # RowSnapshot
    #: (stream, fixed_count) per loop; fixed_count None = probe count
    loops: list[tuple[CompiledStream, Optional[int]]]
    #: the capture probe's :meth:`BatchedSearchEngine._restore` meta and
    #: the per-row write-session entries (see :func:`_restore_plan`)
    meta: list
    writes: list
    #: the victim's snapshot image equals its expected pattern, so a probe
    #: whose trace leaves the victim's data version untouched read back
    #: exactly what was written -- zero flips without comparing bytes
    flips_by_version: bool
    #: ``(trace, restore_meta)`` keyed by loop-shape signature: the
    #: captured :class:`~repro.dram.replay.Trace` and the
    #: :meth:`BatchedSearchEngine._restore` meta of its replays (see
    #: :func:`_restore_meta`)
    traces: dict = field(default_factory=dict)
    #: ``bank.simra_group`` of every activated row pair, recorded when the
    #: unit's stream timing can open a multi-row activation (empty
    #: otherwise); translation must map each onto the shifted pair's group
    decoder_groups: dict = field(default_factory=dict)


def _restore_plan(bank: Bank, snapshot) -> tuple[list, list]:
    """``(meta, writes)``: a unit's re-initialization, resolved at plan time.

    ``meta`` holds ``(row, slot, (), image_pattern)`` per snapshot row in
    restore order: the row's ledger slot, no trace entries (a trace
    attaches its own, see :func:`_restore_meta`) and the classification of
    its image.  ``writes`` holds the row's ``(steady, cold)`` write-session
    entries, the events a host ``write_rows`` session emits (ACT ``tRP``
    into the row's stride, PRE at its end).  ``steady`` carries the -1.0
    "closed before this probe" tAggOff sentinel: the scalar search rewinds
    the host clock to zero every probe, so a row with a recorded close
    sees a negative gap, and both sit in the model's flat band below its
    minimum gap.  ``cold`` carries no tAggOff, for a row never closed; it
    is None for a row closed already, since a recorded close is never
    dropped.
    """
    timing = bank.timing
    ledger = bank.model.ledger
    closed = bank._last_close
    meta = [
        (row, ledger.slot(bank.index, row), (),
         classify_pattern(snapshot.images[row]))
        for row in snapshot.rows
    ]

    def write(row, pattern, t_agg_off):
        event = ActivationEvent(
            rows=(row,),
            kind=ActivationEvent.Kind.SINGLE,
            bank=bank.index,
            t_open_ns=timing.tRP,
            t_close_ns=write_stride_ns(timing),
            t_agg_off_ns=t_agg_off,
        )
        return trace_event(bank, event, pattern, bank.event_times)

    writes = [
        (
            write(row, pattern, {row: -1.0}),
            None if row in closed else write(row, pattern, {}),
        )
        for row, _slot, _entries, pattern in meta
    ]
    return meta, writes


def _restore_meta(unit: "_BatchedUnit", trace: Trace) -> list:
    """The :meth:`BatchedSearchEngine._restore` meta of a trace's replays:
    the unit's meta with each row's event entries attached, so restoring
    an image refreshes the version guard of every entry whose current
    pattern is the image's instead of letting each take a guard miss.

    The pattern check runs at replay time: a guard miss re-resolves an
    entry in place, so an entry whose row changed mid-probe (a copy, a
    non-identity group sensing, a realized flip) may hold another pattern
    when the next probe restores the image.
    """
    entries_by_row: dict[int, list] = {}
    for entry in trace.events():
        entries_by_row.setdefault(entry.row0, []).append(entry)
    return [
        (row, slot, tuple(entries_by_row.get(row, ())), image_pattern)
        for row, slot, _entries, image_pattern in unit.meta
    ]


def _check_aggoff(
    trace: Trace, groups: list, count: int, edge: float
) -> None:
    """Refuse a trace whose tAggOff gaps could change with the probe count.

    ``groups`` holds ``(start, scaled_ns)`` per executed loop segment,
    then the tail: ``scaled_ns`` sums the periods of the varying segments
    whose scaled pass ran before it.  A gap spanning no such pass is the
    same at every count; one spanning some grows by their summed period
    per count, and at count 2, the smallest of its shape, it is shortest.
    Below the model's flat-band ``edge`` there it could take another plan
    key at another count, so it raises :class:`ValueError`
    (``count_dependent_aggoff``).
    """
    starts = [start for start, _scaled in groups]
    for entry in trace.events():
        event = entry.event
        t_open = event.t_open_ns
        # a session opening at a group's start belongs to that group; a
        # close there is the last PRE of the group before
        scaled = groups[max(bisect_right(starts, t_open) - 1, 0)][1]
        for row, gap in event.t_agg_off_ns.items():
            closed = groups[max(bisect_left(starts, t_open - gap) - 1, 0)][1]
            spanned = scaled - closed
            if spanned and gap - spanned * (count - 2) < edge:
                raise ValueError(
                    f"count_dependent_aggoff: row {row}'s tAggOff gap "
                    f"{gap} ns at the ACT of {event.rows} changes with "
                    "the probe count"
                )


def _shape_signature(
    loops: Sequence[tuple[CompiledStream, Optional[int]]], count: int
) -> tuple[int, ...]:
    """Which passes a probe at ``count`` executes, per loop segment.

    0 = segment skipped, 1 = warm pass only, 2 = warm + scaled pass (the
    stats top-up beyond that is arithmetic, not shape).
    """
    sig = []
    for _stream, fixed in loops:
        n = count if fixed is None else fixed
        sig.append(0 if n <= 0 else 1 if n == 1 else 2)
    return tuple(sig)


@dataclass
class _UnitPlan:
    """Planner verdict for one probe setup."""

    #: the unit lowered for fused replay
    batched: _BatchedUnit
    #: rows the unit's probes can observably touch, pre-guard widening
    footprint: frozenset[int]
    #: the unit can consume the bank's tie counter (chained globally)
    tie_hazard: bool


def _frac_hazard(stream: CompiledStream) -> bool:
    """True when any session's open time can mark a row fractional."""
    lo, hi = Bank.FRAC_WINDOW_NS
    open_offset = None
    for op, offset in zip(stream.op_list, stream.offset_list):
        if op == STREAM_ACT:
            open_offset = offset
        elif open_offset is not None:  # STREAM_PRE closing a session
            if lo <= offset - open_offset <= hi:
                return True
            open_offset = None
    return False


def _joint_gaps(loops: Sequence[tuple[CompiledStream, Optional[int]]]) -> list[float]:
    """Every PRE->ACT gap the replayed streams can realize.

    Covers within-stream joints, the wrap-around joint between loop
    iterations, and the joint between consecutive loop segments.
    """
    gaps: list[float] = []
    prev_tail: Optional[float] = None
    for stream, _fixed in loops:
        first_act: Optional[float] = None
        last_pre: Optional[float] = None
        open_pre: Optional[float] = None
        for op, offset in zip(stream.op_list, stream.offset_list):
            if op == STREAM_ACT:
                if first_act is None:
                    first_act = offset
                if open_pre is not None:
                    gaps.append(offset - open_pre)
                    open_pre = None
            elif op == STREAM_PRE:
                last_pre = offset
                open_pre = offset
        assert first_act is not None and last_pre is not None
        tail = stream.duration_ns - last_pre
        gaps.append(tail + first_act)  # loop wrap-around
        if prev_tail is not None:
            gaps.append(prev_tail + first_act)  # previous segment's joint
        prev_tail = tail
    return gaps


def _lower_loops(setup: ProbeSetup) -> list[tuple[CompiledStream, Optional[int]]]:
    """Lower the setup's template into compiled loop segments, one per
    top-level ``Loop``; ``fixed`` is None where the count is ``COUNT``.

    A structural miss raises :class:`ValueError` naming the guard that
    refused the lowering.
    """
    module = setup.module
    instructions = setup.program.instructions
    if not instructions or not all(isinstance(i, Loop) for i in instructions):
        raise ValueError(
            "not_loop_nest: the program is not a flat nest of loops"
        )
    loops: list[tuple[CompiledStream, Optional[int]]] = []
    for inst in instructions:
        fixed = None if inst.count is COUNT else inst.count
        stream = compile_stream(inst.body, module)
        if stream is None or stream.bank != setup.bank:
            raise ValueError(
                "uncompilable_stream: a loop body is not a single-bank "
                "ACT/PRE stream on the setup's bank"
            )
        if _frac_hazard(stream):
            raise ValueError(
                "frac_hazard: a session's ACT->PRE lands in the FracDRAM "
                "sensing window"
            )
        loops.append((stream, fixed))
    return loops


def _copy_window(setup: ProbeSetup, gap: float) -> bool:
    """True when an ACT ``gap`` ns after a PRE could open a copy: the CoMRA
    window, or the multi-copy join window on a SiMRA-capable module."""
    module = setup.module
    return 0.0 < gap < module.timing.tRP and (
        module.bank(setup.bank).supports_comra
        or (module.model.supports_simra and gap <= _MULTI_ACT_GAP_NS)
    )


def _restore_joint_hazard(
    setup: ProbeSetup, loops: Sequence[tuple[CompiledStream, Optional[int]]]
) -> bool:
    """True when the program's first ACT could join the restore writes.

    The scalar host still holds the final initialization write's session
    pending when the program starts; a first activation within the CoMRA
    window (or the multi-copy join window) would claim it as a copy
    source.  The fused replay emits that write eagerly, so the engine
    cannot run such a unit.  Every standard pattern leads with a full-tRP
    slack and stays eligible.
    """
    for stream, fixed in loops:
        if fixed == 0:
            continue  # never executed first; counts are otherwise >= 1
        return _copy_window(setup, stream.offset_list[0])
    return False


def _varying_joint_hazard(
    setup: ProbeSetup, loops: Sequence[tuple[CompiledStream, Optional[int]]]
) -> bool:
    """True when the ACT after a varying segment could open a copy.

    After a scaled pass the bank's last PRE lies ``count - 2`` periods
    before the real one, so the joint gap is the true one only at counts
    1 and 2 and grows by the varying period per count: a copy the next
    segment's first ACT opens at count 2 is gone at larger counts, and a
    trace captured at one count replays another without it.
    """
    varying_tail: Optional[float] = None
    for stream, fixed in loops:
        if fixed == 0:
            continue
        if varying_tail is not None and _copy_window(
            setup, varying_tail + stream.offset_list[0]
        ):
            return True
        varying_tail = (
            stream.duration_ns - stream.offset_list[-1] if fixed is None
            else None
        )
    return False


def plan_unit(setup: ProbeSetup) -> _UnitPlan:
    """Lower one probe setup for the batched engine.

    Raises :class:`ValueError` whose message starts with the name of the
    guard that refuses the setup (see the module docstring).
    """
    module = setup.module
    bank = module.bank(setup.bank)
    row_keys = set(setup.row_data)
    if len(setup.victims) != 1:
        raise ValueError(
            f"multi_victim: the engine searches one victim per setup, "
            f"got {len(setup.victims)}"
        )
    if bank.trr is not None:
        raise ValueError("trr_attached: a TRR hook observes every command")
    loops = _lower_loops(setup)
    if _restore_joint_hazard(setup, loops):
        raise ValueError(
            "restore_joint_hazard: the first ACT could claim the last "
            "initialization write as a copy source"
        )
    if _varying_joint_hazard(setup, loops):
        raise ValueError(
            "varying_joint_hazard: the ACT after a varying loop could open "
            "a copy at some probe counts only"
        )
    # a lowered stream is ACT/PRE only, so its ACTs are every row it touches
    acted = {row for stream, _fixed in loops for row in stream.act_rows}

    # Can any activation in this unit open a multi-row (SiMRA / multi-copy)
    # session?  Only then can decoder groups pull in extra rows or
    # charge-sharing ties consume the bank's tie counter.
    may_group = module.model.supports_simra and any(
        0.0 < gap <= _MULTI_ACT_GAP_NS for gap in _joint_gaps(loops)
    )
    decoder_groups: dict = {}
    if may_group:
        acted_list = sorted(acted)
        for i, row_a in enumerate(acted_list):
            for row_b in acted_list[i + 1 :]:
                decoder_groups[row_a, row_b] = bank.simra_group(row_a, row_b)
    group_rows = {
        row for group in decoder_groups.values() if group for row in group
    }
    if not (acted | group_rows) <= row_keys:
        raise ValueError(
            "clock_sensitive: activated rows "
            f"{sorted((acted | group_rows) - row_keys)} are not re-initialized "
            "every probe"
        )

    victim = setup.victims[0]
    try:
        expected = setup.victim_expected(victim)
    except KeyError:
        raise ValueError(
            f"missing_expected: victim {victim} has no expected image"
        ) from None
    snapshot = bank.snapshot_rows(setup.row_data)
    meta, writes = _restore_plan(bank, snapshot)
    expected = np.resize(
        np.asarray(expected, dtype=np.uint8), module.geometry.row_bytes
    )
    batched = _BatchedUnit(
        victim=victim,
        expected=expected,
        snapshot=snapshot,
        loops=loops,
        meta=meta,
        writes=writes,
        flips_by_version=bool(
            np.array_equal(snapshot.images[victim], expected)
        ),
        decoder_groups=decoder_groups,
    )
    # frac sensing is guarded out of the streams, so a unit can only tie
    # via charge sharing
    return _UnitPlan(
        batched=batched,
        footprint=frozenset(row_keys | acted | group_rows),
        tie_hazard=may_group,
    )


class BatchedSearchEngine:
    """Advance many HC_first searches with shared fused replays."""

    def __init__(
        self,
        setups: Sequence[ProbeSetup],
        repeats: int = 5,
        max_hammers: int = DEFAULT_MAX_HAMMERS,
        obs=None,
    ) -> None:
        if not setups:
            raise ValueError("no probe setups")
        #: metrics registry; the default no-op registry keeps the probe
        #: loop overhead at one empty method call per probe and reads no
        #: clock for the ``probe.stage.*`` timers
        self.obs = obs if obs is not None else NULL_OBS
        module = setups[0].module
        bank_index = setups[0].bank
        for setup in setups:
            if setup.module is not module or setup.bank != bank_index:
                raise ValueError(
                    "batched searches must share one module and bank"
                )
        self.module = module
        self.bank = module.bank(bank_index)
        self.repeats = repeats
        self.max_hammers = max_hammers

        plans = [plan_unit(setup) for setup in setups]
        n = len(plans)
        chained = [i for i, plan in enumerate(plans) if plan.tie_hazard]
        self.components = plan_components(
            [blast_rows(plan.footprint) for plan in plans], chained
        )
        self.units = [plan.batched for plan in plans]
        self.results: list[Optional[HcFirstResult]] = [None] * n
        # shape classes: a unit whose streams, snapshot and row images are
        # a pure row-translation of an earlier unit's can reuse that
        # unit's compiled trace (translated) instead of paying its own
        # capture probe
        self._donor: list[Optional[tuple[int, int, Optional[dict]]]] = (
            [None] * n
        )
        reps: list[int] = []
        for i in range(n):
            for r in reps:
                match = self._translation_of(r, i)
                if match is not None:
                    delta, pi = match
                    self._donor[i] = (r, delta, pi)
                    break
            else:
                reps.append(i)

        self.clock = 0.0
        # emit a session a host left held back on the bank: a capture
        # refuses to start while one is pending (``prologue_shape``)
        self.bank.flush(self.clock)

    # -- fused replay ----------------------------------------------------
    def _probe(self, i: int, count: int) -> ProbeResult:
        """One probe of unit ``i``: a captured trace's replay when one fits.

        The first probe of each loop shape runs the full command pipeline
        under capture taps; every later probe of that shape re-applies the
        compiled trace's resolved deposit plans directly.  Capturing works
        even on the unit's very first probe: the only probe-1-specific
        event shapes are the re-initialization's write sessions (no steady
        tAggOff sentinel yet), which :meth:`_restore` picks per row on
        every probe, and cross-probe tAggOff gaps, which are always past
        the model's flat-band edge and hence plan-equivalent.
        """
        unit = self.units[i]
        obs = self.obs
        timed = obs.enabled
        sig = _shape_signature(unit.loops, count)
        cached = unit.traces.get(sig)
        donor = self._donor[i] if cached is None else None
        if donor is not None:
            r, delta, pi = donor
            donor_cached = self.units[r].traces.get(sig)
            if donor_cached is not None:
                t0 = perf_counter() if timed else 0.0
                trace = self._translate_trace(donor_cached[0], delta, pi)
                cached = unit.traces[sig] = (
                    trace, _restore_meta(unit, trace)
                )
                if timed:
                    obs.observe_s("probe.stage.translate", perf_counter() - t0)
        if cached is None:
            obs.inc("probe.probes", path="capture")
            t0 = perf_counter() if timed else 0.0
            result = self._capture_probe(i, count, sig)
            if timed:
                obs.observe_s("probe.stage.capture", perf_counter() - t0)
            return result
        obs.inc("probe.probes", path="interp")
        return self._replay_probe_fast(i, count, *cached)

    def _restore(self, unit: _BatchedUnit, meta: list) -> float:
        """Re-initialize the unit's rows at the engine clock; returns the
        end of the pass.

        Leaves the bank as a host ``write_rows`` pass over the snapshot
        would -- same data, per-row restore and close bookkeeping,
        counters, per-row write-session deposits (so victim synergy
        ordinals advance identically) and the tie a fractional row's
        write session takes -- without command dispatch: a row's image is
        copied only when its data version moved since it was last written
        (copy-on-write), and each row's write-session plan is applied one
        row late (the pipeline's one-command holdback), its steady or
        cold entry chosen before the row's close is recorded.  Three
        write-path details are skipped because they have no surviving
        effect: the per-ACT charge restoration (its decay sees a
        non-positive elapsed time inside a search, and the write and
        ledger restore overwrite whatever flips it realizes), the
        session's PRE->ACT gap (single-row plans ignore it) and the last
        PRE (no session is held back after the pass, so the probe's first
        ACT can start no copy and its gap reaches no plan; every probe
        ends on its own PRE).  Runs in the compiled replay kernel
        (``restore_rows`` in ``dram/replay.c``); the image copy is
        ``Bank._write_image``.
        """
        timing = self.module.timing
        snapshot = unit.snapshot
        return replay_kernel().restore_rows(
            self.bank, meta, unit.writes, snapshot.versions, snapshot.images,
            self.clock, write_data_at_ns(timing), write_stride_ns(timing),
        )

    def _capture_probe(self, i: int, count: int, sig) -> ProbeResult:
        """Run one probe through the command pipeline with a
        :class:`~repro.dram.replay.TraceRecorder` on the bank's probe tap,
        and keep its trace for the later probes of its shape.

        The executed loop segments are the trace's segments, run by
        ``run_stream`` (whose scaled-pass counter deltas, summed over the
        varying segments, are the trace's ``stats_linear``); the final
        flush and the victim read are its tail.  Every event kind
        records, SiMRA included: its plan resolves through
        ``model.resolve_plan`` like any other, and the group sensing it
        follows is a ``sense`` op that replay runs through the same
        ``Bank._sense_group`` on the same bank state, so charge-sharing
        writes and ties stay exact without a guard.  Raises
        :class:`ValueError` (``count_dependent_aggoff``, see
        :func:`_check_aggoff`) when the trace cannot express the probe.
        """
        unit = self.units[i]
        bank = self.bank
        timing = self.module.timing
        if bank._open is not None or bank._pending is not None:
            raise ValueError(
                "prologue_shape: the bank holds an open or held-back "
                "session, which would land in the probe's re-initialization"
            )
        t = self._restore(unit, unit.meta)
        recorder = TraceRecorder(bank, count)
        #: ``(start, scaled_ns)`` per executed segment, then the tail
        groups: list = []
        scaled_ns = 0.0
        linear: dict = {}
        bank.probe_tap = recorder.tap
        try:
            for stream, fixed in unit.loops:
                loop_count = count if fixed is None else fixed
                if loop_count > 0:
                    recorder.segment(t, stream.duration_ns, fixed)
                    groups.append((t, scaled_ns))
                    deltas = run_stream(bank, stream, t, loop_count)
                    if fixed is None:
                        for key, delta in deltas.items():
                            linear[key] = linear.get(key, 0) + delta
                        if loop_count > 1:
                            scaled_ns += stream.duration_ns
                    t += stream.duration_ns * loop_count
            recorder.tail(t)
            groups.append((t, scaled_ns))
            bank.flush(t)
            t += timing.tRP
            bank.act(unit.victim, t)
            data = bank.rd(unit.victim, t + timing.tRCD)
            bank.pre(t + timing.tRAS)
            # Emit the read session now rather than holding it to the next
            # probe's re-initialization: its content froze at the PRE, and
            # no interleaved unit touches this victim's rows before that
            # re-initialization would run (disjoint blast sets), so the
            # deposit lands on identical state either way.
            bank.flush(t + timing.tRAS)
        finally:
            bank.probe_tap = None
        self.clock = t + timing.tRAS
        trace = recorder.finish(self.clock, linear)
        _check_aggoff(trace, groups, count, bank.model._AGGOFF_REF_GAP_NS)
        unit.traces[sig] = (trace, _restore_meta(unit, trace))
        flips = count_flips(data, unit.expected)
        return ProbeResult(
            count, flips, (unit.victim,) if flips else ()
        )

    def _translation_of(self, r: int, i: int) -> Optional[tuple]:
        """``(delta, pi)`` turning unit ``r`` into unit ``i``, or None.

        The command pipeline is deterministic in the stream's op/offset
        shape, the activated rows, the row images and the timing -- none
        of the per-row runtime state (damage, retention, realized flips)
        changes *which* taps a probe produces, only what the replayed
        guards do with them.  So when unit ``i`` is unit ``r`` shifted by
        a constant row delta, ``r``'s compiled trace translates into
        ``i``'s exactly.

        Row data enters the model only through ``pattern_of``
        classification, so the images need not be byte-identical: ``pi``
        is a donor-pattern -> unit-pattern substitution (None when the
        images match bytewise) applied to every captured pattern during
        translation.  Divergent rows must classify to definite patterns
        forming one consistent map.  ``pi`` acts per *pattern*, so it
        may also remap a byte-equal row's pattern; that costs one guard
        miss, not a wrong plan, since every translated entry re-checks
        its pattern on first application.  Expected read-back data is
        not compared: it only feeds per-unit flip counting, which
        translation recomputes per unit.

        The row decoder is the one place where *which* rows a command
        reaches depends on the address bits, not just the shift: a pair
        that merges into a SiMRA group (or stays apart) may not do so
        once shifted.  So every recorded pair's ``simra_group`` must map
        onto the shifted pair's group -- a 32-row-aligned shift inside
        one subarray always does, a misaligned one rarely -- or the unit
        captures its own trace.
        """
        ur = self.units[r]
        ui = self.units[i]
        delta = ui.victim - ur.victim
        if len(ur.loops) != len(ui.loops):
            return None
        for (sr, fr), (si, fi) in zip(ur.loops, ui.loops):
            if fr != fi or sr.duration_ns != si.duration_ns:
                return None
            if sr.op_list != si.op_list or sr.offset_list != si.offset_list:
                return None
            shifted = [
                row + delta if op == STREAM_ACT else row
                for op, row in zip(sr.op_list, sr.row_list)
            ]
            if shifted != si.row_list:
                return None
        simra_group = self.bank.simra_group
        for (row_a, row_b), group in ur.decoder_groups.items():
            if simra_group(row_a + delta, row_b + delta) != (
                None if group is None else tuple(row + delta for row in group)
            ):
                return None
        rows_r = ur.snapshot.rows
        rows_i = ui.snapshot.rows
        if tuple(row + delta for row in rows_r) != rows_i:
            return None
        images_r = ur.snapshot.images
        images_i = ui.snapshot.images
        diverged = [
            row for row in rows_r
            if not np.array_equal(images_r[row], images_i[row + delta])
        ]
        if not diverged:
            return delta, None
        pi: dict = {}
        for row in diverged:
            pa = classify_pattern(images_r[row])
            pb = classify_pattern(images_i[row + delta])
            if pa is None or pb is None:
                return None
            if pi.setdefault(pa, pb) != pb:
                return None
        return delta, pi

    def _translate_trace(
        self, donor: Trace, delta: int, pi: Optional[dict] = None
    ) -> Trace:
        """Re-target a donor unit's trace by a constant row shift.

        Events are rebuilt with shifted rows, their patterns remapped
        through ``pi``, and their plans resolved by ``model.resolve_plan``
        under the row-shifted key (``model.shift_plan_key``): a hit reuses
        the cached plan, a miss builds it for the shifted event -- the
        same single cache lookup and the same builders as the scalar
        apply path.  The ``version=None`` guard re-checks each pattern on
        first application anyway.  Touch ops re-resolve their ledger slot
        and retention threshold, and sense ops recompute their partial set
        from the shifted rows' profiles (``_translation_of`` already
        proved the shifted pair opens the shifted group).  An event's
        ``partial`` flag is carried over as-is: it enters neither the plan
        nor its key.  Closes shift with their rows; the timing, last PRE
        and counter arithmetic are structural and shared as-is; the
        re-initialization is the unit's own (:func:`_restore_plan`).
        """
        bank = self.bank
        model = bank.model
        temperature = bank.temperature_c
        resolve_plan = model.resolve_plan
        shift_plan_key = model.shift_plan_key

        def entry_of(entry: TraceEvent) -> TraceEvent:
            event = entry.event
            rows = tuple(row + delta for row in event.rows)
            # direct field-for-field construction: dataclasses.replace sits
            # on the per-unit translation path and costs several times the
            # constructor call
            shifted = ActivationEvent(
                rows=rows,
                kind=event.kind,
                bank=event.bank,
                t_open_ns=event.t_open_ns,
                t_close_ns=event.t_close_ns,
                pre_to_act_ns=event.pre_to_act_ns,
                simra_act_to_pre_ns=event.simra_act_to_pre_ns,
                t_agg_off_ns={
                    row + delta: gap
                    for row, gap in event.t_agg_off_ns.items()
                },
                partial=event.partial,
            )
            pattern = entry.pattern
            if pi is not None:
                pattern = pi.get(pattern, pattern)
            plan, key = resolve_plan(
                shifted, temperature, pattern,
                shift_plan_key(entry.plan_key, delta, pattern),
            )
            return TraceEvent(
                shifted, rows[0], pattern, plan,
                entry.scaled, entry.times, plan_key=key,
            )

        def ops_of(ops: list) -> list:
            out = []
            for op in ops:
                tag = op[0]
                if tag == "touch":
                    out.append(touch_op(bank, op[1] + delta, op[2]))
                elif tag == "event":
                    out.append(("event", entry_of(op[1])))
                elif tag == "copy":
                    out.append(("copy", op[1] + delta, op[2] + delta))
                else:  # sense
                    _tag, group, _partial, copy_src, act_to_pre = op
                    group = tuple(row + delta for row in group)
                    out.append((
                        "sense", group,
                        bank._partial_rows(group, act_to_pre),
                        None if copy_src is None else copy_src + delta,
                        act_to_pre,
                    ))
            return out

        def closes_of(closes: tuple) -> tuple:
            return tuple((row + delta, rel) for row, rel in closes)

        return replace(
            donor,
            segments=[
                [period, fixed, ops_of(warm), ops_of(scaled), closes_of(closes)]
                for period, fixed, warm, scaled, closes in donor.segments
            ],
            tail=ops_of(donor.tail),
            closes=closes_of(donor.closes),
        )

    def _replay_probe_fast(
        self, i: int, count: int, trace: Trace, meta: list
    ) -> ProbeResult:
        """Re-apply a captured probe trace after the unit's
        re-initialization; state-identical to the capture probe by
        construction (same re-initialization, same plan applications in
        the same order, and :meth:`Trace.replay` leaves the closes, last
        PRE and counters where a capture at ``count`` does), minus the
        command pipeline."""
        unit = self.units[i]
        bank = self.bank
        obs = self.obs
        timed = obs.enabled
        t_stage = perf_counter() if timed else 0.0
        t = self._restore(unit, meta)
        if timed:
            now = perf_counter()
            obs.observe_s("probe.stage.replay_snapshot", now - t_stage)
            t_stage = now
        bank_versions = bank._data_version
        victim = unit.victim
        # after the re-initialization the victim's data equals its snapshot
        # image; if no later op moves its version, the read-back is
        # flip-free without comparing bytes
        victim_version = (
            bank_versions.get(victim, 0) if unit.flips_by_version else None
        )
        self.clock = trace.replay(bank, t, count)
        if (
            victim_version is not None
            and bank_versions.get(victim, 0) == victim_version
        ):
            flips = 0
        else:
            flips = count_flips(bank._row_data(victim), unit.expected)
        if timed:
            obs.observe_s("probe.stage.replay_kernel", perf_counter() - t_stage)
        return ProbeResult(
            count, flips, (victim,) if flips else ()
        )

    # -- driver ----------------------------------------------------------
    def run(self) -> list[HcFirstResult]:
        # one search coroutine per unit, parked at its next uncached probe
        # count; a round probes the head unit of every unfinished component
        searches = [
            hc_first_search(self.repeats, self.max_hammers)
            for _ in self.units
        ]
        counts = [next(search) for search in searches]
        heads = [0] * len(self.components)
        live = list(range(len(self.components)))
        while live:
            # a search step touches only its own unit's state, which no
            # other unit's probe in the round reads
            for c in live:
                i = self.components[c][heads[c]]
                try:
                    counts[i] = searches[i].send(self._probe(i, counts[i]))
                except StopIteration as stop:
                    self.results[i] = stop.value
                    heads[c] += 1
            live = [c for c in live if heads[c] < len(self.components[c])]
        return self.results  # type: ignore[return-value]


def run_batched_searches(
    setups: Sequence[ProbeSetup],
    repeats: int = 5,
    max_hammers: int = DEFAULT_MAX_HAMMERS,
    obs=None,
) -> list[HcFirstResult]:
    """Run many single-victim HC_first searches with fused batched probes.

    Every setup runs the §4.2 search of
    :func:`~repro.core.hcfirst.hc_first_search`; the result is
    bit-identical to calling
    :func:`~repro.core.hcfirst.find_hc_first_repeated` on each setup in
    order, histories and cache hits included.  A setup the engine cannot
    prove equivalent raises :class:`ValueError` naming the refusing guard
    (see the module docstring) before any probe runs; a capture whose
    trace cannot express the probe raises mid-run.

    ``obs`` (a :class:`repro.obs.Obs`) records the probe path taken per
    probe (``probe.probes{path=capture|interp}``) and each probe's
    per-stage wall time as ``probe.stage.<key>`` timers: ``capture``
    (tap-instrumented probes through the command pipeline), ``translate``
    (trace translation onto shifted units), ``replay_snapshot`` (a
    replay's re-initialization: snapshot restore and ledger bookkeeping) and
    ``replay_kernel`` (trace replay hammer segments and tail:
    fault-model plan application, touches, flip realization).  The
    default no-op registry skips the clock reads entirely.
    """
    if not setups:
        return []
    return BatchedSearchEngine(
        setups, repeats=repeats, max_hammers=max_hammers, obs=obs
    ).run()
