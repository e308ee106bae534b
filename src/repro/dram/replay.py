"""Trace ops: re-applying captured device-model effects directly.

Two replays share this interpreter: the batched probe engine
(:mod:`repro.core.probe_batch`) re-applies a captured HC_first probe, and
the DRAM Bender host (:mod:`repro.bender.host`) a captured run of a
program it runs again.  Both capture through :attr:`Bank.probe_tap` and
compile the taps, in application order, into ops:

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

:func:`run_ops` hands any other op to its caller's ``other(op, base)``
handler (the host's REF and TRR ops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..disturbance.ledger import N_POOLS


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


def run_ops(
    bank, ops: list, base: float, scaled_times: float = 0.0, other=None
) -> None:
    """Re-apply ``ops`` on ``bank``, times relative to ``base``.

    State-identical to the captured command pipeline: the same restores
    and plan applications in the same order.  The version-match common
    case of the event guard is inlined (one dict probe); only guard
    misses call :func:`apply_event`.
    """
    model = bank.model
    apply_plan = model._apply_plan
    dv_get = bank._data_version.get
    last_restore = bank._last_restore
    restore_full = bank._restore_row
    led = model.ledger
    dmg = led.dmg
    flips_mv = led.flips_mv
    pool_order = led.pool_order
    flipped = led.flipped
    for op in ops:
        tag = op[0]
        if tag == "event":
            entry = op[1]
            times = scaled_times if entry.scaled else entry.times
            if dv_get(entry.row0, 0) == entry.version:
                apply_plan(entry.plan, times)
                continue
            apply_event(bank, entry, times)
            # a re-resolved plan may allocate ledger slots, and growth
            # swaps the buffers behind the views
            dmg = led.dmg
            flips_mv = led.flips_mv
        elif tag == "touch":
            # _restore_row where nothing observable can happen --
            # retention below threshold and damage below the realize
            # early-out -- reduces to the model's ledger restore
            # (pool_order keeps the reference dict's insertion order, so
            # the guard sum accumulates in the identical float sequence)
            row = op[1]
            t = base + op[2]
            last = last_restore.get(row)
            if last is not None and t - last > op[4]:
                restore_full(row, t)
                continue
            slot = op[3]
            if slot is None:
                slot = led.peek(bank.index, row)
                if slot is None:
                    last_restore[row] = t
                    continue
            order = pool_order[slot]
            if order:
                pool_base = slot * N_POOLS
                total = 0.0
                for pool in order:
                    total += dmg[pool_base + pool]
                if total >= 0.999:
                    restore_full(row, t)
                    continue
                for pool in order:
                    dmg[pool_base + pool] = 0.0
                order.clear()
            s2 = slot + slot
            flips_mv[s2] = 0
            flips_mv[s2 + 1] = 0
            cells = flipped[slot]
            if cells:
                cells.clear()
            last_restore[row] = t
        elif tag == "copy":
            bank._row_data(op[2])[:] = bank._row_data(op[1])
            bank._bump_version(op[2])
        elif tag == "sense":
            bank._sense_group(op[1], op[2], op[3])
        else:
            other(op, base)
            dmg = led.dmg
            flips_mv = led.flips_mv
