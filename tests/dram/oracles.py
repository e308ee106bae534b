"""The Python bodies of the replay kernel's loops (``dram/replay.c``).

They are the reference the kernel is tested against, each as it ran in
Python before it moved to C: ``apply_plan`` is
``DisturbanceModel._apply_plan``; ``run_ops`` and ``replay`` are
``Trace.replay`` and its per-pass loop; ``restore`` is
``BatchedSearchEngine._restore``; ``restore_row`` is
``Bank._restore_row``; ``realize_flips``, ``coupled_damage``,
``flip_target`` and ``flip_cells`` are ``DisturbanceModel.realize_flips``
and its helpers (``coupled_damage`` visiting mechanisms in ledger
``MECHANISMS`` order, which does not depend on the hash seed).
:func:`python_kernel` installs them all on the classes, so a module built
inside it runs the pure-Python pipeline end to end.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from repro.bender.host import write_data_at_ns, write_stride_ns
from repro.core.probe_batch import BatchedSearchEngine
from repro.disturbance.calibration import FlipDirection
from repro.disturbance.distributions import normal_cdf
from repro.disturbance.ledger import (
    DIR_INDEX,
    MECH_INDEX,
    MECHANISMS,
    N_POOLS,
    POOL_MECHS,
)
from repro.disturbance.model import SYNERGY_HIT_WINDOW, DisturbanceModel
from repro.dram.bank import Bank
from repro.dram.replay import Trace, apply_event


def apply_plan(model, plan: list, times: float) -> None:
    led = model.ledger
    dmg = led.dmg
    hits_mv = led.hits_mv
    side_mv = led.side_mv
    orders = led.pool_order
    for slot, side, p_dom, p_oth, inc_dom, inc_oth, penalty in plan:
        hits = hits_mv[slot] + 1
        hits_mv[slot] = hits
        s2 = slot + slot
        if side is None:
            # sandwiched double-sided hit: both wordlines toggle
            side_mv[s2] = hits
            side_mv[s2 + 1] = hits
            scale = times
        else:
            if side < 0:
                side_mv[s2] = hits
                other = side_mv[s2 + 1]
            else:
                side_mv[s2 + 1] = hits
                other = side_mv[s2]
            # NO_HIT sentinel makes the window test False without a
            # presence check (hits - NO_HIT is astronomically large)
            scale = (
                times if hits - other <= SYNERGY_HIT_WINDOW
                else times / penalty
            )
        order = orders[slot]
        base = slot * N_POOLS
        if p_dom not in order:
            order.append(p_dom)
        i = base + p_dom
        dmg[i] = dmg[i] + inc_dom * scale
        if p_oth not in order:
            order.append(p_oth)
        i = base + p_oth
        dmg[i] = dmg[i] + inc_oth * scale


def run_ops(
    bank, ops: list, base: float, scaled_times: float = 0.0, other=None
) -> None:
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


def replay(trace, bank, base: float, count: int = 1, other=None) -> float:
    scaled_times = count - 1.0
    last_close = bank._last_close
    for period, fixed, warm_ops, scaled_ops, closes in trace.segments:
        n = count if fixed is None else fixed
        run_ops(bank, warm_ops, base, scaled_times, other)
        if n > 1:
            run_ops(bank, scaled_ops, base + period, scaled_times, other)
        for row, rel in closes:
            last_close[row] = base + rel
        base += period * n
    run_ops(bank, trace.tail, base, scaled_times, other)
    for row, rel in trace.closes:
        last_close[row] = base + rel
    if trace.last_pre_ns is not None:
        bank._last_pre_ns = base + trace.last_pre_ns
    stats = bank.stats
    for key, value in trace.stats_const.items():
        stats[key] += value
    if count > 1:
        for key, value in trace.stats_linear.items():
            stats[key] += value * (count - 1)
    return base + trace.tail_ns


def restore(engine, unit, meta: list) -> float:
    bank = engine.bank
    model = bank.model
    timing = engine.module.timing
    t_wr_at = write_data_at_ns(timing)
    stride = write_stride_ns(timing)
    snapshot = unit.snapshot
    bank_versions = bank._data_version
    versions = snapshot.versions
    images = snapshot.images
    last_restore = bank._last_restore
    last_close = bank._last_close
    frac = bank._frac
    led_restore = model.ledger.restore
    apply_plan = model._apply_plan
    t = engine.clock
    pending_entry = None
    for (row, slot, entries, image_pattern), (steady, cold) in zip(
        meta, unit.writes
    ):
        if pending_entry is not None:
            apply_plan(pending_entry.plan, pending_entry.times)
        pending_entry = steady if row in last_close else cold
        if bank_versions.get(row, 0) != versions.get(row):
            bank._row_data(row)[:] = images[row]
            bank._bump_version(row)
            version = bank_versions[row]
            versions[row] = version
            for entry in entries:
                if entry.pattern == image_pattern:
                    entry.version = version
        last_restore[row] = t + t_wr_at
        if row in frac:
            frac.discard(row)
            bank._tie_counter += 1
        led_restore(slot)
        last_close[row] = t + stride
        t += stride
    if pending_entry is not None:
        apply_plan(pending_entry.plan, pending_entry.times)
    stats = bank.stats
    n = len(meta)
    stats["acts"] += n
    stats["writes"] += n
    stats["pres"] += n
    return t


def restore_row(bank, row: int, now_ns: float) -> None:
    if bank.probe_tap is not None:
        bank.probe_tap(("touch", row, now_ns))
    data = bank._row_data(row)
    changed = 0
    last = bank._last_restore.get(row)
    if last is not None:
        elapsed = now_ns - last
        changed += bank.retention.apply_decay(bank.index, row, elapsed, data)
    changed += bank.model.realize_flips(bank.index, row, data)
    bank.model.restore_row(bank.index, row)
    if changed:
        bank._bump_version(row)
    bank._last_restore[row] = now_ns


def coupled_damage(model, bank: int, row: int, direction) -> float:
    led = model.ledger
    slot = led.peek(bank, row)
    if slot is None:
        return 0.0
    order = led.pool_order[slot]
    if not order:
        return 0.0
    prof = model.profile(bank, row)
    dmg = led.dmg
    base = slot * N_POOLS
    d_i = DIR_INDEX[direction]
    d_o = d_i ^ 1
    best = 0.0
    present = {POOL_MECHS[p] for p in order}
    mechanisms = [mech for mech in MECHANISMS if mech in present]
    for mech in mechanisms:
        own_base = base + MECH_INDEX[mech] * 2
        coupled = dmg[own_base + d_i]
        for other in mechanisms:
            if other is mech:
                continue
            eta = prof.eta.get((other, mech), 0.0)
            oth_base = base + MECH_INDEX[other] * 2
            coupled += eta * (dmg[oth_base + d_i] + dmg[oth_base + d_o])
        best = max(best, coupled)
    return best


def realize_flips(model, bank: int, row: int, data) -> int:
    led = model.ledger
    slot = led.peek(bank, row)
    if slot is None:
        return 0
    order = led.pool_order[slot]
    if not order:
        return 0
    dmg = led.dmg
    base = slot * N_POOLS
    total = 0.0
    for pool in order:
        total += dmg[base + pool]
    if total < 0.999:
        return 0
    prof = model.profile(bank, row)
    total_new = 0
    bits = None
    flips_mv = led.flips_mv
    s2 = slot + slot
    flipped_cells = led.flipped[slot]
    for direction in FlipDirection:
        effective = model.coupled_damage(bank, row, direction)
        if effective < 1.0:
            continue
        if bits is None:
            bits = np.unpackbits(data)
        target = model._flip_target(prof, effective)
        already = flips_mv[s2 + DIR_INDEX[direction]]
        needed = target - already
        if needed <= 0:
            continue
        flipped = model._flip_cells(
            bank, row, bits, direction, needed, flipped_cells
        )
        flips_mv[s2 + DIR_INDEX[direction]] = already + flipped
        total_new += flipped
    if total_new and bits is not None:
        data[:] = np.packbits(bits)
    return total_new


def flip_target(model, prof, effective_damage: float) -> int:
    sigma = model.vendor_cal.cell_sigma
    quantile = normal_cdf((math.log(effective_damage) - 2.5 * sigma) / sigma)
    extra = int(prof.weak_cells * quantile)
    return max(1, extra)


def flip_cells(
    model, bank: int, row: int, bits, direction, needed: int,
    already_flipped: set,
) -> int:
    order = model._flip_order(bank, row, direction)
    candidates = bits[order] == direction.vulnerable_bit
    if already_flipped:
        blocked = np.zeros(bits.shape[0], dtype=bool)
        blocked[list(already_flipped)] = True
        candidates &= ~blocked[order]
    picks = np.flatnonzero(candidates)
    if picks.size > needed:
        picks = picks[:needed]
    if picks.size == 0:
        return 0
    cells = order[picks]
    bits[cells] ^= 1
    already_flipped.update(map(int, cells))
    return int(cells.size)


#: (class, attribute, oracle) for every body the kernel runs
ORACLES = (
    (DisturbanceModel, "_apply_plan", apply_plan),
    (Trace, "replay", replay),
    (BatchedSearchEngine, "_restore", restore),
    (Bank, "_restore_row", restore_row),
    (DisturbanceModel, "realize_flips", realize_flips),
    (DisturbanceModel, "coupled_damage", coupled_damage),
    (DisturbanceModel, "_flip_target", flip_target),
    (DisturbanceModel, "_flip_cells", flip_cells),
)


@contextmanager
def python_kernel():
    """Run the kernel's bodies in Python while the block runs: every
    module, engine and trace inside it uses the oracles instead."""
    saved = [(cls, name, cls.__dict__.get(name)) for cls, name, _ in ORACLES]
    for cls, name, oracle in ORACLES:
        setattr(cls, name, oracle)
    try:
        yield
    finally:
        for cls, name, method in saved:
            if method is None:
                delattr(cls, name)
            else:
                setattr(cls, name, method)
