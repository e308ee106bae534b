"""Property test: the damage ledger vs the frozen dict row-state.

The fault model's hot state used to live in per-row dicts (one
``_RowState`` per touched row).  The structure-of-arrays
:class:`~repro.disturbance.ledger.DamageLedger` replaced it with flat
numpy arrays plus a ``pool_order`` list that reproduces dict insertion
order; the refactor claims *bit identity*, not approximate equality.

This test replays randomized activation-event streams -- all four
disturbance flavors (RowHammer ACTs, RowPress-extended tAggOn, CoMRA
copy pairs, SiMRA multi-row activations), mixed ``times`` scaling and
interleaved charge restores -- through the real model and, in lockstep,
through a frozen reimplementation of the pre-ledger dict semantics.
Damage pools, ``coupled_damage`` contractions and ``realize_flips``
outcomes must agree bit for bit at every step.

The dict reference consumes the model's own deposit plans (slot indices
mapped back to rows via ``ledger.key_of``, pool indices via
``POOL_KEYS``): plan *construction* is covered by the scalar-equivalence
suites; what is frozen here is the hot-state machinery the ledger
replaced -- accumulation, synergy windows, restore, eta contraction and
flip realization (including the pre-vectorization per-cell walk).  The
model's ``_apply_plan`` is the compiled replay kernel's (``dram/replay.c``),
so the twin checks the C plan application too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.disturbance import ALL_PATTERNS
from repro.disturbance.calibration import FlipDirection
from repro.disturbance.ledger import DIR_INDEX, MECHANISMS, POOL_KEYS
from repro.disturbance.model import SYNERGY_HIT_WINDOW
from repro.dram import make_module
from repro.dram.commands import ActivationEvent

#: a SiMRA-capable config so the stream exercises all mechanisms
CONFIG = "hynix-a-8gb"


class DictRowStateReference:
    """The pre-ledger row-state implementation, frozen for comparison."""

    def __init__(self, model):
        self.model = model
        self.ledger = model.ledger
        self.states: dict = {}

    def _state(self, bank: int, row: int) -> dict:
        state = self.states.get((bank, row))
        if state is None:
            state = {
                "damage": {},  # (mech, dir) -> float, insertion-ordered
                "hits": 0,
                "side": [None, None],  # last hit ordinal from below/above
                "flips": {d: 0 for d in FlipDirection},
                "flipped": set(),
            }
            self.states[(bank, row)] = state
        return state

    # -- plan application (the dict twin of DisturbanceModel._apply_plan)
    def apply_plan(self, plan: list, times: float) -> None:
        key_of = self.ledger.key_of
        for slot, side, p_dom, p_oth, inc_dom, inc_oth, penalty in plan:
            bank, row = key_of(slot)
            st = self._state(bank, row)
            st["hits"] += 1
            hits = st["hits"]
            sides = st["side"]
            if side is None:
                sides[0] = hits
                sides[1] = hits
                scale = times
            else:
                idx = 0 if side < 0 else 1
                sides[idx] = hits
                other = sides[1 - idx]
                scale = (
                    times
                    if other is not None
                    and hits - other <= SYNERGY_HIT_WINDOW
                    else times / penalty
                )
            damage = st["damage"]
            for pool, inc in ((p_dom, inc_dom), (p_oth, inc_oth)):
                pkey = POOL_KEYS[pool]
                damage[pkey] = damage.get(pkey, 0.0) + inc * scale

    def restore(self, bank: int, row: int) -> None:
        st = self.states.get((bank, row))
        if st is None:
            return
        st["damage"].clear()
        st["flips"] = {d: 0 for d in FlipDirection}
        st["flipped"].clear()

    # -- eta contraction (the dict twin of coupled_damage)
    def coupled_damage(
        self, bank: int, row: int, direction: FlipDirection
    ) -> float:
        st = self.states.get((bank, row))
        if st is None:
            return 0.0
        damage = st["damage"]
        if not damage:
            return 0.0
        prof = self.model.profile(bank, row)
        other_dir = (
            FlipDirection.ZERO_TO_ONE
            if direction is FlipDirection.ONE_TO_ZERO
            else FlipDirection.ONE_TO_ZERO
        )
        best = 0.0
        # the ledger's mechanism order: a set of str-Enum members would
        # iterate in an order that follows the process's hash seed
        present = {mech for (mech, _) in damage}
        mechanisms = [mech for mech in MECHANISMS if mech in present]
        for mech in mechanisms:
            coupled = damage.get((mech, direction), 0.0)
            for other in mechanisms:
                if other is mech:
                    continue
                eta = prof.eta.get((other, mech), 0.0)
                coupled += eta * (
                    damage.get((other, direction), 0.0)
                    + damage.get((other, other_dir), 0.0)
                )
            best = max(best, coupled)
        return best

    # -- flip realization (dict counters + the per-cell walk the
    # vectorized _flip_cells replaced)
    def realize_flips(self, bank: int, row: int, data: np.ndarray) -> int:
        st = self.states.get((bank, row))
        if st is None:
            return 0
        damage = st["damage"]
        if not damage:
            return 0
        total = 0.0
        for value in damage.values():
            total += value
        if total < 0.999:
            return 0
        model = self.model
        prof = model.profile(bank, row)
        flipped_cells = st["flipped"]
        total_new = 0
        bits = None
        for direction in FlipDirection:
            effective = self.coupled_damage(bank, row, direction)
            if effective < 1.0:
                continue
            if bits is None:
                bits = np.unpackbits(data)
            target = model._flip_target(prof, effective)
            already = st["flips"][direction]
            needed = target - already
            if needed <= 0:
                continue
            order = model._flip_order(bank, row, direction)
            flipped = 0
            for cell in order:
                if flipped >= needed:
                    break
                cell = int(cell)
                if cell in flipped_cells:
                    continue
                if bits[cell] == direction.vulnerable_bit:
                    bits[cell] ^= 1
                    flipped_cells.add(cell)
                    flipped += 1
            st["flips"][direction] = already + flipped
            total_new += flipped
        if total_new and bits is not None:
            data[:] = np.packbits(bits)
        return total_new


def _random_event(rng, geometry, bank: int, rows: range) -> ActivationEvent:
    """One random activation event covering the four disturbance flavors."""
    kind = rng.integers(0, 4)
    t_open = float(rng.uniform(0.0, 1e6))
    r = int(rng.integers(rows.start + 3, rows.stop - 3))
    gap = float(rng.uniform(40.0, 60_000.0))
    if kind == 0:  # plain RowHammer ACT
        return ActivationEvent(
            rows=(r,),
            kind=ActivationEvent.Kind.SINGLE,
            bank=bank,
            t_open_ns=t_open,
            t_close_ns=t_open + float(rng.uniform(33.0, 40.0)),
            t_agg_off_ns={r: gap},
        )
    if kind == 1:  # RowPress-extended on-time
        return ActivationEvent(
            rows=(r,),
            kind=ActivationEvent.Kind.SINGLE,
            bank=bank,
            t_open_ns=t_open,
            t_close_ns=t_open + float(rng.uniform(150.0, 70_200.0)),
            t_agg_off_ns={r: gap},
        )
    if kind == 2:  # CoMRA copy pair (sandwiching span half the time)
        span = 2 if rng.integers(0, 2) else int(rng.integers(3, 6))
        src, dst = (r, r + span) if rng.integers(0, 2) else (r + span, r)
        return ActivationEvent(
            rows=(src, dst),
            kind=ActivationEvent.Kind.COMRA_PAIR,
            bank=bank,
            t_open_ns=t_open,
            t_close_ns=t_open + float(rng.uniform(33.0, 60.0)),
            pre_to_act_ns=float(rng.uniform(2.5, 50.0)),
            t_agg_off_ns={src: gap, dst: gap * 0.5},
        )
    # SiMRA multi-row activation
    n = int(rng.integers(2, 5))
    group = tuple(sorted({r + int(d) for d in rng.integers(0, 6, size=n)}))
    return ActivationEvent(
        rows=group,
        kind=ActivationEvent.Kind.SIMRA,
        bank=bank,
        t_open_ns=t_open,
        t_close_ns=t_open + float(rng.uniform(33.0, 200.0)),
        pre_to_act_ns=float(rng.uniform(2.5, 20.0)),
        simra_act_to_pre_ns=float(rng.uniform(1.0, 10.0)),
        t_agg_off_ns={row: gap for row in group},
    )


def _assert_rows_identical(model, ref, bank: int, touched) -> None:
    for row in sorted(touched):
        actual = model.damage_fraction(bank, row)
        state = ref.states.get((bank, row))
        expected = dict(state["damage"]) if state else {}
        assert list(actual) == list(expected), (row, actual, expected)
        for key in expected:
            # exact float equality: the ledger must accumulate in the
            # reference's operation order, not merely converge
            assert actual[key] == expected[key], (row, key)
        for direction in FlipDirection:
            assert model.coupled_damage(bank, row, direction) == (
                ref.coupled_damage(bank, row, direction)
            ), (row, direction)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_streams_bit_identical(seed):
    module = make_module(CONFIG)
    model = module.model
    assert model.supports_simra  # the stream must cover SiMRA
    bank = 0
    rows = module.geometry.subarray_rows(1)
    row_bytes = module.geometry.row_bytes

    ref = DictRowStateReference(model)

    # mirror every applied plan into the dict reference
    real_apply = model._apply_plan

    def spy_apply(plan, times):
        real_apply(plan, times)
        ref.apply_plan(plan, times)

    model._apply_plan = spy_apply
    try:
        rng = np.random.default_rng(seed)
        touched: set = set()
        temperatures = (25.0, 25.0, 50.0, 85.0)
        patterns = (None,) + ALL_PATTERNS
        for step in range(300):
            event = _random_event(rng, module.geometry, bank, rows)
            times = float(
                rng.choice([1.0, 1.0, 2.0, 7.5, 999.0, 12345.25])
            )
            model.apply_event(
                event,
                temperature_c=float(rng.choice(temperatures)),
                aggressor_pattern=patterns[rng.integers(0, len(patterns))],
                times=times,
            )
            for row in event.rows:
                for d in (1, 2):
                    touched.update(module.geometry.neighbors(row, d))

            roll = rng.uniform()
            if roll < 0.20 and touched:
                row = sorted(touched)[rng.integers(0, len(touched))]
                model.restore_row(bank, row)
                ref.restore(bank, row)
            elif roll < 0.35 and touched:
                row = sorted(touched)[rng.integers(0, len(touched))]
                data = rng.integers(
                    0, 256, size=row_bytes, dtype=np.uint8
                )
                data_ref = data.copy()
                n_model = model.realize_flips(bank, row, data)
                n_ref = ref.realize_flips(bank, row, data_ref)
                assert n_model == n_ref, (step, row)
                assert np.array_equal(data, data_ref), (step, row)

            if step % 60 == 59:
                _assert_rows_identical(model, ref, bank, touched)

        _assert_rows_identical(model, ref, bank, touched)
        assert touched, "stream touched no victims"
    finally:
        model._apply_plan = real_apply


def test_module_ledger_exposed():
    """The module-level ledger accessor reaches the model's ledger."""
    module = make_module(CONFIG)
    assert module.ledger is module.model.ledger
