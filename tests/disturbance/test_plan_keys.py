"""Property tests for the deposit-plan cache keys and the single-row builder.

The batched probe engine translates a captured trace onto a victim a
constant ``delta`` rows away.  It does not re-derive each event's plan-cache
key: it row-shifts the captured key with
:meth:`~repro.disturbance.model.DisturbanceModel.shift_plan_key` and asks
:meth:`~repro.disturbance.model.DisturbanceModel.resolve_plan` for the plan
under that key.  That is only sound if the shifted key is exactly the key
of the shifted event, and if whatever plan sits under it is the plan the
shifted event would build.  Both are drawn at random here, subarray-edge
rows (where neighbor clipping changes a plan's shape) included.

``_build_single_plan`` inlines the ``_common_factors`` / ``_plan_entry``
bodies that the CoMRA and SiMRA builders still call; the second property
pins that inlined copy to the helpers, entry for entry.
"""

from __future__ import annotations

import os

from hypothesis import assume, given, settings, strategies as st

from repro.disturbance import ALL_PATTERNS, Mechanism
from repro.disturbance.model import DisturbanceModel
from repro.dram import make_module
from repro.dram.commands import ActivationEvent

#: one SiMRA-capable and one SiMRA-less vendor
CONFIGS = ("hynix-a-8gb", "samsung-b-16gb")
MODELS = {config: make_module(config).model for config in CONFIGS}

#: a short draw per tier-1 run; ``HYPOTHESIS_PROFILE=ci`` soaks with that
#: profile's larger budget (registered in tests/conftest.py)
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 30
)

KINDS = (ActivationEvent.Kind.SINGLE, ActivationEvent.Kind.COMRA_PAIR)
PATTERNS = st.sampled_from((None,) + tuple(ALL_PATTERNS))
TEMPERATURES = st.sampled_from((45.0, 50.0, 80.0, 85.0, 95.0))
#: tAggOff gaps: the -1.0 "closed before this probe" sentinel, values on
#: both sides of the model's flat band, and arbitrary ones
GAPS = st.one_of(
    st.sampled_from((-1.0, 0.0, 13.5, 30.0, 63.0, 1_000.0)),
    st.floats(0.0, 500.0),
)


def fresh_model(config: str) -> DisturbanceModel:
    """A model with empty plan, profile and factor caches."""
    model = MODELS[config]
    return DisturbanceModel(model.geometry, model.calibration, model.serial)


def row_in(rows_per_subarray: int, subarrays: int):
    """A bank row, drawn at subarray edges about half the time."""
    edge = st.tuples(
        st.integers(0, subarrays - 1),
        st.sampled_from((0, 1, 2, rows_per_subarray - 3,
                         rows_per_subarray - 2, rows_per_subarray - 1)),
    ).map(lambda so: so[0] * rows_per_subarray + so[1])
    return st.one_of(edge, st.integers(0, rows_per_subarray * subarrays - 1))


@st.composite
def events(draw, config: str, kinds=KINDS):
    geom = MODELS[config].geometry
    rows_per_bank = geom.rows_per_bank
    row = row_in(geom.rows_per_subarray, geom.subarrays_per_bank)
    kind = draw(st.sampled_from(kinds))
    src = draw(row)
    if kind is ActivationEvent.Kind.SINGLE:
        rows = (src,)
    else:
        dst = src + draw(st.sampled_from((-4, -2, -1, 1, 2, 3)))
        assume(0 <= dst < rows_per_bank)
        rows = (src, dst)
    off_rows = draw(st.lists(
        st.sampled_from(rows + (rows[0] + 1,)), max_size=2, unique=True,
    ))
    assume(all(0 <= r < rows_per_bank for r in off_rows))
    t_open = draw(st.floats(0.0, 1e6))
    return ActivationEvent(
        rows=rows,
        kind=kind,
        bank=draw(st.integers(0, geom.banks - 1)),
        t_open_ns=t_open,
        t_close_ns=t_open + draw(st.sampled_from((13.5, 36.0, 7_800.0))
                                 | st.floats(0.0, 20_000.0)),
        pre_to_act_ns=draw(st.none() | st.floats(0.0, 30.0)),
        t_agg_off_ns={r: draw(GAPS) for r in off_rows},
    )


def shift(event: ActivationEvent, delta: int) -> ActivationEvent:
    return ActivationEvent(
        rows=tuple(r + delta for r in event.rows),
        kind=event.kind,
        bank=event.bank,
        t_open_ns=event.t_open_ns,
        t_close_ns=event.t_close_ns,
        pre_to_act_ns=event.pre_to_act_ns,
        simra_act_to_pre_ns=event.simra_act_to_pre_ns,
        t_agg_off_ns={r + delta: g for r, g in event.t_agg_off_ns.items()},
        partial=event.partial,
    )


def portable(model: DisturbanceModel, plan: list) -> list:
    """A plan with ledger slots replaced by their ``(bank, row)``: slot
    numbers depend on the order a model first touched its rows."""
    key_of = model.ledger.key_of
    return [(key_of(entry[0]),) + tuple(entry[1:]) for entry in plan]


@st.composite
def shifted_draws(draw):
    config = draw(st.sampled_from(CONFIGS))
    event = draw(events(config))
    geom = MODELS[config].geometry
    target = draw(row_in(geom.rows_per_subarray, geom.subarrays_per_bank))
    delta = target - event.rows[0]
    moved = tuple(event.rows) + tuple(event.t_agg_off_ns)
    assume(all(0 <= r + delta < geom.rows_per_bank for r in moved))
    return config, event, delta


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    draw=shifted_draws(),
    temperature=TEMPERATURES,
    pattern=PATTERNS,
    shifted_pattern=PATTERNS,
)
def test_shifted_key_is_the_shifted_events_key(
    draw, temperature, pattern, shifted_pattern
) -> None:
    config, event, delta = draw
    model = fresh_model(config)
    moved = shift(event, delta)

    plan, key = model.resolve_plan(event, temperature, pattern)
    assert key == model.plan_key(event, temperature, pattern)
    shifted_key = model.shift_plan_key(key, delta, shifted_pattern)
    assert shifted_key == model.plan_key(moved, temperature, shifted_pattern)

    # the engine's translation call: resolve the shifted event under the
    # shifted key on the model that already holds the donor's plans
    shifted_plan, used_key = model.resolve_plan(
        moved, temperature, shifted_pattern, shifted_key
    )
    assert used_key == shifted_key
    reference = fresh_model(config)
    expected, _ = reference.resolve_plan(moved, temperature, shifted_pattern)
    assert portable(model, shifted_plan) == portable(reference, expected)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    config=st.sampled_from(CONFIGS),
    data=st.data(),
    temperature=TEMPERATURES,
    pattern=PATTERNS,
)
def test_inlined_single_builder_matches_helpers(
    config, data, temperature, pattern
) -> None:
    model = fresh_model(config)
    event = data.draw(events(config, (ActivationEvent.Kind.SINGLE,)))
    (aggressor,) = event.rows
    bank = event.bank
    plan = model._build_single_plan(event, temperature, pattern)

    mech = Mechanism.ROWHAMMER
    aggoff = model._aggoff_factor(event.t_agg_off_ns.get(aggressor))
    expected = []
    for distance, dist_weight in model._distance_weights():
        for victim in model.geometry.neighbors(aggressor, distance):
            prof = model.profile(bank, victim)
            weight = 0.5 * dist_weight * model._common_factors(
                prof, mech, event.t_agg_on_ns, temperature, pattern,
                simra_count=None,
            )
            slot, side, dom, oth, inc_dom, inc_oth, pen = model._plan_entry(
                bank, victim, prof, mech, weight,
                1 if aggressor > victim else -1,
            )
            if aggoff != 1.0:
                inc_dom *= aggoff
                inc_oth *= aggoff
            expected.append((slot, side, dom, oth, inc_dom, inc_oth, pen))
    assert plan == expected
