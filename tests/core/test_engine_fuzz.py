"""Differential fuzz: the batched probe engine against the scalar search.

Hypothesis draws a few RowHammer, RowPress and CoMRA search units on
random victims -- adjacent ones that chain into one component, and
victims at a subarray edge -- each with its own standard data pattern,
at a random temperature, optionally on a module a host already drove.
``run_batched_searches`` must return the whole ``HcFirstResult`` list of
per-setup ``find_hc_first_repeated`` calls on an identically prepared
module and leave the module in the same end state (:func:`end_state`),
and every probe must either replay a captured trace or be the capture
itself.  SiMRA setups are fuzzed in ``test_simra_replay.py``.

A second property pins a replayed probe to the capture probe it stands
for: on RowHammer, RowPress, CoMRA and SiMRA units, replaying a trace
must leave the bank's counters, close/restore/precharge bookkeeping, the
unit's row bytes and ledger state, and the engine clock exactly where
capturing afresh at the same count leaves them.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_module
from repro.bender.program import COUNT
from repro.core import patterns
from repro.core.hcfirst import (
    DEFAULT_MAX_HAMMERS,
    ProbeSetup,
    find_hc_first_repeated,
    standard_row_data,
)
from repro.core.probe_batch import (
    BatchedSearchEngine,
    blast_rows,
    run_batched_searches,
)
from repro.disturbance.calibration import ALL_PATTERNS
from repro.disturbance.ledger import N_POOLS, NO_HIT
from repro.dram.bank import SIMRA_BLOCK
from repro.obs import Obs
from repro.reveng import discover_group

CONFIG = "hynix-a-8gb"

#: a short draw per tier-1 run; ``HYPOTHESIS_PROFILE=ci`` soaks with that
#: profile's larger budget (registered in tests/conftest.py)
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 10
)

KINDS = ("ds", "ss", "far", "rowpress", "comra")
#: RowPress aggressor-on times beyond the nominal tRAS (Fig. 8's axis)
ROWPRESS_T_ON_NS = (72.0, 144.0, 360.0, 1500.0)
#: the session's far-aggressor distance (fig07)
FAR_DISTANCE = 40


def _rows_per_subarray():
    return make_module(CONFIG).geometry.rows_per_subarray


@st.composite
def units(draw):
    rows = _rows_per_subarray()
    subarray = draw(st.integers(0, 2))
    # bias toward the rows next to a subarray edge
    offset = draw(st.one_of(
        st.sampled_from((1, 2, rows - 3, rows - 2)),
        st.integers(1, rows - 2),
    ))
    kind = draw(st.sampled_from(KINDS))
    return dict(
        kind=kind,
        victim=subarray * rows + offset,
        pattern=draw(st.sampled_from(ALL_PATTERNS)),
        t_on=draw(st.sampled_from(ROWPRESS_T_ON_NS)),
        # single-sided / far: which neighbor of the victim is the aggressor
        below=draw(st.booleans()),
    )


@st.composite
def cases(draw):
    first = draw(units())
    rest = draw(st.lists(units(), max_size=3))
    if rest and draw(st.booleans()):
        # an adjacent victim: blast sets overlap, the units chain
        rest[0] = dict(rest[0], victim=first["victim"] + 1)
    return dict(
        units=[first] + rest,
        temperature_c=float(draw(st.integers(45, 95))),
        host_block=draw(st.one_of(st.none(), st.integers(0, 5))),
        repeats=draw(st.integers(1, 2)),
        max_hammers=draw(st.sampled_from((DEFAULT_MAX_HAMMERS, 20_000))),
    )


def setups_for(module, unit):
    """The session's setups for one drawn unit (one per victim)."""
    geometry = module.geometry
    kind, victim, pattern = unit["kind"], unit["victim"], unit["pattern"]
    if kind in ("ds", "rowpress", "comra"):
        if not geometry.same_subarray(victim - 1, victim + 1):
            return []  # the adjacent-victim draw crossed an edge
        t_on = unit["t_on"] if kind == "rowpress" else 36.0
        if kind == "comra":
            program = patterns.double_sided_comra(module, victim, COUNT)
        else:
            program = patterns.double_sided_rowhammer(
                module, victim, COUNT, t_agg_on_ns=t_on
            )
        aggressors = [victim - 1, victim + 1]
        return [ProbeSetup(
            module, program,
            standard_row_data(module, aggressors, [victim], pattern),
            [victim],
        )]
    aggressor = victim - 1 if unit["below"] else victim + 1
    if not geometry.same_subarray(victim, aggressor):
        aggressor = 2 * victim - aggressor
    if kind == "ss":
        aggressors = [aggressor]
        program = patterns.single_sided_rowhammer(module, aggressor, COUNT)
    else:  # far: a second aggressor FAR_DISTANCE rows away
        other = aggressor + FAR_DISTANCE
        if not geometry.same_subarray(aggressor, other):
            other = aggressor - FAR_DISTANCE
        aggressors = [aggressor, other]
        program = patterns.far_double_sided_rowhammer(
            module, aggressor, other, COUNT
        )
    return [
        ProbeSetup(
            module, program,
            standard_row_data(module, aggressors, [v], pattern),
            [v],
        )
        for v in geometry.neighbors(aggressor, 1)
    ]


def build(case):
    """A fresh module prepared as the case draws it, and its setups."""
    module = make_module(CONFIG)
    module.set_temperature(case["temperature_c"])
    if case["host_block"] is not None:
        base = case["host_block"] * SIMRA_BLOCK
        discover_group(module, base, base + 6)
    return module, [
        setup for unit in case["units"] for setup in setups_for(module, unit)
    ]


#: a ledger slot that holds nothing: no pools, hits, side stamps or flips
EMPTY_SLOT = ([], 0, (NO_HIT, NO_HIT), (0, 0), [])


def end_state(module):
    """What searches leave on ``module``, clock bookkeeping aside (the
    scalar search rewinds its host clock every probe, the engine keeps
    one clock): row bytes, the ledger slots that hold state, and per bank
    the counters, the fractional rows and the tie counter."""
    ledger = module.ledger
    slots = {}
    for slot in range(ledger.size):
        key = ledger.key_of(slot)
        state = ledger_state(ledger, key)
        if state != EMPTY_SLOT:
            slots[key] = state
    return dict(
        data=[
            {row: data.tobytes() for row, data in bank._data.items()
             if data.any()}
            for bank in module.banks
        ],
        ledger=slots,
        stats=[dict(bank.stats) for bank in module.banks],
        frac=[set(bank._frac) for bank in module.banks],
        ties=[bank._tie_counter for bank in module.banks],
    )


def scalar_end_state(module):
    """:func:`end_state` after a scalar search, whose last read session
    the bank still holds back (the engine emits its own eagerly)."""
    for bank in module.banks:
        bank.flush(0.0)
    return end_state(module)


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases())
def test_engine_matches_scalar_search(case):
    obs = Obs()
    module, setups = build(case)
    got = run_batched_searches(
        setups, repeats=case["repeats"],
        max_hammers=case["max_hammers"], obs=obs,
    )
    ref_module, ref_setups = build(case)
    ref = [
        find_hc_first_repeated(
            setup, repeats=case["repeats"], max_hammers=case["max_hammers"]
        )
        for setup in ref_setups
    ]
    assert got == ref
    got_state, ref_state = end_state(module), scalar_end_state(ref_module)
    for key in ref_state:
        assert got_state[key] == ref_state[key], key
    paths = obs.by_label("probe.probes", "path")
    assert set(paths) <= {"interp", "capture"}, paths
    assert paths.get("capture", 0) > 0, paths


# -- replay vs capture state ---------------------------------------------

#: a large probe count; a trace captured at any count >= 2 replays every
#: count >= 2 (warm + scaled pass), one captured at 1 only count 1
LARGE_COUNTS = st.integers(4, DEFAULT_MAX_HAMMERS)


@st.composite
def replay_cases(draw):
    rows = _rows_per_subarray()
    count = draw(st.one_of(st.sampled_from((1, 2, 3)), LARGE_COUNTS))
    capture_count = 1 if count == 1 else draw(
        st.one_of(st.sampled_from((2, 3)), LARGE_COUNTS)
    )
    return dict(
        kind=draw(st.sampled_from(("rowhammer", "rowpress", "comra", "simra"))),
        victim=draw(st.integers(0, 2)) * rows + draw(st.integers(1, rows - 2)),
        t_on=draw(st.sampled_from(ROWPRESS_T_ON_NS)),
        simra_rows=draw(st.sampled_from((2, 4, 8, 16, 32))),
        simra_block=draw(st.integers(0, 10)),
        simra_anchor=draw(st.integers(0, SIMRA_BLOCK - 1)),
        patterns=draw(st.lists(
            st.sampled_from(ALL_PATTERNS), min_size=1, max_size=3
        )),
        temperature_c=float(draw(st.integers(45, 95))),
        # an earlier probe of the unit, so the capture may start on rows
        # with recorded closes and realized flips
        first_count=draw(st.one_of(st.none(), st.integers(1, 50_000))),
        capture_count=capture_count,
        count=count,
    )


def replay_setup(module, case):
    """One probe setup of the drawn mechanism."""
    nbytes = module.geometry.row_bytes
    row_patterns = case["patterns"]
    if case["kind"] == "simra":
        base = case["simra_block"] * SIMRA_BLOCK
        n_rows = case["simra_rows"]
        style = "single-sided" if n_rows == 32 else "double-sided"
        pair = patterns.simra_pair_for(
            module, base, n_rows, style, case["simra_anchor"]
        )
        victim = (
            base + SIMRA_BLOCK if n_rows == 32
            else pair.sandwiched_victims()[0]
        )
        row_data = {
            row: row_patterns[k % len(row_patterns)].fill(nbytes)
            for k, row in enumerate(pair.group)
        }
        row_data[victim] = row_patterns[0].negated.fill(nbytes)
        program = patterns.simra_hammer(module, pair, COUNT)
        return ProbeSetup(module, program, row_data, (victim,))
    # drawn inside a subarray, so both neighbors share it
    victim = case["victim"]
    if case["kind"] == "comra":
        program = patterns.double_sided_comra(module, victim, COUNT)
    else:
        t_on = case["t_on"] if case["kind"] == "rowpress" else 36.0
        program = patterns.double_sided_rowhammer(
            module, victim, COUNT, t_agg_on_ns=t_on
        )
    row_data = {
        victim - 1: row_patterns[0].fill(nbytes),
        victim + 1: row_patterns[-1].fill(nbytes),
        victim: row_patterns[0].negated.fill(nbytes),
    }
    return ProbeSetup(module, program, row_data, [victim])


def ledger_state(ledger, key):
    slot = ledger.peek(*key)
    if slot is None:
        return None
    base = slot * N_POOLS
    return (
        [(pool, ledger.dmg[base + pool]) for pool in ledger.pool_order[slot]],
        ledger.hits_mv[slot],
        (ledger.side_mv[2 * slot], ledger.side_mv[2 * slot + 1]),
        (ledger.flips_mv[2 * slot], ledger.flips_mv[2 * slot + 1]),
        sorted(ledger.flipped[slot]),
    )


def probe_pair(case, replay):
    """Run the drawn probes on a fresh engine: an optional first probe,
    then a capture at ``capture_count`` and a probe at ``count`` that
    replays the capture's trace (``replay``) or captures afresh."""
    module = make_module(CONFIG)
    module.set_temperature(case["temperature_c"])
    obs = Obs()
    engine = BatchedSearchEngine([replay_setup(module, case)], obs=obs)
    unit = engine.units[0]
    results = []
    if case["first_count"] is not None:
        results.append(engine._probe(0, case["first_count"]))
    unit.traces.clear()
    results.append(engine._probe(0, case["capture_count"]))
    if not replay:
        unit.traces.clear()
    results.append(engine._probe(0, case["count"]))
    bank = engine.bank
    rows = unit.snapshot.rows
    state = dict(
        results=results,
        stats=bank.stats,
        last_close=bank._last_close,
        last_restore=bank._last_restore,
        last_pre_ns=bank._last_pre_ns,
        clock=engine.clock,
        data={row: bank.backdoor_read(row).tobytes() for row in rows},
        ledger={
            row: ledger_state(module.ledger, (bank.index, row))
            for row in sorted(blast_rows(rows))
        },
    )
    return state, obs.by_label("probe.probes", "path")


@settings(max_examples=EXAMPLES, deadline=None)
@given(replay_cases())
def test_replay_leaves_capture_state(case):
    got, got_paths = probe_pair(case, replay=True)
    ref, ref_paths = probe_pair(case, replay=False)
    first = int(case["first_count"] is not None)
    assert got_paths == {"capture": 1 + first, "interp": 1}, got_paths
    assert ref_paths == {"capture": 2 + first}, ref_paths
    for key in ref:
        assert got[key] == ref[key], key
