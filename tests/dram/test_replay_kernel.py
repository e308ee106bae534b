"""Differential fuzz: the compiled replay kernel against its Python oracle.

``dram/replay.c`` runs ``DisturbanceModel._apply_plan``, ``Trace.replay``,
``BatchedSearchEngine._restore``, ``Bank._restore_row`` and
``DisturbanceModel.realize_flips`` with ``coupled_damage`` and
``_flip_target``; ``tests/dram/oracles.py`` keeps the Python bodies they
replaced.  Every property here runs one drawn case
twice on fresh modules, once on the kernel and once inside
:func:`~tests.dram.oracles.python_kernel`, and compares the whole end
state exactly (:func:`full_state`): every ledger array bitwise, the
per-slot pool orders and flip sets, row bytes and data versions, the
restore, close and last-PRE bookkeeping, the tie counter and the
counters.

Three sources of traces, and one of single restorations:

* the batched probe engine on the engine fuzz's search cases, and on its
  capture-then-replay probe pairs (SiMRA group sensing included);
* the host's program replay on the program-replay fuzz's §7 rounds
  (REF and TRR ops through the caller's handler, interludes that trip the
  retention fallback);
* recorded loop windows replayed directly, with drawn perturbations: an
  aggressor row rewritten before the replay (a guard miss), a replay far
  past the rows' retention time or at a count whose damage reaches the
  realize threshold (both full-restore triggers), a touch of a row that
  had no ledger slot when it was recorded, a caller op that allocates
  ledger slots on a ledger started at a small capacity (growth inside a
  callback), and a caller op that raises (the exception propagates, with
  the same partial state on both sides).
* one charge restoration of a drawn row state (``Bank._restore_row``, or
  ``realize_flips`` on a copy of the row): pools of one to three
  mechanisms in a drawn first-deposit order, each below the realize
  early-out, just over threshold or far over it (a flip target above the
  row's candidates), drawn applied-flip counts and flip sets, all-0x00,
  all-0xFF, random or missing row data, a row with no ledger slot, a last
  restore within or past the retention time (the decay callback) and a
  probe tap.  Both directions' ``coupled_damage``, the call's result,
  the tap's records and the model's lazy caches are compared too.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_module, native
from repro.bender.compiler import compile_stream, run_stream
from repro.bender.program import Loop
from repro.core import patterns
from repro.core.hcfirst import DEFAULT_MAX_HAMMERS
from repro.core.probe_batch import run_batched_searches
from repro.disturbance.calibration import ALL_PATTERNS, FlipDirection
from repro.disturbance.ledger import N_POOLS, DamageLedger
from repro.dram.replay import TraceRecorder, touch_op

from ..bender import test_program_replay as host_fuzz
from ..core import test_engine_fuzz as engine_fuzz
from .oracles import python_kernel

CONFIG = "hynix-a-8gb"

#: a short draw per tier-1 run; ``HYPOTHESIS_PROFILE=ci`` soaks with that
#: profile's larger budget (registered in tests/conftest.py)
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 10
)


def full_state(module) -> dict:
    """Everything the four loops can write, exactly."""
    led = module.ledger
    return dict(
        ledger=(
            led.capacity, led.size, list(led._keys),
            led.damage.tobytes(), led.hits.tobytes(),
            led.side.tobytes(), led.flips.tobytes(),
        ),
        pool_order=[list(order) for order in led.pool_order],
        flipped=[sorted(cells) for cells in led.flipped],
        banks=[
            dict(
                data=[(row, d.tobytes()) for row, d in bank._data.items()],
                versions=list(bank._data_version.items()),
                last_restore=list(bank._last_restore.items()),
                last_close=list(bank._last_close.items()),
                last_pre_ns=bank._last_pre_ns,
                ties=bank._tie_counter,
                frac=sorted(bank._frac),
                stats=dict(bank.stats),
            )
            for bank in module.banks
        ],
    )


def twins(run, *args):
    """``run(*args)`` on the kernel, then on the oracle."""
    got = run(*args)
    with python_kernel():
        ref = run(*args)
    return got, ref


# -- the batched probe engine ------------------------------------------------

def _engine_run(case):
    module, setups = engine_fuzz.build(case)
    results = run_batched_searches(
        setups, repeats=case["repeats"], max_hammers=case["max_hammers"],
    )
    return results, full_state(module)


@settings(max_examples=EXAMPLES, deadline=None)
@given(engine_fuzz.cases())
def test_engine_searches_match_the_oracle(case):
    got, ref = twins(_engine_run, case)
    assert got == ref


def _fractional_row_run():
    """A search whose unit starts with a fractional row: its first
    re-initialization write senses thermal noise, which takes a tie."""
    case = dict(
        units=[dict(kind="ds", victim=40, pattern=ALL_PATTERNS[0],
                    t_on=36.0, below=True)],
        temperature_c=80.0, host_block=None, repeats=1,
        max_hammers=DEFAULT_MAX_HAMMERS,
    )
    module, setups = engine_fuzz.build(case)
    module.bank(0)._frac.add(next(iter(setups[0].row_data)))
    results = run_batched_searches(setups, repeats=1)
    return results, full_state(module)


def test_engine_restores_a_fractional_row():
    got, ref = twins(_fractional_row_run)
    assert got == ref
    bank = got[1]["banks"][0]
    assert bank["ties"] == 1 and not bank["frac"]


@settings(max_examples=EXAMPLES, deadline=None)
@given(engine_fuzz.replay_cases())
def test_engine_probe_replays_match_the_oracle(case):
    got, ref = twins(partial(engine_fuzz.probe_pair, replay=True), case)
    assert got == ref


# -- the host's program replay -------------------------------------------------

def _host_run(case):
    module, hook, host, obs = host_fuzz.execute(case, replay=True)
    return (
        full_state(module), host.now_ns,
        obs.by_label("host.runs", "path"),
        None if hook is None else hook.stats,
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(host_fuzz.cases())
@example(host_fuzz._example(interludes={2: "wait"}))
@example(host_fuzz._example(trr_seed=3, runs=6))
def test_host_replays_match_the_oracle(case):
    got, ref = twins(_host_run, case)
    assert got == ref


# -- recorded windows, replayed directly ---------------------------------------

#: far from every window's rows: a row the trace touches with no ledger
#: slot, and the rows a caller op allocates slots for
LONE_ROW = 700


@st.composite
def windows(draw):
    rows = make_module(CONFIG).geometry.rows_per_subarray
    return dict(
        kind=draw(st.sampled_from(("rowhammer", "comra", "simra"))),
        victim=draw(st.integers(0, 2)) * rows + draw(st.integers(2, rows - 3)),
        simra_rows=draw(st.sampled_from((2, 4, 8, 16, 32))),
        pattern=draw(st.sampled_from(ALL_PATTERNS)),
        count=draw(st.integers(2, 64)),
        # the replay's count: the recorded one, or one whose damage
        # reaches the realize threshold
        replay_count=draw(st.one_of(st.none(), st.integers(2, 10**6))),
        # replay start after the recorded end, on the 1.5 ns grid: up to
        # far past every row's retention time
        shift=draw(st.one_of(
            st.integers(1, 10**6), st.just(10**13),
        )) * 1.5,
        rewrite=draw(st.booleans()),
        capacity=draw(st.sampled_from((1, 2, 8, 512))),
        grow=draw(st.integers(0, 40)),
        raise_at=draw(st.one_of(st.none(), st.integers(0, 6))),
    )


def _window_program(module, case):
    """The drawn loop window, the rows it initializes and its victim."""
    victim, count = case["victim"], case["count"]
    if case["kind"] == "simra":
        base = (victim // 32) * 32
        n_rows = case["simra_rows"]
        style = "single-sided" if n_rows == 32 else "double-sided"
        pair = patterns.simra_pair_for(module, base, n_rows, style)
        program = patterns.simra_hammer(module, pair, count)
        aggressors = list(pair.group)
    elif case["kind"] == "comra":
        program = patterns.double_sided_comra(module, victim, count)
        aggressors = [victim - 1, victim + 1]
    else:
        program = patterns.double_sided_rowhammer(module, victim, count)
        aggressors = [victim - 1, victim + 1]
    (loop,) = [i for i in program.instructions if isinstance(i, Loop)]
    return compile_stream(loop.body, module), aggressors


def _window_run(case):
    """Record the drawn window on a fresh module with a marker op after
    every event, perturb the bank, replay the trace from a later start;
    returns the outcome, the full state, the rows whose touch took the
    full restore and the rows whose event guard missed."""
    module = make_module(CONFIG)
    assert module.ledger.size == 0
    module.model.ledger = DamageLedger(case["capacity"])
    bank = module.bank(0)
    timing = module.timing
    nbytes = module.geometry.row_bytes
    stream, aggressors = _window_program(module, case)
    for row in aggressors:
        bank.backdoor_write(row, case["pattern"].fill(nbytes))
    count = case["count"]
    recorder = TraceRecorder(bank, count)
    markers = []

    def tap(tap):
        recorder.tap(tap)
        if tap[0] == "event":
            marker = ("marker", len(markers))
            markers.append(marker)
            recorder.ops.append(marker)

    bank.probe_tap = tap
    recorder.segment(0.0, stream.duration_ns, None)
    linear = run_stream(bank, stream, 0.0, count)
    t = stream.duration_ns * count
    recorder.tail(t)
    # a row with no ledger slot yet
    recorder.ops.append(touch_op(bank, LONE_ROW, timing.tRP))
    bank.flush(t)
    victim = case["victim"]
    bank.act(victim, t + timing.tRP)
    bank.pre(t + timing.tRP + timing.tRAS)
    end = t + timing.tRP + timing.tRAS
    bank.flush(end)
    bank.probe_tap = None
    trace = recorder.finish(end, linear)

    base = end + case["shift"]
    if case["rewrite"]:
        # the aggressors' data moves: every event guard misses
        for row in aggressors:
            bank.backdoor_write(
                row, case["pattern"].negated.fill(nbytes), base - 1.5
            )
    full_restores, guard_misses = [], []
    restore_row, pattern_of = bank._restore_row, bank.pattern_of

    def counted_restore(row, now_ns):
        full_restores.append(row)
        restore_row(row, now_ns)

    def counted_pattern(row):
        # during replay only a guard miss looks a pattern up
        guard_misses.append(row)
        return pattern_of(row)

    bank._restore_row = counted_restore
    bank.pattern_of = counted_pattern

    def other(op, _base):
        if op[1] == case["raise_at"]:
            raise RuntimeError(f"marker {op[1]}")
        if op[1] == 0:
            for k in range(case["grow"]):
                module.ledger.slot(bank.index, LONE_ROW + k)

    try:
        outcome = trace.replay(
            bank, base, case["replay_count"] or count, other
        )
    except RuntimeError as exc:
        outcome = repr(exc)
    del bank._restore_row, bank.pattern_of
    return outcome, full_state(module), full_restores, guard_misses


@settings(max_examples=EXAMPLES, deadline=None)
@given(windows())
def test_window_replays_match_the_oracle(case):
    got, ref = twins(_window_run, case)
    assert got == ref


def _window(**changes):
    case = dict(
        kind="rowhammer", victim=40, simra_rows=4,
        pattern=ALL_PATTERNS[0], count=8, replay_count=None, shift=1.5,
        rewrite=False, capacity=512, grow=0, raise_at=None,
    )
    case.update(changes)
    return case


@pytest.mark.parametrize("kind", ["rowhammer", "comra", "simra"])
def test_guard_miss(kind):
    """Rewritten aggressor rows: the replay's event guards miss and
    re-resolve their plans, on both sides alike."""
    got, ref = twins(_window_run, _window(kind=kind, rewrite=True))
    assert got == ref
    assert got[3]


def test_full_restore_on_damage():
    case = _window(replay_count=10**6)
    got, ref = twins(_window_run, case)
    assert got == ref
    # a start 1.5 ns after the recorded end expires no retention
    assert case["victim"] in got[2]


def test_full_restore_on_retention_expiry():
    got, ref = twins(_window_run, _window(count=2, shift=10**13 * 1.5))
    assert got == ref
    assert got[2]


def test_ledger_growth_inside_a_callback():
    got, ref = twins(_window_run, _window(capacity=1, grow=40))
    assert got == ref
    capacity, size = got[1]["ledger"][:2]
    assert size > 40 and capacity >= size


def test_callback_exception_propagates():
    got, ref = twins(_window_run, _window(raise_at=1))
    assert got == ref
    assert got[0] == "RuntimeError('marker 1')"


def test_touch_of_a_row_without_a_slot():
    """The lone row's touch op holds no slot: without one at replay time
    it only records the restore; with one (a caller op allocated it) it
    also clears the slot."""
    for grow in (0, 1):
        got, ref = twins(_window_run, _window(grow=grow))
        assert got == ref
        assert LONE_ROW in dict(got[1]["banks"][0]["last_restore"])


# -- one charge restoration ---------------------------------------------------

@st.composite
def restores(draw):
    rows = make_module(CONFIG).geometry.rows_per_subarray
    pools = draw(st.sets(st.integers(0, 2), min_size=1, max_size=3))
    # per pool: below the realize early-out, just over threshold, or far
    # over it (a flip target above the row's candidates)
    damage = st.one_of(
        st.floats(0.0, 0.6), st.floats(0.9, 2.0), st.floats(2.0, 1e4),
    )
    return dict(
        row=draw(st.integers(0, 2)) * rows + draw(st.integers(0, rows - 1)),
        # (pool, damage) in first-deposit order: both directions of each
        # drawn mechanism, or only one
        pools=draw(st.permutations([
            (2 * mech + d, draw(damage))
            for mech in sorted(pools)
            for d in draw(st.sampled_from(((0,), (1,), (0, 1))))
        ])),
        slot=draw(st.booleans()),
        flips=(draw(st.integers(0, 60)), draw(st.integers(0, 60))),
        flipped=draw(st.lists(st.integers(0, 1023), max_size=40)),
        data=draw(st.one_of(
            st.none(), st.sampled_from((0x00, 0xFF)),
            st.binary(min_size=128, max_size=128),
        )),
        # the last restore: none, within the row's retention time, or past
        # it (the decay callback)
        last=draw(st.sampled_from((None, 0.5, 1.7, 3.2))),
        tap=draw(st.booleans()),
        # realize_flips on a copy of the row instead of a restore
        direct=draw(st.booleans()),
    )


def _restore_run(case):
    """Set the drawn row state up on a fresh module and restore the row
    (or realize its flips on a copy); returns the coupled damage of both
    directions, the call's result and bytes, the tap's records, the full
    state and the model's lazy caches."""
    module = make_module(CONFIG)
    bank, model, led = module.bank(0), module.model, module.ledger
    row = case["row"]
    if case["data"] is not None:
        data = case["data"]
        if isinstance(data, int):
            data = bytes([data]) * module.geometry.row_bytes
        bank._row_data(row)[:] = np.frombuffer(data, dtype=np.uint8)
    if case["slot"]:
        slot = led.slot(bank.index, row)
        for pool, value in case["pools"]:
            led.pool_order[slot].append(pool)
            led.dmg[slot * N_POOLS + pool] = value
        led.flips_mv[2 * slot], led.flips_mv[2 * slot + 1] = case["flips"]
        led.flipped[slot].update(case["flipped"])
    now = 1e9
    if case["last"] is not None:
        retention = module.retention.retention_ns(bank.index, row)
        bank._last_restore[row] = now - case["last"] * retention
    taps = []
    if case["tap"]:
        bank.probe_tap = taps.append
    coupled = [
        model.coupled_damage(bank.index, row, d) for d in FlipDirection
    ]
    if case["direct"]:
        data = bank.backdoor_read(row)
        result = model.realize_flips(bank.index, row, data), data.tobytes()
    else:
        result = bank._restore_row(row, now)
    bank.probe_tap = None
    caches = (
        list(model._profiles), list(model._flip_orders),
        list(module.retention._retention),
    )
    return coupled, result, taps, full_state(module), caches


@settings(max_examples=EXAMPLES, deadline=None)
@given(restores())
def test_restores_match_the_oracle(case):
    got, ref = twins(_restore_run, case)
    assert got == ref


def _restore_case(**changes):
    case = dict(
        row=40, pools=[(1, 3.0)], slot=True, flips=(0, 0), flipped=[],
        data=0x00, last=None, tap=False, direct=False,
    )
    case.update(changes)
    return case


@pytest.mark.parametrize("mechs", [1, 2, 3])
def test_restore_flips_coupled_mechanisms(mechs):
    """Pools of one to three mechanisms: the flips the coupled damage
    earns land in the row, on both sides alike."""
    pools = [(2 * m + d, 1.5) for m in range(mechs) for d in (0, 1)]
    got, ref = twins(_restore_run, _restore_case(pools=pools, data=0xAA))
    assert got == ref
    coupled, _result, _taps, state, _caches = got
    assert min(coupled) >= 1.5
    assert state["banks"][0]["versions"] == [(40, 1)]


def test_restore_decays_past_retention():
    got, ref = twins(
        _restore_run, _restore_case(pools=[(1, 0.1)], data=0xFF, last=3.2)
    )
    assert got == ref
    assert got[3]["banks"][0]["versions"] == [(40, 1)]


def test_realize_beyond_the_candidates():
    """A flip target above the vulnerable cells left: a 0->1 pool far
    over threshold on a row whose only zeros are each byte's last bit,
    half of them already flipped this epoch.  Every other zero flips."""
    case = _restore_case(
        pools=[(1, 1e4)], data=0xFE, direct=True,
        flipped=list(range(7, 1024, 16)),
    )
    got, ref = twins(_restore_run, case)
    assert got == ref
    flipped, data = got[1]
    assert flipped == 64
    assert data == bytes([0xFE, 0xFF]) * 64


def test_restore_taps_a_row_without_data_or_slot():
    got, ref = twins(
        _restore_run, _restore_case(slot=False, data=None, tap=True)
    )
    assert got == ref
    _coupled, result, taps, state, _caches = got
    assert result is None and taps == [("touch", 40, 1e9)]
    assert state["banks"][0]["last_restore"] == [(40, 1e9)]


def test_missing_compiler_raises(monkeypatch, tmp_path):
    """No compiler and no cached build: loading the kernel raises, as the
    memory-system kernel does; there is no Python fallback."""
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    with pytest.raises(native.KernelBuildError, match="C compiler"):
        native.replay_kernel.__wrapped__()
