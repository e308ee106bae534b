"""Differential fuzz: program trace replay against the full host path.

A host replays a program object it already ran twice from the trace its
second run captured (DESIGN.md, "Program trace replay").  Hypothesis
draws a §7 round program -- n-sided RowHammer, CoMRA or SiMRA with 2 to
32 rows -- with random ACTs per tREFI, dummy windows and row-on time,
with no TRR or a sampling TRR on a random seed, over a random data
pattern, and runs it 1 to 40 times, optionally writing, reading or
reheating rows between runs to trip the replay's entry guards.  The
reference host runs a fresh copy of the program every time: the trace
is keyed by program identity, so a copy always takes the full path.
Row bytes, ledger state, bank bookkeeping and counters, TRR state and
the clock must match exactly.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_module
from repro.bender import program as bender_program
from repro.bender.host import DramBenderHost
from repro.core import patterns
from repro.disturbance.calibration import (
    ALL_PATTERNS,
    MAX_ACTS_PER_TREFI,
    Mechanism,
)
from repro.disturbance.ledger import N_POOLS
from repro.experiments import trr_bypass
from repro.obs import Obs
from repro.trr import SamplingTrr

from ..trr_rounds import trr_round

CONFIG = "hynix-a-8gb"

#: a short draw per tier-1 run; ``HYPOTHESIS_PROFILE=ci`` soaks with that
#: profile's larger budget (registered in tests/conftest.py)
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 10
)

#: what may happen between two runs: row writes and reads (they leave a
#: session held back), a temperature step, a multi-second wait (rows
#: decay past their retention time), a nominal activation of the first
#: initialized row right before the run (its tAggOff gap leaves the flat
#: band), and a FracDRAM-window activation of it well before the run
INTERLUDES = ("write", "read", "heat", "wait", "touch", "frac")


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(("rowhammer", "comra", "simra")))
    runs = draw(st.integers(1, 40))
    return dict(
        kind=kind,
        sides=draw(st.integers(1, 4)),
        simra_rows=draw(st.sampled_from((2, 4, 8, 16, 32))),
        acts_per_trefi=draw(st.integers(2, 160)),
        dummy_windows=draw(st.integers(0, 3)),
        # 9 ns lands in the FracDRAM window: those programs never replay
        t_agg_on_ns=draw(st.sampled_from((9.0, 36.0, 72.0))),
        trr_seed=draw(st.one_of(st.none(), st.integers(0, 2**16))),
        pattern=draw(st.sampled_from(ALL_PATTERNS)),
        runs=runs,
        interludes=draw(st.dictionaries(
            st.integers(0, runs - 1), st.sampled_from(INTERLUDES),
            max_size=3,
        )),
    )


def round_program(module, case):
    """The §7 round and the rows it initializes, on the weakest victims."""
    geometry = module.geometry
    base = geometry.rows_per_subarray + 32
    dummy = base + 64
    kind = case["kind"]
    acts = case["acts_per_trefi"]
    if kind == "simra":
        n_rows = case["simra_rows"]
        style = "single-sided" if n_rows == 32 else "double-sided"
        pair = patterns.simra_pair_for(module, (base // 32) * 32, n_rows, style)
        aggressors = list(pair.group)
        program = trr_round(
            module, "simra", (pair.row_a, pair.row_b), dummy,
            acts_per_trefi=acts, dummy_windows=case["dummy_windows"],
        )
    elif kind == "comra":
        victim = trr_bypass._weakest_victim(module, Mechanism.COMRA) or base + 1
        aggressors = [victim - 1, victim + 1]
        program = trr_round(
            module, "comra", aggressors, dummy,
            acts_per_trefi=acts, dummy_windows=case["dummy_windows"],
        )
    else:
        weakest = trr_bypass._weakest_victim(module, Mechanism.ROWHAMMER)
        anchor = weakest - 1 if weakest is not None else base
        aggressors = [anchor + 2 * i for i in range(case["sides"])]
        # AttackSpec rounds keep rows open for the nominal row-on time; the
        # drawn one builds the same windows by hand, dummy flood included
        trp, t_on = module.timing.tRP, case["t_agg_on_ns"]
        builder = bender_program.ProgramBuilder("trr-rowhammer")
        for rows in [aggressors] + [[dummy]] * case["dummy_windows"]:
            patterns.trefi_window(
                builder, 0, [(module.to_logical(r), trp, t_on) for r in rows],
                acts, acts * (trp + t_on), module.timing.tREFI,
            )
        program = builder.build()
    nbytes = geometry.row_bytes
    pattern = case["pattern"]
    rows = {a: pattern.fill(nbytes) for a in aggressors}
    for victim in patterns.victims_of(module, aggressors):
        rows[victim] = pattern.negated.fill(nbytes)
    return program, rows


def execute(case, replay: bool):
    """Run the drawn case; ``replay=False`` runs a fresh program copy
    every time."""
    module = make_module(CONFIG)
    hook = None if case["trr_seed"] is None else SamplingTrr(
        seed=case["trr_seed"]
    )
    module.attach_trr(hook)
    obs = Obs()
    host = DramBenderHost(module, obs=obs)
    program, rows = round_program(module, case)
    logical = {module.to_logical(row): data for row, data in rows.items()}
    host.write_rows(0, logical)
    for run in range(case["runs"]):
        interlude = case["interludes"].get(run)
        if interlude == "write":
            host.write_rows(0, dict(list(logical.items())[:2]))
        elif interlude == "read":
            host.read_rows(0, list(logical)[-2:])
        elif interlude == "heat":
            module.set_temperature(module.temperature_c + 5.0)
        elif interlude is not None:
            row = next(iter(logical))
            builder = bender_program.ProgramBuilder(interlude)
            if interlude == "wait":
                builder.nop(4e9)
            elif interlude == "touch":
                builder.act(0, row).pre(0, 36.0)
            else:  # frac
                builder.act(0, row).pre(0, 9.0).nop(1_000.0)
            host.run(builder.build())
        host.run(
            program if replay
            else bender_program.TestProgram(
                list(program.instructions), program.name
            )
        )
    return module, hook, host, obs


def ledger_state(ledger, key):
    slot = ledger.peek(*key)
    base = slot * N_POOLS
    return (
        [(pool, ledger.dmg[base + pool]) for pool in ledger.pool_order[slot]],
        ledger.hits_mv[slot],
        (ledger.side_mv[2 * slot], ledger.side_mv[2 * slot + 1]),
        (ledger.flips_mv[2 * slot], ledger.flips_mv[2 * slot + 1]),
        sorted(ledger.flipped[slot]),
    )


def assert_same_state(got, ref):
    (module, hook, host, _obs), (ref_module, ref_hook, ref_host, _) = got, ref
    assert host.now_ns == ref_host.now_ns
    for bank, ref_bank in zip(module.banks, ref_module.banks):
        assert bank.stats == ref_bank.stats
        assert bank._last_close == ref_bank._last_close
        assert bank._last_restore == ref_bank._last_restore
        assert bank._last_pre_ns == ref_bank._last_pre_ns
        assert bank._frac == ref_bank._frac
        assert bank._tie_counter == ref_bank._tie_counter
        assert bank._refresh_cursor == ref_bank._refresh_cursor
        assert bank._refresh_accumulator == ref_bank._refresh_accumulator
        for row in set(bank._data) | set(ref_bank._data):
            assert np.array_equal(
                bank.backdoor_read(row), ref_bank.backdoor_read(row)
            ), row
    ledger, ref_ledger = module.ledger, ref_module.ledger
    keys = {ledger.key_of(s) for s in range(ledger.size)}
    assert keys == {ref_ledger.key_of(s) for s in range(ref_ledger.size)}
    for key in keys:
        assert ledger_state(ledger, key) == ledger_state(ref_ledger, key), key
    if hook is not None:
        assert hook.stats == ref_hook.stats
        assert {b: list(buf) for b, buf in hook._buffers.items()} == {
            b: list(buf) for b, buf in ref_hook._buffers.items()
        }
        assert hook._ref_counter == ref_hook._ref_counter
        assert (
            hook._rng.bit_generator.state == ref_hook._rng.bit_generator.state
        )


def _example(**changes):
    """A two-sided RowHammer round run four times, with ``changes``."""
    return dict(
        dict(
            kind="rowhammer", sides=2, simra_rows=2, acts_per_trefi=8,
            dummy_windows=0, t_agg_on_ns=36.0, trr_seed=None,
            pattern=ALL_PATTERNS[0], runs=4, interludes={},
        ),
        **changes,
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases())
# each interlude where only an entry guard or a replay op keeps the paths
# equal: a row write before the capture (the capture's idle guard), then
# before a replay a row read (the replay's idle guard), a temperature
# step (the trace's temperature check), a fractional row (the fractional
# guard), a nominal activation (the tAggOff key guard) and a wait past
# retention (the touch op's retention fallback)
@example(_example(interludes={1: "write"}))
@example(_example(interludes={2: "read"}))
@example(_example(interludes={2: "heat"}))
@example(_example(interludes={2: "frac"}))
@example(_example(interludes={2: "touch"}))
@example(_example(interludes={2: "wait"}))
def test_replay_matches_full_path(case):
    got = execute(case, replay=True)
    ref = execute(case, replay=False)
    assert_same_state(got, ref)
    ref_paths = ref[3].by_label("host.runs", "path")
    assert set(ref_paths) == {"full"}, ref_paths
    # the campaign trace compares plan counters across paths
    assert got[3].by_label("host.loops", "path") == ref[3].by_label(
        "host.loops", "path"
    )
    got_paths = got[3].by_label("host.runs", "path")
    programs = sum(
        interlude in ("wait", "touch", "frac")
        for interlude in case["interludes"].values()
    )
    assert sum(got_paths.values()) == case["runs"] + programs
    if case["runs"] >= 3 and not case["interludes"] and not (
        case["kind"] == "rowhammer" and case["t_agg_on_ns"] == 9.0
    ):
        assert got_paths.get("replay", 0) == case["runs"] - 2, got_paths


def test_fig24_cell_paths(monkeypatch):
    """One fig24 TRR cell: the first round runs in full (the row writes
    leave a session held back), the second captures, the rest replay."""
    obs = Obs()
    monkeypatch.setattr(
        trr_bypass, "DramBenderHost", partial(DramBenderHost, obs=obs)
    )
    rounds = 40
    flips = trr_bypass._run_technique(
        make_module(CONFIG), "simra-16", True,
        hammers=rounds * (MAX_ACTS_PER_TREFI // 2), seed=0,
    )
    assert obs.by_label("host.runs", "path") == {
        "full": 1, "capture": 1, "replay": rounds - 2,
    }
    assert flips > 0


def test_fractional_sensing_never_replays():
    """A run that re-opens a row it left at a fractional value senses
    thermal noise, which a trace cannot hold: the capture is refused, so
    every later run takes the full path."""

    def execute_frac(replay: bool):
        module = make_module(CONFIG)
        obs = Obs()
        host = DramBenderHost(module, obs=obs)
        row = module.to_logical(300)
        program = (
            bender_program.ProgramBuilder("frac")
            .act(0, row, 13.5).pre(0, 9.0)
            .act(0, row, 13.5).pre(0, 36.0)
            .build()
        )
        for _ in range(5):
            host.run(
                program if replay else bender_program.TestProgram(
                    list(program.instructions), program.name
                )
            )
        return module, None, host, obs

    got = execute_frac(replay=True)
    assert_same_state(got, execute_frac(replay=False))
    assert got[3].by_label("host.runs", "path") == {"full": 4, "capture": 1}


def _run_lone_row(steps, replay: bool):
    """Run a lone-row program ``p`` (an ACT of physical row 300, 100.5 ns
    into the run, held 36 ns) and the interludes ``steps`` names, in
    order; ``replay=False`` runs a fresh copy of ``p`` every time."""
    module = make_module(CONFIG)
    obs = Obs()
    host = DramBenderHost(module, obs=obs)
    row = module.to_logical(300)
    p = (
        bender_program.ProgramBuilder("p")
        .act(0, row, 100.5).pre(0, 36.0)
        .build()
    )
    interludes = {
        "frac": bender_program.ProgramBuilder("frac")
        .act(0, row).pre(0, 9.0).nop(1_000.0).build(),
        "hammer": bender_program.ProgramBuilder("hammer").loop(
            2_000,
            bender_program.ProgramBuilder()
            .act(0, module.to_logical(301), 13.5).pre(0, 36.0),
        ).build(),
    }
    for step in steps:
        if step != "p":
            host.run(interludes[step])
        else:
            host.run(
                p if replay
                else bender_program.TestProgram(list(p.instructions), p.name)
            )
    return module, None, host, obs


def test_replay_repeeks_a_ledger_slot_the_capture_lacked():
    """Row 300 has no ledger slot when ``p`` is captured; hammering its
    neighbour gives it one, and the replay's touch op must find it."""
    steps = ("p", "p", "hammer", "p")
    got = _run_lone_row(steps, replay=True)
    assert_same_state(got, _run_lone_row(steps, replay=False))
    assert got[3].by_label("host.runs", "path") == {
        "full": 2, "capture": 1, "replay": 1,
    }


def test_capture_may_start_on_a_fractional_row():
    """The capture runs live, so its lone ACT of a fractional row senses
    thermal noise (a tie) on the full path; the later runs, on a row no
    longer fractional, replay."""
    steps = ("p", "frac", "p", "p", "p")
    got = _run_lone_row(steps, replay=True)
    assert_same_state(got, _run_lone_row(steps, replay=False))
    assert got[0].bank(0)._tie_counter == 1
    assert got[3].by_label("host.runs", "path") == {
        "full": 2, "capture": 1, "replay": 2,
    }
