"""Batched probe engine: planner invariants and scalar equivalence.

The tentpole guarantee: every ``measure_*`` call returns Measurement lists
identical to the scalar per-victim loop -- the batched engine is purely an
execution strategy, never a semantic change.  Each equivalence case runs
the same entries three ways on identical fresh modules: one list call and
one-entry calls, both on the engine, and one-entry calls with the
session's engine rebound to the exact scalar search
(:func:`_scalar_searches`).  Any divergence (state bleed across victims,
rng-order coupling, snapshot restore gaps) shows up as a field-level
mismatch.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro import ExperimentScale, make_module
from repro.core import CharacterizationSession, patterns
from repro.core import session as session_module
from repro.bender.program import COUNT, Act, Pre, ProgramBuilder, Ref
from repro.core.hcfirst import (
    DEFAULT_MAX_HAMMERS,
    HcFirstResult,
    ProbeSetup,
    find_hc_first_repeated,
    standard_row_data,
)
from repro.bender.host import DramBenderHost
from repro.core.metrics import Measurement, count_flips
from repro.core.probe_batch import (
    GUARD_DISTANCE,
    BatchedSearchEngine,
    blast_rows,
    plan_components,
    run_batched_searches,
)
from repro.disturbance.calibration import ALL_PATTERNS, Mechanism
from repro.dram.errors import AddressError
from repro.obs import Obs
from repro.reveng import discover_group
from repro.trr import SamplingTrr

from .test_engine_fuzz import end_state, scalar_end_state

CONFIGS = ("hynix-a-8gb", "samsung-b-16gb")
MODES = ("oracle", "measured")

#: captures of the host-used integration workflow: one per trace shape
#: class, every other unit translates from it
EXPECTED_HOST_USED_CAPTURES = 4


@contextmanager
def _scalar_searches():
    """Run every session search through ``find_hc_first_repeated``, one
    setup after another, instead of the batched engine."""

    def scalar(setups, repeats, max_hammers, obs=None):
        return [
            find_hc_first_repeated(
                setup, repeats=repeats, max_hammers=max_hammers
            )
            for setup in setups
        ]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(session_module, "run_batched_searches", scalar)
        yield


def _session(config_id, wcdp_mode="oracle", obs=None):
    scale = ExperimentScale.small().with_overrides(wcdp_mode=wcdp_mode)
    return CharacterizationSession(make_module(config_id), scale, obs=obs)


def _assert_same(got, ref):
    """Equal results, Measurement ``params`` included (it is
    ``compare=False`` on the frozen dataclass)."""
    assert got == ref
    for a, b in zip(got, ref):
        if isinstance(a, list):
            _assert_same(a, b)
        elif isinstance(a, Measurement):
            assert a.params == b.params


def _check_equivalence(config_id, wcdp_mode, select, measure):
    """``measure(session, entries)`` as one list call and as one-entry
    calls on the engine, against one-entry calls on the scalar search.

    ``select(session)`` picks the entries; returns them with the list
    call's result.
    """
    obs = Obs()
    batched = _session(config_id, wcdp_mode, obs=obs)
    entries = select(batched)
    many = measure(batched, entries)
    single_session = _session(config_id, wcdp_mode)
    single = [measure(single_session, [e])[0] for e in entries]
    scalar = _session(config_id, wcdp_mode)
    with _scalar_searches():
        ref = [measure(scalar, [e])[0] for e in entries]
    _assert_same(many, ref)
    _assert_same(single, ref)
    assert obs.total("probe.probes") > 0
    return entries, many


class TestPlanner:
    def test_blast_rows_widens_by_guard(self):
        assert blast_rows([10]) == frozenset(range(10 - GUARD_DISTANCE,
                                                   10 + GUARD_DISTANCE + 1))

    def test_disjoint_victims_share_a_batch(self):
        blasts = [blast_rows([100]), blast_rows([200]), blast_rows([300])]
        assert plan_components(blasts) == [[0], [1], [2]]

    def test_adjacent_victims_land_in_different_batches(self):
        victims = [100, 101, 102, 200]
        blasts = [blast_rows([v]) for v in victims]
        # 100/101/102 overlap transitively -> one sequential component
        assert plan_components(blasts) == [[0, 1, 2], [3]]

    def test_chained_units_run_sequentially(self):
        blasts = [blast_rows([100]), blast_rows([200]), blast_rows([300])]
        assert plan_components(blasts, chained=(0, 2)) == [[0, 2], [1]]

    def test_component_preserves_declared_order(self):
        blasts = [blast_rows([102]), blast_rows([100]), blast_rows([101])]
        assert plan_components(blasts) == [[0, 1, 2]]


class TestCountFlips:
    def test_counts_bit_differences(self):
        data = np.zeros(8, dtype=np.uint8)
        expected = data.copy()
        assert count_flips(data, expected) == 0
        data[0] = 0b1010_0001
        assert count_flips(data, expected) == 3


def _rowhammer_setups(module):
    """Double-sided RowHammer setups on spread and on adjacent victims
    (the latter chain into one component)."""
    session = CharacterizationSession(module, ExperimentScale.small())
    spread = session.candidate_victims()[:3]
    victims = spread + [spread[0] + 1]
    setups = []
    for victim in victims:
        pattern = module.model.worst_case_pattern(
            0, victim, Mechanism.ROWHAMMER
        )
        setups.append(ProbeSetup(
            module=module,
            program=patterns.double_sided_rowhammer(module, victim, COUNT),
            row_data=standard_row_data(
                module, [victim - 1, victim + 1], [victim], pattern
            ),
            victims=[victim],
        ))
    return setups


class TestSearchResults:
    """The engine returns the scalar search's whole ``HcFirstResult``:
    history, probe count and cache hits, not only HC_first."""

    @pytest.mark.parametrize("max_hammers", (DEFAULT_MAX_HAMMERS, 2000))
    def test_matches_scalar_search(self, max_hammers):
        obs = Obs()
        got = run_batched_searches(
            _rowhammer_setups(make_module("hynix-a-8gb")),
            repeats=3, max_hammers=max_hammers, obs=obs,
        )
        ref = [
            find_hc_first_repeated(s, repeats=3, max_hammers=max_hammers)
            for s in _rowhammer_setups(make_module("hynix-a-8gb"))
        ]
        assert got == ref
        assert obs.total("probe.probes") > 0


def _aggressors(session, n=3, span=2):
    """Candidate rows with ``span`` same-subarray rows on each side, so
    measured-mode WCDP can hammer either side of their neighbors."""
    geometry = session.module.geometry
    rows = [
        v for v in session.candidate_victims()
        if v - 2 >= 0 and v + span < geometry.rows_per_bank
        and geometry.same_subarray(v - 2, v + span)
    ]
    return rows[::2][:n]


def _far_pairs(session, n=3):
    """(row, row + 40) aggressor pairs inside one subarray, as fig07 uses."""
    return [(row, row + 40) for row in _aggressors(session, n, span=40)]


def _single_sided_simra_pairs(session, count=2, n=3):
    """Contiguous SiMRA groups with a same-subarray edge row, as fig16 uses."""
    geometry = session.module.geometry
    pairs = []
    for base in session.simra_blocks():
        if len(pairs) == n:
            break
        if base - 1 < 0 or not geometry.same_subarray(base - 1, base):
            continue
        try:
            pairs.append(patterns.simra_pair_for(
                session.module, base, count, "single-sided"
            ))
        except AddressError:
            continue
    return pairs


class TestScalarEquivalence:
    """Each ``measure_*`` list call and its one-entry calls against the
    scalar search (see :func:`_check_equivalence`)."""

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_rowhammer(self, config_id, wcdp_mode):
        _check_equivalence(
            config_id, wcdp_mode,
            lambda s: s.candidate_victims()[:4],
            lambda s, victims: s.measure_rowhammer_ds(victims),
        )

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_rowhammer_single_sided(self, config_id, wcdp_mode):
        _, many = _check_equivalence(
            config_id, wcdp_mode, _aggressors,
            lambda s, aggressors: s.measure_rowhammer_ss(aggressors),
        )
        assert many

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_far_double_sided_rowhammer(self, config_id, wcdp_mode):
        _, many = _check_equivalence(
            config_id, wcdp_mode, _far_pairs,
            lambda s, pairs: s.measure_far_ds_rowhammer(pairs),
        )
        assert many

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_comra(self, config_id, wcdp_mode):
        _check_equivalence(
            config_id, wcdp_mode,
            lambda s: s.candidate_victims()[:4],
            lambda s, victims: s.measure_comra_ds(victims),
        )

    @pytest.mark.parametrize("pinned", (False, True))
    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_comra_single_sided(self, config_id, wcdp_mode, pinned):
        # pinned: measure only the row below src, as fig11's shared list
        # does; unpinned (None): both neighbors of src
        def select(session):
            return [
                ((src, dst), (src - 1,) if pinned else None)
                for src, dst in _far_pairs(session)
            ]

        def measure(session, entries):
            return session.measure_comra_ss(
                [pair for pair, _ in entries],
                victims=[chosen for _, chosen in entries],
            )

        entries, many = _check_equivalence(
            config_id, wcdp_mode, select, measure
        )
        assert many
        if pinned:
            assert [[m.victim for m in g] for g in many] == [
                list(chosen) for _, chosen in entries
            ]

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_simra(self, config_id, wcdp_mode):
        _, many = _check_equivalence(
            config_id, wcdp_mode,
            lambda s: s.sample_simra_pairs(2)[:3],
            lambda s, pairs: s.measure_simra_ds(pairs, max_victims=2),
        )
        if config_id == "hynix-a-8gb":
            assert many  # SiMRA-capable: the test must not be vacuous

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_simra_single_sided(self, config_id, wcdp_mode):
        _, many = _check_equivalence(
            config_id, wcdp_mode, _single_sided_simra_pairs,
            lambda s, pairs: s.measure_simra_ss(pairs),
        )
        if config_id == "hynix-a-8gb":
            assert many  # SiMRA-capable: the test must not be vacuous

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_combined(self, config_id, wcdp_mode):
        _check_equivalence(
            config_id, wcdp_mode,
            lambda s: s.combined_victims()[:3],
            lambda s, victims: s.measure_combined(
                victims, comra_fraction=0.5, simra_fraction=0.5
            ),
        )

    def test_simra_pinned_victims(self, hynix_session):
        pair = hynix_session.sample_simra_pairs(2)[0]
        victim = pair.sandwiched_victims()[-1]
        group = hynix_session.measure_simra_ds([pair], victims=[(victim,)])[0]
        assert [m.victim for m in group] == [victim]

    def test_many_preserves_input_order(self, hynix_session):
        victims = hynix_session.candidate_victims()[:4]
        many = hynix_session.measure_rowhammer_ds(victims)
        assert [m.victim for m in many] == victims


def _scalar_wcdp(session, victim, mechanism):
    """The paper's WCDP as a plain argmin over one-pattern searches: the
    first pattern with the lowest found HC_first, else the first pattern."""
    best, best_hc = ALL_PATTERNS[0], None
    for pattern in ALL_PATTERNS:
        if mechanism is Mechanism.COMRA:
            m = session.measure_comra_ds([victim], pattern=pattern)[0]
        elif mechanism is Mechanism.SIMRA:
            pair = session._pair_sandwiching(victim)
            m = session.measure_simra_ds(
                [pair], pattern=pattern, victims=[(victim,)]
            )[0][0]
        else:
            m = session.measure_rowhammer_ds([victim], pattern=pattern)[0]
        if m.found and (best_hc is None or m.hc_first < best_hc):
            best, best_hc = pattern, m.hc_first
    return best


class TestMeasuredWcdp:
    """``measure_wcdp`` runs its four patterns as one engine call and
    picks the same pattern as the scalar argmin."""

    @pytest.mark.parametrize(
        "mechanism", (Mechanism.ROWHAMMER, Mechanism.COMRA, Mechanism.SIMRA)
    )
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_matches_scalar_argmin(self, config_id, mechanism, monkeypatch):
        obs = Obs()
        batched = _session(config_id, "measured", obs=obs)
        # six victims with a SiMRA-2 sandwich, spread over the tested rows
        victims = [
            v for v in range(1, batched.module.geometry.rows_per_bank - 1)
            if batched._pair_sandwiching(v) is not None
        ][::24]
        assert len(victims) == 6
        engine_calls = []
        engine = session_module.run_batched_searches

        def counting(setups, **kwargs):
            engine_calls.append(len(setups))
            return engine(setups, **kwargs)

        monkeypatch.setattr(session_module, "run_batched_searches", counting)
        got = [batched.measure_wcdp(v, mechanism) for v in victims]
        monkeypatch.undo()
        assert engine_calls == [len(ALL_PATTERNS)] * len(victims)
        assert obs.total("probe.probes") > 0
        scalar = _session(config_id, "measured")
        with _scalar_searches():
            ref = [_scalar_wcdp(scalar, v, mechanism) for v in victims]
        assert got == ref

    def test_simra_without_sandwiching_pair(self):
        obs = Obs()
        session = _session("hynix-a-8gb", "measured", obs=obs)
        victim = next(
            v for v in session.candidate_victims()
            if session._pair_sandwiching(v) is None
        )
        assert session.measure_wcdp(victim, Mechanism.SIMRA) is ALL_PATTERNS[0]
        assert obs.total("probe.probes") == 0


#: a victim with a same-subarray sandwich on every configuration
V = 200


def _hammer(module, rows, t_agg_on_ns=36.0, first_slack=None, loops=(COUNT,)):
    """A template: ``loops`` (default: one loop of ``COUNT``) over ACT/PRE
    pairs on the physical ``rows``."""
    trp = module.timing.tRP
    body = ProgramBuilder()
    for k, row in enumerate(rows):
        slack = first_slack if k == 0 and first_slack is not None else trp
        body.act(0, module.to_logical(row), slack).pre(0, t_agg_on_ns)
    program = ProgramBuilder()
    for loop_count in loops:
        program.loop(loop_count, body)
    return program.build()


def _guard_setup(module, program, victims=(V,), row_data=None):
    if row_data is None:
        row_data = standard_row_data(
            module, [V - 1, V + 1], [V], ALL_PATTERNS[0]
        )
    return ProbeSetup(module, program, row_data, victims)


def _ds(module, **kwargs):
    return _hammer(module, [V - 1, V + 1], **kwargs)


def _with_ref(module):
    program = _ds(module)
    program.instructions.append(Ref())
    return _guard_setup(module, program)


def _ref_in_loop(module):
    trp = module.timing.tRP
    a, b = module.to_logical(V - 1), module.to_logical(V + 1)
    body = (
        ProgramBuilder()
        .act(0, a, trp).pre(0, 36.0)
        .act(0, b, trp).pre(0, 36.0).ref()
    )
    return _guard_setup(module, ProgramBuilder().loop(COUNT, body).build())


def _with_trr(module):
    module.attach_trr(SamplingTrr(seed=0))
    return _guard_setup(module, _ds(module))


def _open_first(module):
    # an ACT/PRE pair ahead of the loop: not a flat nest of loops
    program = _ds(module)
    program.instructions[:0] = [
        Act(0, module.to_logical(V - 1), module.timing.tRP),
        Pre(0, 36.0),
    ]
    return _guard_setup(module, program)


def _with_read(module):
    trp = module.timing.tRP
    a, b = module.to_logical(V - 1), module.to_logical(V + 1)
    body = (
        ProgramBuilder()
        .act(0, a, trp).rd(0, a, module.timing.tRCD).pre(0, 36.0)
        .act(0, b, trp).pre(0, 36.0)
    )
    return _guard_setup(module, ProgramBuilder().loop(COUNT, body).build())


def _varying_joint(module):
    """``loop(COUNT, ACT V - 2 / PRE) + loop(1, ACT V - 1 3 ns later / PRE)``."""
    trp = module.timing.tRP
    low, high = module.to_logical(V - 2), module.to_logical(V - 1)
    return (
        ProgramBuilder()
        .loop(COUNT, ProgramBuilder().act(0, low, trp).pre(0, 36.0))
        .loop(1, ProgramBuilder().act(0, high, 3.0).pre(0, 36.0))
        .build()
    )


#: case name -> (the guard that refuses it, a hand-built setup)
GUARD_CASES = {
    # a Ref advances the bank-global refresh rotor: at the top level it
    # is no loop, inside a body no ACT/PRE stream
    "ref_program": ("not_loop_nest", _with_ref),
    "ref_in_loop": ("uncompilable_stream", _ref_in_loop),
    "multi_victim": ("multi_victim", lambda m: _guard_setup(
        m, _ds(m), victims=(V, V + 1),
    )),
    "trr_attached": ("trr_attached", _with_trr),
    "not_loop_nest": ("not_loop_nest", _open_first),
    "empty_program": ("not_loop_nest", lambda m: _guard_setup(
        m, ProgramBuilder().build(),
    )),
    "uncompilable_stream": ("uncompilable_stream", _with_read),
    "frac_hazard": ("frac_hazard", lambda m: _guard_setup(
        m, _ds(m, t_agg_on_ns=9.0),
    )),
    # inside the multi-row window too, which clock_sensitive also refuses
    "restore_joint_hazard": ("restore_joint_hazard", lambda m: _guard_setup(
        m, _ds(m, first_slack=3.0),
    )),
    # inside the CoMRA window only: no other guard refuses it
    "restore_joint_hazard_comra": (
        "restore_joint_hazard",
        lambda m: _guard_setup(m, _ds(m, first_slack=9.0)),
    ),
    # a copy-window ACT after the varying loop: no other guard refuses it
    "varying_joint_hazard": ("varying_joint_hazard", lambda m: _guard_setup(
        m, _varying_joint(m),
        row_data=standard_row_data(m, [V - 2, V - 1], [V], ALL_PATTERNS[0]),
    )),
    "clock_sensitive": ("clock_sensitive", lambda m: _guard_setup(
        m, _ds(m),
        row_data=standard_row_data(m, [V - 1], [V], ALL_PATTERNS[0]),
    )),
    "missing_expected": ("missing_expected", lambda m: _guard_setup(
        m, _ds(m),
        row_data=standard_row_data(m, [V - 1, V + 1], [], ALL_PATTERNS[0]),
    )),
}


class TestFallbackNarrowing:
    """Fallback narrowing, taken to its end: nothing falls back.

    A setup the engine cannot prove equivalent raises a ``ValueError``
    naming the refusing guard, a pattern builder's :class:`DramError`
    propagates unchanged, and an injected planner or compiler bug
    propagates as itself -- none of them silently runs a slower path.
    """

    def test_injected_planner_bug_raises(self, monkeypatch):
        from repro.core import probe_batch

        batched = _session("hynix-a-8gb")
        victims = batched.candidate_victims()[:2]

        def boom(*args, **kwargs):
            raise TypeError("injected planner bug")

        monkeypatch.setattr(probe_batch, "_joint_gaps", boom)
        with pytest.raises(TypeError, match="injected planner bug"):
            batched.measure_rowhammer_ds(victims)

    def test_injected_lowering_bug_raises(self, monkeypatch):
        from repro.core import probe_batch

        batched = _session("hynix-a-8gb")
        victims = batched.candidate_victims()[:2]

        def boom(*args, **kwargs):
            raise RuntimeError("injected lowering bug")

        monkeypatch.setattr(probe_batch, "compile_stream", boom)
        with pytest.raises(RuntimeError, match="injected lowering bug"):
            batched.measure_rowhammer_ds(victims)

    def test_builder_dram_error_propagates(self):
        obs = Obs()
        session = _session("hynix-a-8gb", obs=obs)
        good = session.candidate_victims()[0]
        edge = session.module.geometry.rows_per_subarray - 1
        with pytest.raises(AddressError, match="no same-subarray sandwich"):
            session.measure_rowhammer_ds([good, edge], pattern=ALL_PATTERNS[0])
        # refused while building the templates: no probe ran, not even
        # the good victim's
        assert obs.total("probe.probes") == 0

    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    def test_guard_raises(self, case):
        guard, make_setup = GUARD_CASES[case]
        setup = make_setup(make_module("hynix-a-8gb"))
        with pytest.raises(ValueError, match=f"^{guard}: "):
            run_batched_searches([setup])

    def test_session_held_back_past_engine_start_is_refused(self):
        # the engine emits a session a host left held back when it is
        # built; one left after that lands inside the first capture's
        # restore window, which the trace prologue cannot express
        module = make_module("hynix-a-8gb")
        engine = BatchedSearchEngine([_guard_setup(module, _ds(module))])
        discover_group(module, 64, 70)
        assert module.bank(0)._pending is not None
        with pytest.raises(ValueError, match="^prologue_shape: "):
            engine.run()

    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_copy_after_varying_loop_is_refused(self, config_id):
        # the ACT 3 ns after the varying loop opens a CoMRA copy (Samsung)
        # or a multi-row activation (SK Hynix) on the scalar host at
        # count 2 but not at 1,024, so a trace captured at 1,024 would
        # replay count 2 without it
        module = make_module(config_id)
        setup = _guard_setup(
            module, _varying_joint(module),
            row_data=standard_row_data(
                module, [V - 2, V - 1], [V], ALL_PATTERNS[0]
            ),
        )
        with pytest.raises(ValueError, match="^varying_joint_hazard: "):
            run_batched_searches([setup])

    def test_count_dependent_aggoff_is_refused(self):
        # an 18 ns varying segment of V + 1 between two activations of
        # V - 1: the gap spanning it is 49.5 ns at count 2, inside the
        # model's sloped tAggOff band, and grows 18 ns per count, so no
        # one trace of the shape holds every count (the first capture
        # runs at 1,024, where the gap is flat)
        module = make_module("hynix-a-8gb")
        trp = module.timing.tRP
        agg, other = module.to_logical(V - 1), module.to_logical(V + 1)

        edge = ProgramBuilder().act(0, agg, trp).pre(0, 36.0)
        program = (
            ProgramBuilder()
            .loop(1, edge)
            .loop(COUNT, ProgramBuilder().act(0, other, 15.0).pre(0, 3.0))
            .loop(1, edge)
            .build()
        )
        with pytest.raises(ValueError, match="^count_dependent_aggoff: "):
            run_batched_searches([_guard_setup(module, program)])


def _engine_and_scalar(prepare, make_setup):
    """One search on the engine and on the scalar path, each on a fresh
    module ``prepare`` drove first: ``(result, end_state)`` per path."""
    out = []
    for engine in (True, False):
        module = make_module("hynix-a-8gb")
        prepare(module)
        setup = make_setup(module)
        if engine:
            (result,) = run_batched_searches([setup])
            state = end_state(module)
        else:
            result = find_hc_first_repeated(setup)
            state = scalar_end_state(module)
        out.append((result, state))
    return out


def _frac_row(module, row):
    """Leave physical ``row`` fractional with one host ACT/PRE."""
    DramBenderHost(module).run(
        ProgramBuilder().act(0, module.to_logical(row)).pre(0, 9.0).build()
    )
    assert module.bank(0)._frac == {row}


class TestEngineEndState:
    """Searches the engine runs without a guard leave the module where
    the scalar search does."""

    def test_fixed_count_program_matches_scalar(self):
        # no loop runs the probe count: every probe replays one trace
        (got, got_state), (ref, ref_state) = _engine_and_scalar(
            lambda module: None,
            lambda m: _guard_setup(m, _ds(m, loops=(5,))),
        )
        assert got == ref
        assert got_state == ref_state

    def test_restore_of_a_fractional_row_takes_a_tie(self):
        # the scalar write session's ACT of a fractional row senses
        # thermal noise (a tie) before its WR overwrites the data
        (got, got_state), (ref, ref_state) = _engine_and_scalar(
            lambda module: _frac_row(module, V - 1),
            lambda m: _guard_setup(m, _ds(m)),
        )
        assert got == ref
        assert ref_state["ties"][0] == 1
        assert got_state == ref_state


def _integration_setups(module, monkeypatch):
    """Host-use ``module`` with ``discover_group``, then record the engine
    calls of the integration workflow's RowHammer, CoMRA and SiMRA-4
    sweeps at small scale, as ``(setups, repeats, max_hammers)``."""
    discover_group(module, 64, 70)
    session = CharacterizationSession(module, ExperimentScale.small())
    calls = []

    def record(setups, repeats, max_hammers, obs=None):
        calls.append((list(setups), repeats, max_hammers))
        return [HcFirstResult(None, False, 0)] * len(setups)

    with monkeypatch.context() as mp:
        mp.setattr(session_module, "run_batched_searches", record)
        victims = session.candidate_victims()
        session.measure_rowhammer_ds(victims)
        session.measure_comra_ds(victims)
        session.measure_simra_ds(session.sample_simra_pairs(4), max_victims=2)
    return calls


class TestHostUsedModule:
    """A module a host already drove can hold a session back on the bank;
    the engine emits it up front, so the first capture's trace compiles
    and every later unit of the same shape translates from it."""

    def test_matches_scalar_search_after_host_use(self, monkeypatch):
        obs = Obs()
        got = [
            run_batched_searches(
                setups, repeats=repeats, max_hammers=max_hammers, obs=obs
            )
            for setups, repeats, max_hammers in _integration_setups(
                make_module("hynix-a-8gb"), monkeypatch
            )
        ]
        ref = [
            [
                find_hc_first_repeated(
                    setup, repeats=repeats, max_hammers=max_hammers
                )
                for setup in setups
            ]
            for setups, repeats, max_hammers in _integration_setups(
                make_module("hynix-a-8gb"), monkeypatch
            )
        ]
        assert got == ref
        paths = obs.by_label("probe.probes", "path")
        assert set(paths) == {"interp", "capture"}, paths
        assert paths["capture"] == EXPECTED_HOST_USED_CAPTURES, paths
