"""Batched probe engine: planner invariants and scalar equivalence.

The tentpole guarantee: every ``measure_*`` list call returns Measurement
lists identical to the scalar per-victim loop -- the batched engine is purely an
execution strategy, never a semantic change.  ``batch_probes=False`` forces
the reference scalar path on an otherwise identical fresh module, so any
divergence (state bleed across victims, rng-order coupling, snapshot
restore gaps) shows up as a field-level mismatch.
"""

import numpy as np
import pytest

from repro import ExperimentScale, make_module
from repro.core import CharacterizationSession, patterns
from repro.core.probe_batch import (
    GUARD_DISTANCE,
    blast_rows,
    count_flips,
    plan_batches,
    plan_components,
)
from repro.dram.errors import AddressError

CONFIGS = ("hynix-a-8gb", "samsung-b-16gb")
MODES = ("oracle", "measured")


def _sessions(config_id, wcdp_mode):
    scale = ExperimentScale.small().with_overrides(wcdp_mode=wcdp_mode)
    batched = CharacterizationSession(make_module(config_id), scale)
    scalar = CharacterizationSession(make_module(config_id), scale)
    scalar.batch_probes = False
    return batched, scalar


def _assert_identical(many, ref):
    assert len(many) == len(ref)
    for a, b in zip(many, ref):
        assert a == b
        # params is compare=False on the frozen dataclass; check it too
        assert a.params == b.params


def _assert_groups_identical(many, ref):
    assert len(many) == len(ref)
    for group_a, group_b in zip(many, ref):
        _assert_identical(group_a, group_b)


class TestPlanner:
    def test_blast_rows_widens_by_guard(self):
        assert blast_rows([10]) == frozenset(range(10 - GUARD_DISTANCE,
                                                   10 + GUARD_DISTANCE + 1))

    def test_disjoint_victims_share_a_batch(self):
        blasts = [blast_rows([100]), blast_rows([200]), blast_rows([300])]
        assert plan_components(blasts) == [[0], [1], [2]]
        assert plan_batches(blasts) == [[0, 1, 2]]

    def test_adjacent_victims_land_in_different_batches(self):
        victims = [100, 101, 102, 200]
        blasts = [blast_rows([v]) for v in victims]
        # 100/101/102 overlap transitively -> one sequential component
        assert plan_components(blasts) == [[0, 1, 2], [3]]
        batches = plan_batches(blasts)
        assert batches == [[0, 3], [1], [2]]
        for batch in batches:
            rows = [victims[i] for i in batch]
            for i, a in enumerate(rows):
                for b in rows[i + 1:]:
                    assert abs(a - b) > 2 * GUARD_DISTANCE

    def test_chained_units_run_sequentially(self):
        blasts = [blast_rows([100]), blast_rows([200]), blast_rows([300])]
        assert plan_batches(blasts, chained=(0, 2)) == [[0, 1], [2]]

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
    """Each ``measure_*`` list call against a per-entry loop of one-entry
    calls on a ``batch_probes=False`` session."""

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_rowhammer(self, config_id, wcdp_mode):
        batched, scalar = _sessions(config_id, wcdp_mode)
        victims = batched.candidate_victims()[:4]
        many = batched.measure_rowhammer_ds(victims)
        ref = [scalar.measure_rowhammer_ds([v])[0] for v in victims]
        _assert_identical(many, ref)

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_rowhammer_single_sided(self, config_id, wcdp_mode):
        batched, scalar = _sessions(config_id, wcdp_mode)
        aggressors = _aggressors(batched)
        assert aggressors
        many = batched.measure_rowhammer_ss(aggressors)
        ref = [scalar.measure_rowhammer_ss([a])[0] for a in aggressors]
        _assert_groups_identical(many, ref)

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_far_double_sided_rowhammer(self, config_id, wcdp_mode):
        batched, scalar = _sessions(config_id, wcdp_mode)
        pairs = _far_pairs(batched)
        assert pairs
        many = batched.measure_far_ds_rowhammer(pairs)
        ref = [scalar.measure_far_ds_rowhammer([p])[0] for p in pairs]
        _assert_groups_identical(many, ref)

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_comra(self, config_id, wcdp_mode):
        batched, scalar = _sessions(config_id, wcdp_mode)
        victims = batched.candidate_victims()[:4]
        many = batched.measure_comra_ds(victims)
        ref = [scalar.measure_comra_ds([v])[0] for v in victims]
        _assert_identical(many, ref)

    @pytest.mark.parametrize("pinned", (False, True))
    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_comra_single_sided(self, config_id, wcdp_mode, pinned):
        batched, scalar = _sessions(config_id, wcdp_mode)
        pairs = _far_pairs(batched)
        assert pairs
        # pinned: measure only the row below src, as fig11's shared list
        # does; unpinned: both neighbors of src
        chosen = [(src - 1,) for src, _dst in pairs] if pinned else None
        many = batched.measure_comra_ss(pairs, victims=chosen)
        ref = [
            scalar.measure_comra_ss(
                [p], victims=None if chosen is None else [chosen[k]]
            )[0]
            for k, p in enumerate(pairs)
        ]
        _assert_groups_identical(many, ref)
        if pinned:
            assert [[m.victim for m in g] for g in many] == [
                list(c) for c in chosen
            ]

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_simra(self, config_id, wcdp_mode):
        batched, scalar = _sessions(config_id, wcdp_mode)
        pairs = batched.sample_simra_pairs(2)[:3]
        if config_id == "hynix-a-8gb":
            assert pairs  # SiMRA-capable: the test must not be vacuous
        many = batched.measure_simra_ds(pairs, max_victims=2)
        ref = [scalar.measure_simra_ds([p], max_victims=2)[0] for p in pairs]
        _assert_groups_identical(many, ref)

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_simra_single_sided(self, config_id, wcdp_mode):
        batched, scalar = _sessions(config_id, wcdp_mode)
        pairs = _single_sided_simra_pairs(batched)
        if config_id == "hynix-a-8gb":
            assert pairs  # SiMRA-capable: the test must not be vacuous
        many = batched.measure_simra_ss(pairs)
        ref = [scalar.measure_simra_ss([p])[0] for p in pairs]
        _assert_groups_identical(many, ref)

    @pytest.mark.parametrize("wcdp_mode", MODES)
    @pytest.mark.parametrize("config_id", CONFIGS)
    def test_combined(self, config_id, wcdp_mode):
        batched, scalar = _sessions(config_id, wcdp_mode)
        victims = batched.combined_victims()[:3]
        many = batched.measure_combined(
            victims, comra_fraction=0.5, simra_fraction=0.5
        )
        ref = [
            scalar.measure_combined(
                [v], comra_fraction=0.5, simra_fraction=0.5
            )[0]
            for v in victims
        ]
        assert many == ref

    def test_simra_pinned_victims(self, hynix_session):
        pair = hynix_session.sample_simra_pairs(2)[0]
        victim = pair.sandwiched_victims()[-1]
        group = hynix_session.measure_simra_ds([pair], victims=[(victim,)])[0]
        assert [m.victim for m in group] == [victim]

    def test_many_preserves_input_order(self, hynix_session):
        victims = hynix_session.candidate_victims()[:4]
        many = hynix_session.measure_rowhammer_ds(victims)
        assert [m.victim for m in many] == victims


class TestFallbackNarrowing:
    """Planner failures are either counted fallbacks or loud bugs.

    The old behavior -- a bare ``except Exception`` around planning --
    made an injected planner/compiler bug indistinguishable from a
    legitimate "this program cannot batch" verdict: both silently ran
    the scalar loop.  Now only :class:`DramError` (the device model's
    own failure family) may demote a unit, and every demotion carries a
    reason counter.
    """

    def test_injected_planner_bug_raises(self, monkeypatch):
        from repro.core import probe_batch

        batched, _ = _sessions("hynix-a-8gb", "oracle")
        victims = batched.candidate_victims()[:2]

        def boom(*args, **kwargs):
            raise TypeError("injected planner bug")

        monkeypatch.setattr(probe_batch, "_walk_rows", boom)
        with pytest.raises(TypeError, match="injected planner bug"):
            batched.measure_rowhammer_ds(victims)

    def test_injected_lowering_bug_raises(self, monkeypatch):
        from repro.core import probe_batch

        batched, _ = _sessions("hynix-a-8gb", "oracle")
        victims = batched.candidate_victims()[:2]

        def boom(*args, **kwargs):
            raise RuntimeError("injected lowering bug")

        monkeypatch.setattr(probe_batch, "compile_stream", boom)
        with pytest.raises(RuntimeError, match="injected lowering bug"):
            batched.measure_rowhammer_ds(victims)

    def test_dram_error_is_a_counted_fallback(self, monkeypatch):
        from repro.core import probe_batch
        from repro.dram.errors import UnsupportedOperationError
        from repro.obs import Obs

        scale = ExperimentScale.small()
        obs = Obs()
        batched = CharacterizationSession(
            make_module("hynix-a-8gb"), scale, obs=obs
        )
        scalar = CharacterizationSession(make_module("hynix-a-8gb"), scale)
        scalar.batch_probes = False
        victims = batched.candidate_victims()[:2]

        def denied(*args, **kwargs):
            raise UnsupportedOperationError("chip family rejects this")

        monkeypatch.setattr(probe_batch, "_walk_rows", denied)
        many = batched.measure_rowhammer_ds(victims)
        ref = [scalar.measure_rowhammer_ds([v])[0] for v in victims]
        # still bit-identical to the scalar loop...
        _assert_identical(many, ref)
        # ...but the degradation is visible: every unit and every scalar
        # search carries the factory_error reason, and nothing claims to
        # have run on the compiled path
        assert obs.by_label("probe.units", "disposition") == {
            "factory_error": len(victims)
        }
        assert obs.by_label("probe.scalar_searches", "reason") == {
            "factory_error": len(victims)
        }
        assert obs.total("probe.probes") == 0
