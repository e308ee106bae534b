"""Characterization session primitives."""

import pytest

from repro import make_module
from repro.core import CharacterizationSession, ExperimentScale, patterns
from repro.disturbance import Mechanism
from repro.disturbance.calibration import ALL_PATTERNS
from repro.obs import Obs


def _count_oracle_calls(model, monkeypatch):
    """Record ``(method, mechanism)`` per WCDP oracle call on ``model``."""
    calls = []
    for name in ("worst_case_pattern", "worst_case_patterns"):
        real = getattr(model, name)

        def counting(bank, rows, mechanism, _real=real, _name=name):
            calls.append((_name, mechanism))
            return _real(bank, rows, mechanism)

        monkeypatch.setattr(model, name, counting)
    return calls


class TestVictimSelection:
    def test_victims_in_tested_subarrays(self, hynix_session):
        geometry = hynix_session.module.geometry
        for victim in hynix_session.candidate_victims():
            assert geometry.subarray_of(victim) in (0, 2)

    def test_victims_have_sandwich(self, hynix_session):
        geometry = hynix_session.module.geometry
        for victim in hynix_session.candidate_victims():
            assert geometry.same_subarray(victim - 1, victim + 1)

    def test_sentinels_included(self, hynix_session):
        model = hynix_session.module.model
        victims = hynix_session.candidate_victims()
        assert model.sentinel_row(Mechanism.ROWHAMMER) in victims
        assert model.sentinel_row(Mechanism.COMRA) in victims


class TestMeasurements:
    def test_rowhammer_matches_oracle(self, hynix_session):
        victim = hynix_session.candidate_victims()[2]
        oracle = hynix_session.module.model.reference_hcfirst(
            0, victim, Mechanism.ROWHAMMER
        )
        m = hynix_session.measure_rowhammer_ds([victim])[0]
        assert m.found
        assert m.hc_first == pytest.approx(oracle, rel=0.02)

    def test_comra_lower_than_rowhammer_generally(self, hynix_session):
        improved = 0
        victims = hynix_session.candidate_victims()[:6]
        for rh, comra in zip(
            hynix_session.measure_rowhammer_ds(victims),
            hynix_session.measure_comra_ds(victims),
        ):
            if rh.found and comra.found and comra.hc_first < rh.hc_first:
                improved += 1
        assert improved >= len(victims) * 0.6

    def test_wcdp_oracle_matches_measured(self, hynix_module):
        # measured WCDP (4 coarse searches) should agree with the oracle
        scale = ExperimentScale.small().with_overrides(wcdp_mode="measured")
        session = CharacterizationSession(hynix_module, scale)
        victim = session.candidate_victims()[2]
        measured = session.measure_wcdp(victim, Mechanism.ROWHAMMER)
        oracle = hynix_module.model.worst_case_pattern(0, victim, Mechanism.ROWHAMMER)
        m_oracle = session.measure_rowhammer_ds([victim], pattern=oracle)[0]
        m_measured = session.measure_rowhammer_ds([victim], pattern=measured)[0]
        assert m_measured.hc_first <= m_oracle.hc_first * 1.02

    def test_wcdp_oracle_result_is_cached(self, hynix_session, monkeypatch):
        # the oracle path resolves a miss once, in bulk, and fills
        # _wcdp_cache so a repeated lookup asks the model nothing
        calls = _count_oracle_calls(hynix_session.module.model, monkeypatch)
        victim = hynix_session.candidate_victims()[2]
        first = hynix_session.wcdp(victim, Mechanism.ROWHAMMER)
        second = hynix_session.wcdp(victim, Mechanism.ROWHAMMER)
        assert first == second
        assert calls == [("worst_case_patterns", Mechanism.ROWHAMMER)]

    def test_simra_group_sampling_deterministic(self, hynix_session):
        a = [p.group for p in hynix_session.sample_simra_pairs(4)]
        b = [p.group for p in hynix_session.sample_simra_pairs(4)]
        assert a == b

    def test_measurement_metadata(self, hynix_session):
        victim = hynix_session.candidate_victims()[2]
        m = hynix_session.measure_comra_ds([victim])[0]
        assert m.mechanism is Mechanism.COMRA
        assert m.vendor == "SK Hynix"
        assert m.params["sided"] == "double"


class TestMeasuredWcdpWithoutSandwich:
    """Measured-mode WCDP hammers a double-sided sandwich of the victim.
    A victim without one -- row 0, or the last and first rows of a
    subarray (95 and 96 here) -- gets ``ALL_PATTERNS[0]``, as SiMRA
    victims without a sandwiching pair always did, instead of raising.
    Paper-scale fig07 and fig10 reach such victims through the
    single-sided sweeps."""

    @pytest.fixture()
    def session(self, hynix_module):
        scale = ExperimentScale.default().with_overrides(wcdp_mode="measured")
        return CharacterizationSession(hynix_module, scale, obs=Obs())

    @pytest.mark.parametrize("victim", (0, 95, 96))
    @pytest.mark.parametrize(
        "mechanism", (Mechanism.ROWHAMMER, Mechanism.COMRA)
    )
    def test_edge_victim_gets_first_pattern(self, session, victim, mechanism):
        assert session.measure_wcdp(victim, mechanism) is ALL_PATTERNS[0]
        assert session.obs.total("probe.probes") == 0

    @pytest.mark.parametrize("call", (
        lambda s: s.measure_comra_ss([(1, 41)]),
        lambda s: s.measure_rowhammer_ss([1]),
        lambda s: s.measure_far_ds_rowhammer([(1, 41)]),
    ), ids=("comra_ss", "rowhammer_ss", "far_ds_rowhammer"))
    def test_single_sided_sweep_over_row_zero(self, session, call):
        (group,) = call(session)
        assert [m.victim for m in group] == [0, 2]
        # the request's pattern is its first victim's (row 0's) WCDP
        assert all(m.pattern is ALL_PATTERNS[0] for m in group)


def _far_pairs(session, n=4):
    geometry = session.module.geometry
    return [
        (v, v + 40) for v in session.candidate_victims()
        if geometry.same_subarray(v, v + 40)
    ][:n]


def _ss_simra_pairs(session, n=3):
    return [
        patterns.simra_pair_for(session.module, base, 2, "single-sided")
        for base in session.simra_blocks()[1:n + 1]
    ]


#: one oracle-mode call of each primitive over several entries
PRIMITIVES = {
    "rowhammer_ds": lambda s: s.measure_rowhammer_ds(s.candidate_victims()[:4]),
    "rowhammer_ss": lambda s: s.measure_rowhammer_ss(s.candidate_victims()[:4]),
    "far_ds_rowhammer": lambda s: s.measure_far_ds_rowhammer(_far_pairs(s)),
    "comra_ds": lambda s: s.measure_comra_ds(s.candidate_victims()[:4]),
    "comra_ss": lambda s: s.measure_comra_ss(_far_pairs(s)),
    "simra_ds": lambda s: s.measure_simra_ds(
        s.sample_simra_pairs(2)[:3], max_victims=2
    ),
    "simra_ss": lambda s: s.measure_simra_ss(_ss_simra_pairs(s)),
    "combined": lambda s: s.measure_combined(
        s.combined_victims()[:3], comra_fraction=0.5, simra_fraction=0.5
    ),
}


class TestWcdpResolution:
    @pytest.mark.parametrize("primitive", sorted(PRIMITIVES))
    def test_one_oracle_call_per_mechanism(
        self, hynix_session, monkeypatch, primitive
    ):
        calls = _count_oracle_calls(hynix_session.module.model, monkeypatch)
        PRIMITIVES[primitive](hynix_session)
        assert calls
        assert all(name == "worst_case_patterns" for name, _ in calls)
        mechanisms = [mechanism for _, mechanism in calls]
        assert len(mechanisms) == len(set(mechanisms))


class TestMeasurementParams:
    """``Measurement.params`` of the single-sided primitives, pinned to
    literals: experiments never read it, so no digest would catch a
    change."""

    def test_rowhammer_single_sided(self, hynix_session):
        aggressor = hynix_session.candidate_victims()[2]
        (group,) = hynix_session.measure_rowhammer_ss([aggressor])
        assert group
        for m in group:
            assert m.params == {"t_agg_on_ns": 36.0, "sided": "single"}

    def test_comra_single_sided(self, hynix_session):
        src = hynix_session.candidate_victims()[2]
        (group,) = hynix_session.measure_comra_ss([(src, src + 40)])
        assert group
        for m in group:
            assert m.params == {"pre_to_act_ns": 7.5, "sided": "single"}

    def test_simra_single_sided(self, hynix_session):
        (group,) = hynix_session.measure_simra_ss(_ss_simra_pairs(hynix_session, 1))
        assert group
        for m in group:
            assert m.params == {
                "n_rows": 2, "sided": "single",
                "act_to_pre_ns": 3.0, "pre_to_act_ns": 3.0,
            }


class TestCombined:
    def test_combined_reduces_rowhammer_phase(self, hynix_session):
        victims = hynix_session.combined_victims()
        assert victims
        outcome = hynix_session.measure_combined(
            victims[:1], comra_fraction=0.9
        )[0]
        assert outcome is not None
        assert outcome.hc_combined <= outcome.hc_rowhammer
        assert outcome.reduction >= 1.0

    def test_zero_fractions_match_plain_rowhammer(self, hynix_session):
        victims = hynix_session.combined_victims()
        outcome = hynix_session.measure_combined(victims[:1])[0]
        assert outcome is not None
        assert outcome.reduction == pytest.approx(1.0, rel=0.05)


class TestProbeStageTimers:
    def test_sessions_do_not_share_stage_timers(self, small_scale):
        obs_a, obs_b = Obs(), Obs()
        a = CharacterizationSession(
            make_module("hynix-a-8gb"), small_scale, obs=obs_a
        )
        b = CharacterizationSession(
            make_module("hynix-a-8gb"), small_scale, obs=obs_b
        )
        a.measure_rowhammer_ds(a.candidate_victims()[:2])
        stages = {
            name for name in obs_a.snapshot()["timers"]
            if name.startswith("probe.stage.")
        }
        assert "probe.stage.replay_kernel" in stages
        # the other session's registry never saw a probe
        assert obs_b.snapshot() == {"counters": {}, "timers": {}}
        before = obs_a.snapshot()
        b.measure_rowhammer_ds(b.candidate_victims()[:2])
        # ... and session B's probes leave A's timers unchanged
        assert obs_a.snapshot() == before
        assert "probe.stage.replay_kernel" in obs_b.timers
