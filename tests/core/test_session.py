"""Characterization session primitives."""

import pytest

from repro import make_module
from repro.core import CharacterizationSession, ExperimentScale
from repro.disturbance import Mechanism
from repro.obs import Obs


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
        # regression: the oracle path used to recompute worst_case_pattern
        # on every call because the miss branch never filled _wcdp_cache
        model = hynix_session.module.model
        calls = []
        real = model.worst_case_pattern

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "worst_case_pattern", counting)
        victim = hynix_session.candidate_victims()[2]
        first = hynix_session.wcdp(victim, Mechanism.ROWHAMMER)
        second = hynix_session.wcdp(victim, Mechanism.ROWHAMMER)
        assert first == second
        assert len(calls) == 1

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
        b.measure_rowhammer_ds(b.candidate_victims()[:2])
        assert obs_a.timers["probe.stage.replay_kernel"][1] == 1
        assert obs_b.timers["probe.stage.replay_kernel"][1] == 1
