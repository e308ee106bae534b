"""Attack synthesis: schedule search, program construction, portfolio."""

from dataclasses import replace

import pytest

from repro.attack import (
    MAX_POSTPONED_REFS,
    expected_aggressor_samples,
    schedule_score,
    synthesize_attacks,
    synthesize_schedule,
)
from repro.bender.program import Act, Ref
from repro.dram.vendors import make_module


class TestSamplerModel:
    def test_naive_schedule_is_sampled(self):
        # every ACT is an aggressor ACT: each capable REF samples one
        assert expected_aggressor_samples(1, 0) == pytest.approx(0.25)

    def test_dummy_flood_alone_does_not_evade(self):
        # with REFs at the tREFI cadence the flood merely relocates the
        # samples across the round's REFs; per-round expectation stays at
        # the naive level -- postponement is what makes the flood work
        naive = expected_aggressor_samples(1, 0)
        flooded = expected_aggressor_samples(1, 3)
        assert flooded == pytest.approx(naive, abs=0.05)

    def test_postponed_refs_with_full_flood_evade_completely(self):
        # 3 dummy windows = 468 >= 450 dummy ACTs before the deferred REF
        # burst: the sampler's buffer holds zero aggressors at every REF
        assert expected_aggressor_samples(1, 3, postpone_refs=True) == 0.0

    def test_postponement_alone_does_not_evade(self):
        # without the flood the deferred REFs still see aggressor ACTs
        assert expected_aggressor_samples(1, 0, postpone_refs=True) > 0.0

    def test_score_prefers_surviving_schedules(self):
        evasive = schedule_score(0.0, 78, 624, hc_first=1885)
        sampled = schedule_score(0.25, 78, 156, hc_first=1885)
        assert evasive > sampled


#: hammers per window of a two-aggressor attack at the default 156 ACTs
#: per tREFI
HAMMERS = 78


class TestScheduleSearch:
    def test_comra_search_discovers_postponed_flood(self):
        # CoMRA needs ~1885 clean hammers (~25 rounds): only the fully
        # evasive schedule survives that long
        dummy_windows, postpone, samples, score = synthesize_schedule(1885, HAMMERS)
        assert (dummy_windows, postpone) == (3, True)
        assert samples == 0.0
        assert score > 0.0

    def test_simra_search_prefers_cheap_single_window(self):
        # SiMRA's HC_first (~26) fits inside one 78-hammer window, so the
        # un-flooded schedule wins on ACT efficiency despite being sampled
        dummy_windows, postpone, samples, score = synthesize_schedule(26, HAMMERS)
        assert dummy_windows == 0
        assert not postpone
        assert samples > 0.0

    def test_search_is_deterministic(self):
        assert synthesize_schedule(1885, HAMMERS) == synthesize_schedule(
            1885, HAMMERS
        )

    def test_postponement_respects_ddr4_limit(self):
        for hc in (26, 400, 1885, 25_000):
            dummy_windows, postpone, _, _ = synthesize_schedule(
                hc, HAMMERS, max_dummy_windows=10
            )
            if postpone:
                assert dummy_windows + 1 <= MAX_POSTPONED_REFS


class TestPortfolio:
    @pytest.fixture(scope="class")
    def hynix_specs(self):
        return synthesize_attacks(make_module("hynix-a-8gb"))

    def test_portfolio_names_and_techniques(self, hynix_specs):
        by_name = {s.name: s for s in hynix_specs}
        assert set(by_name) == {
            "naive-rowhammer", "sync-rowhammer", "sync-comra", "sync-simra16",
        }
        assert by_name["sync-comra"].technique == "comra"
        assert by_name["sync-simra16"].technique == "simra"
        assert by_name["sync-simra16"].n_rows == 16

    def test_naive_baseline_is_unsynchronized(self, hynix_specs):
        naive = next(s for s in hynix_specs if s.name == "naive-rowhammer")
        assert naive.dummy_windows == 0 and not naive.postpone_refs
        assert naive.expected_samples_per_round > 0.0

    def test_sync_comra_is_evasive(self, hynix_specs):
        comra = next(s for s in hynix_specs if s.name == "sync-comra")
        assert comra.postpone_refs and comra.dummy_windows >= 3
        assert comra.expected_samples_per_round == 0.0

    def test_victims_disjoint_from_activated(self, hynix_specs):
        for spec in hynix_specs:
            assert not set(spec.victims) & set(spec.activated)
            assert spec.victims  # every attack has someone to flip

    def test_non_simra_module_has_no_simra_attack(self):
        specs = synthesize_attacks(make_module("nanya-c-8gb"))
        assert {s.name for s in specs} == {
            "naive-rowhammer", "sync-rowhammer", "sync-comra",
        }

    def test_build_round_command_counts(self, hynix_specs):
        module = make_module("hynix-a-8gb")
        for spec in hynix_specs:
            program = spec.build_round(module)
            flat = list(program.flattened())
            acts = [i for i in flat if isinstance(i, Act)]
            refs = [i for i in flat if isinstance(i, Ref)]
            assert len(acts) == spec.acts_per_round
            assert len(refs) == spec.windows_per_round
            if spec.postpone_refs:
                # all REFs deferred to the very end of the round
                tail = flat[-spec.windows_per_round:]
                assert all(isinstance(i, Ref) for i in tail)

    def test_round_budget_arithmetic(self, hynix_specs):
        comra = next(s for s in hynix_specs if s.name == "sync-comra")
        assert comra.acts_per_round == comra.windows_per_round * 156
        assert comra.rounds_for_budget(24_960) == 24_960 // comra.acts_per_round
        assert comra.rounds_for_budget(1) == 1  # at least one round

    def test_one_hammer_activates_every_aggressor_once(self, hynix_specs):
        # a single-sided RowHammer hammer is one ACT, so a window holds
        # one hammer per ACT; every synthesized spec has two aggressors
        single = replace(
            hynix_specs[0], aggressors=hynix_specs[0].aggressors[:1]
        )
        assert single.hammers_per_window == single.acts_per_trefi == 156
        for spec in hynix_specs:
            assert len(spec.aggressors) == 2, spec.name
            assert spec.hammers_per_round == 78, spec.name
