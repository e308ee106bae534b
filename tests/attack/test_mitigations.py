"""Mitigation hooks: PRAC event accounting, weighted TRR, admission checks."""

import pytest

from repro.attack import (
    MITIGATIONS,
    PracHook,
    WeightedSamplingTrr,
    build_hook,
    policy_rejection,
    synthesize_attacks,
)
from repro.dram.commands import ActivationEvent
from repro.dram.vendors import make_module
from repro.mitigations.prac import PracConfig
from repro.trr.mechanism import SamplingTrr


def _event(kind, rows, bank=0, t=1000.0):
    return ActivationEvent(
        rows=tuple(rows), kind=kind, bank=bank, t_open_ns=t, t_close_ns=t + 36.0
    )


class TestPracHook:
    def test_simra_event_counts_every_group_row(self):
        module = make_module("hynix-a-8gb")
        hook = PracHook(module, PracConfig.po_weighted())
        group = tuple(range(224, 240))
        hook.on_event(0, _event(ActivationEvent.Kind.SIMRA, group))
        counters = hook.counters(0)
        weight = PracConfig.po_weighted().weights
        for row in group:
            assert counters.counter(row) == 204  # WEIGHT_SIMRA

    def test_rdt_crossing_serves_rfm_immediately(self):
        module = make_module("hynix-a-8gb")
        hook = PracHook(module, PracConfig.po_weighted())
        group = tuple(range(224, 240))
        # 4096 / 204 -> the 21st SiMRA op crosses the RDT
        for i in range(21):
            hook.on_event(0, _event(ActivationEvent.Kind.SIMRA, group, t=i * 100.0))
        assert hook.stats["rfms"] >= 1
        assert hook.stats["targeted_refreshes"] >= len(group)
        assert hook.stats["stall_ns"] > 0
        # counters were cleared by the served RFM
        assert hook.counters(0).counter(group[0]) < 4096

    def test_times_multiplier_scales_weight(self):
        """The host's scaled replay delivers one ``times=5`` event where
        unrolled execution delivers five; every accounted total agrees."""
        module = make_module("hynix-a-8gb")
        hook = PracHook(module, PracConfig.po_weighted())
        hook.on_event(0, _event(ActivationEvent.Kind.COMRA_PAIR, (10, 12)), times=5.0)
        assert hook.counters(0).counter(10) == 5 * 10  # 5 x WEIGHT_COMRA

        group = tuple(range(224, 240))
        for config in (PracConfig.po_weighted(), PracConfig.ao_weighted()):
            scaled = PracHook(module, config)
            scaled.on_event(0, _event(ActivationEvent.Kind.SIMRA, group), times=5)
            repeated = PracHook(module, config)
            for _ in range(5):
                repeated.on_event(0, _event(ActivationEvent.Kind.SIMRA, group))
            for row in group:
                assert (
                    scaled.counters(0).counter(row)
                    == repeated.counters(0).counter(row)
                )
            assert scaled.counters(0).stats["updates"] == 5 * len(group)
            assert scaled.counters(0).stats == repeated.counters(0).stats
            assert scaled.stats == repeated.stats
        # AO serializes 15 counter updates per op at tRC each
        assert scaled.stats["stall_ns"] == 5 * 15 * 48.0

    def test_quiet_periods_bound(self):
        module = make_module("hynix-a-8gb")
        hook = PracHook(module, PracConfig.po_naive())  # RDT 20
        hook.on_event(0, _event(ActivationEvent.Kind.SINGLE, (7,)), times=5)
        # counter 5, +3 per period: (19 - 5) // 3 = 4 periods reach 17,
        # less one for the held-back session
        assert hook.quiet_periods(0, {7: 3}) == 3
        # one period can carry row 8 from 0 to the RDT: not even one is quiet
        assert hook.quiet_periods(0, {7: 3, 8: 20}) == -1

    def test_period_increments_hidden_by_rfm(self):
        module = make_module("hynix-a-8gb")
        hook = PracHook(module, PracConfig.po_naive())
        single = _event(ActivationEvent.Kind.SINGLE, (7,))
        increments = hook.period_increments(
            0, lambda: hook.on_event(0, single, times=3)
        )
        assert increments == {7: 3}
        # the 20th activation crosses the RDT and resets the counter
        assert hook.period_increments(
            0, lambda: hook.on_event(0, single, times=17)
        ) is None

    def test_ao_sequential_updates_cost_latency(self):
        module = make_module("hynix-a-8gb")
        hook = PracHook(module, PracConfig.ao_weighted())
        group = tuple(range(224, 240))
        hook.on_event(0, _event(ActivationEvent.Kind.SIMRA, group))
        # 16-row group: 15 serialized counter updates at tRC each
        assert hook.stats["stall_ns"] == pytest.approx(15 * 48.0)


class TestWeightedSamplingTrr:
    def test_simra_weight_beats_dummy_flood(self):
        trr = WeightedSamplingTrr(capable_ref_period=1, seed=0)
        group = tuple(range(224, 240))
        trr.on_event(0, _event(ActivationEvent.Kind.SIMRA, group))
        for _ in range(450):  # the flood that evicts a FIFO sampler
            trr.on_act(0, 99, 0.0)
        # weighted counts cannot be evicted: 16 rows x 204 outweighs 450
        sampled = trr.on_ref(0, 0.0)
        assert sampled and sampled[0] in group

    def test_weights_cleared_after_sample(self):
        trr = WeightedSamplingTrr(capable_ref_period=1, seed=0)
        trr.on_act(0, 7, 0.0)
        assert trr.on_ref(0, 0.0) == [7]
        assert trr.on_ref(0, 0.0) == []

    def test_empty_tracker_no_refresh(self):
        trr = WeightedSamplingTrr(capable_ref_period=1, seed=0)
        assert trr.on_ref(0, 0.0) == []

    def test_single_act_events_ignored_by_on_event(self):
        # plain ACTs arrive via on_act; double counting them would skew
        trr = WeightedSamplingTrr(capable_ref_period=1, seed=0)
        trr.on_event(0, _event(ActivationEvent.Kind.SINGLE, (5,)))
        assert trr.on_ref(0, 0.0) == []


class TestAdmission:
    @pytest.fixture(scope="class")
    def module(self):
        return make_module("hynix-a-8gb")

    @pytest.fixture(scope="class")
    def specs(self, module):
        return {s.name: s for s in synthesize_attacks(module)}

    def test_compute_region_blocks_storage_pud(self, module, specs):
        assert policy_rejection("compute-region", module, specs["sync-comra"])
        assert policy_rejection("compute-region", module, specs["sync-simra16"])

    def test_compute_region_allows_plain_rowhammer(self, module, specs):
        assert policy_rejection("compute-region", module, specs["naive-rowhammer"]) is None

    def test_clustered_decoder_blocks_double_sided_simra_only(self, module, specs):
        assert policy_rejection("clustered-decoder", module, specs["sync-simra16"])
        assert policy_rejection("clustered-decoder", module, specs["sync-comra"]) is None
        assert policy_rejection("clustered-decoder", module, specs["sync-rowhammer"]) is None

    def test_other_mitigations_never_block(self, module, specs):
        for mitigation in ("none", "sampling-trr", "weighted-trr", "prac-po-wc"):
            for spec in specs.values():
                assert policy_rejection(mitigation, module, spec) is None


class TestBuildHook:
    def test_every_registered_mitigation_builds(self):
        module = make_module("hynix-a-8gb")
        for name in MITIGATIONS:
            hook = build_hook(name, module, seed=1)
            if name == "none":
                assert hook is None
            else:
                assert hasattr(hook, "on_ref")

    def test_admission_mitigations_keep_shipped_trr(self):
        module = make_module("hynix-a-8gb")
        assert isinstance(build_hook("compute-region", module), SamplingTrr)
        assert isinstance(build_hook("clustered-decoder", module), SamplingTrr)

    def test_unknown_mitigation_raises(self):
        with pytest.raises(KeyError):
            build_hook("magic-shield", make_module("hynix-a-8gb"))
