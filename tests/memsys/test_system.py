"""Memory-system simulator behavior."""

import dataclasses

import pytest

from repro.memsys import MemSysConfig, MemorySystem, alone_ipc
from repro.mitigations import PracConfig
from repro.workloads import PudWorkloadConfig, WorkloadMix, build_mixes
from repro.workloads.profiles import profile_by_name

FAST = MemSysConfig(horizon_ns=60_000.0)


class TestBaseline:
    def test_alone_ipc_reasonable(self):
        ipc = alone_ipc(profile_by_name("gcc-like"), FAST)
        # instructions are accounted at issue, so the last in-flight
        # request can push IPC marginally past peak
        assert 0.5 < ipc <= FAST.peak_ipc * 1.02

    def test_memory_bound_worse_than_compute_bound(self):
        heavy = alone_ipc(profile_by_name("mcf-like"), FAST)
        light = alone_ipc(profile_by_name("gcc-like"), FAST)
        assert heavy < light

    def test_alone_ipc_keys_on_the_whole_profile(self):
        # a variant that keeps a shipped profile's name must not be served
        # that profile's cached IPC
        config = MemSysConfig(horizon_ns=20_000.0)
        base = profile_by_name("mcf-like")
        variant = dataclasses.replace(base, mpki=4.0, row_locality=0.9)
        alone_ipc(base, config)
        own = MemorySystem(
            WorkloadMix(mix_id=-1, profiles=(variant,)), None, None, config
        ).run().ipc_per_core[0]
        assert alone_ipc(variant, config) == own != alone_ipc(base, config)

    def test_shared_slower_than_alone(self):
        mix = build_mixes(1)[0]
        system = MemorySystem(mix, pud=None, prac=None, config=FAST)
        result = system.run()
        for profile, shared in zip(mix.profiles, result.ipc_per_core):
            assert shared <= alone_ipc(profile, FAST) * 1.05

    def test_deterministic(self):
        mix = build_mixes(1)[0]
        a = MemorySystem(mix, None, None, FAST).run()
        b = MemorySystem(mix, None, None, FAST).run()
        assert a.ipc_per_core == b.ipc_per_core


class TestPudTraffic:
    def test_ops_complete_at_low_intensity(self):
        mix = build_mixes(1)[0]
        pud = PudWorkloadConfig(period_ns=4000.0)
        result = MemorySystem(mix, pud, None, FAST).run()
        expected = FAST.horizon_ns / 4000.0
        assert result.pud_ops_completed == pytest.approx(expected, rel=0.2)

    def test_accelerator_self_throttles_at_saturation(self):
        mix = build_mixes(1)[0]
        pud = PudWorkloadConfig(period_ns=50.0)
        result = MemorySystem(mix, pud, None, FAST).run()
        # service takes ~144 ns, so far fewer ops than attempted
        assert result.pud_ops_completed < FAST.horizon_ns / 100.0


class TestMitigations:
    def _overhead(self, prac, period):
        mix = build_mixes(1)[0]
        alone = [alone_ipc(p, FAST) for p in mix.profiles]
        pud = PudWorkloadConfig(period_ns=period)
        base = MemorySystem(mix, pud, None, FAST).run().weighted_speedup(alone)
        mit = MemorySystem(mix, pud, prac, FAST).run().weighted_speedup(alone)
        return 1.0 - mit / base

    def test_naive_worse_than_weighted(self):
        naive = self._overhead(PracConfig.po_naive(), 4000.0)
        weighted = self._overhead(PracConfig.po_weighted(), 4000.0)
        assert naive > weighted

    def test_weighted_overhead_grows_with_intensity(self):
        low = self._overhead(PracConfig.po_weighted(), 16000.0)
        high = self._overhead(PracConfig.po_weighted(), 250.0)
        assert high > low

    def test_backoffs_counted(self):
        mix = build_mixes(1)[0]
        pud = PudWorkloadConfig(period_ns=1000.0)
        result = MemorySystem(mix, pud, PracConfig.po_weighted(), FAST).run()
        assert result.backoffs > 0
