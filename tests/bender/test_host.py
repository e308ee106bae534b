"""Host execution: stream/unrolled equivalence, loop paths, IO, warnings."""

import numpy as np
import pytest

from repro.bender.host import DramBenderHost
from repro.bender.program import ProgramBuilder
from repro.dram import make_module
from repro.obs import Obs
from repro.trr import SamplingTrr


def hammer_program(module, victim, count):
    low = module.to_logical(victim - 1)
    high = module.to_logical(victim + 1)
    body = (
        ProgramBuilder()
        .act(0, low, 13.5).pre(0, 36.0)
        .act(0, high, 13.5).pre(0, 36.0)
    )
    return ProgramBuilder("ds").loop(count, body).build()


def _run_hammer(fast, count, trr=False):
    victim = 2 * 96 + 40
    module = make_module("hynix-a-8gb")
    if trr:
        module.attach_trr(SamplingTrr(seed=0))
    host = DramBenderHost(module, compile_streams=fast)
    host.run(hammer_program(module, victim, count))
    return (
        module.model.damage_fraction(0, victim),
        dict(module.banks[0].stats),
        host.now_ns,
    )


class TestStreamEquivalence:
    @pytest.mark.parametrize("trr", [False, True], ids=["no-trr", "trr"])
    @pytest.mark.parametrize("count", [1, 2, 3, 400])
    def test_stream_matches_unrolled(self, count, trr):
        damage, stats, now_ns = _run_hammer(True, count, trr)
        ref_damage, ref_stats, ref_now_ns = _run_hammer(False, count, trr)
        assert stats == ref_stats
        assert now_ns == ref_now_ns
        assert damage.keys() == ref_damage.keys()
        # the stream's second pass adds the repeated increment once,
        # multiplied by count - 1; unrolled adds it count - 1 times, so
        # only the float summation order differs
        for key, value in ref_damage.items():
            assert damage[key] == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_bodies_with_reads_take_exact_path(self, hynix_module):
        host = DramBenderHost(hynix_module)
        body = (
            ProgramBuilder()
            .act(0, 3, 13.5).rd(0, 3, 15.0).pre(0, 36.0)
        )
        program = ProgramBuilder().loop(5, body).build()
        result = host.run(program)
        assert len(result.reads) == 5


class TestRowIO:
    def test_write_then_read(self, hynix_module):
        host = DramBenderHost(hynix_module)
        data = np.arange(hynix_module.geometry.row_bytes, dtype=np.uint8)
        host.write_rows(0, {5: data})
        back = host.read_rows(0, [5])[5]
        assert np.array_equal(back, data)

    def test_result_data_for(self, hynix_module):
        host = DramBenderHost(hynix_module)
        program = (
            ProgramBuilder()
            .act(0, 3, 13.5).rd(0, 3, 15.0).pre(0, 36.0)
            .build()
        )
        result = host.run(program)
        assert result.data_for(0, 3) is not None
        with pytest.raises(KeyError):
            result.data_for(0, 99)


class TestRefreshWindowGuard:
    def _long_program(self, module):
        body = ProgramBuilder().nop(70_200.0)
        return ProgramBuilder("press").loop(1000, body).build()

    def test_warns_beyond_refresh_window(self, hynix_module):
        host = DramBenderHost(hynix_module)
        result = host.run(self._long_program(hynix_module))
        assert result.warnings

    def test_enforcement_raises(self, hynix_module):
        host = DramBenderHost(hynix_module, enforce_refresh_window=True)
        with pytest.raises(RuntimeError):
            host.run(self._long_program(hynix_module))


class TestTrrSeesEveryAct:
    def test_sampler_counts_streamed_acts(self, hynix_module):
        hynix_module.attach_trr(SamplingTrr())
        host = DramBenderHost(hynix_module)
        victim = 2 * 96 + 40
        host.run(hammer_program(hynix_module, victim, 50))
        # the batched on_act_stream reported every ACT of the stream
        assert hynix_module.banks[0].trr.stats["acts_seen"] == 100


def _single_bank():
    return (
        ProgramBuilder()
        .act(0, 5, 13.5).pre(0, 36.0)
        .act(0, 9, 13.5).pre(0, 36.0)
    )


def _multi_bank():
    return (
        ProgramBuilder()
        .act(0, 5, 13.5).pre(0, 36.0)
        .act(1, 5, 13.5).pre(1, 36.0)
    )


def _nested():
    return ProgramBuilder().loop(2, _single_bank())


def _with_read():
    return ProgramBuilder().act(0, 3, 13.5).rd(0, 3, 15.0).pre(0, 36.0)


def _nop_only():
    return ProgramBuilder().nop(100.0)


class TestLoopPathSelection:
    """Every loop is a compiled stream when its body lowers, else unrolled."""

    @pytest.mark.parametrize(
        "body, path",
        [
            (_single_bank, "stream"),
            (_multi_bank, "unrolled"),
            (_nested, "unrolled"),
            (_with_read, "unrolled"),
            (_nop_only, "unrolled"),
        ],
        ids=["single-bank", "multi-bank", "nested", "read", "nop-only"],
    )
    @pytest.mark.parametrize("count", [1, 2, 3, 400])
    @pytest.mark.parametrize("trr", [False, True], ids=["no-trr", "trr"])
    def test_loop_path(self, body, path, count, trr):
        module = make_module("hynix-a-8gb")
        if trr:
            module.attach_trr(SamplingTrr(seed=0))
        obs = Obs()
        host = DramBenderHost(module, obs=obs)
        host.run(ProgramBuilder().loop(count, body()).build())
        loops = obs.by_label("host.loops", "path")
        if body is _nested:
            # the outer loop unrolls; its inner single-bank loop streams
            assert loops == {"unrolled": 1, "stream": count}
        else:
            assert loops == {path: 1}

    def test_reference_host_unrolls_everything(self):
        module = make_module("hynix-a-8gb")
        obs = Obs()
        host = DramBenderHost(module, compile_streams=False, obs=obs)
        host.run(ProgramBuilder().loop(400, _single_bank()).build())
        assert obs.by_label("host.loops", "path") == {"unrolled": 1}
