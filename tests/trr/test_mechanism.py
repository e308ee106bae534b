"""Sampling-based TRR model."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.trr import SamplingTrr


class TestSampler:
    def test_capable_fraction_matches_period(self):
        trr = SamplingTrr(window=450, capable_ref_period=4, seed=0)
        refreshing = 0
        trials = 2000
        for i in range(trials):
            trr.on_act(0, 10, i * 7800.0)  # keep the sampler fed
            if trr.on_ref(0, i * 7800.0):
                refreshing += 1
        assert refreshing / trials == pytest.approx(0.25, abs=0.05)

    def test_no_fixed_phase(self):
        trr = SamplingTrr(window=450, capable_ref_period=4, seed=0)
        gaps = []
        last = None
        for i in range(400):
            trr.on_act(0, 10, i * 7800.0)
            if trr.on_ref(0, i * 7800.0):
                if last is not None:
                    gaps.append(i - last)
                last = i
        assert len(set(gaps)) > 2  # not strictly periodic

    def test_sampled_row_comes_from_buffer(self):
        trr = SamplingTrr(capable_ref_period=1, seed=0)
        for i in range(100):
            trr.on_act(0, 42, float(i))
        assert trr.on_ref(0, 1000.0) == [42]  # period 1 = always capable

    def test_window_eviction(self):
        trr = SamplingTrr(window=450, capable_ref_period=1, seed=0)
        trr.on_act(0, 7, 0.0)
        for i in range(450):  # flood evicts row 7
            trr.on_act(0, 99, float(i + 1))
        assert trr.on_ref(0, 5000.0) == [99]

    def test_buffers_per_bank(self):
        trr = SamplingTrr(capable_ref_period=1, seed=0)
        trr.on_act(0, 7, 0.0)
        trr.on_act(1, 9, 0.0)
        assert trr.on_ref(0, 100.0) == [7]
        assert trr.on_ref(1, 100.0) == [9]

    def test_empty_buffer_no_refresh(self):
        trr = SamplingTrr(capable_ref_period=1, seed=0)
        assert trr.on_ref(0, 0.0) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SamplingTrr(window=0)
        with pytest.raises(ValueError):
            SamplingTrr(capable_ref_period=0)

    def test_buffer_cleared_after_sampling(self):
        trr = SamplingTrr(capable_ref_period=1, seed=0)
        trr.on_act(0, 7, 0.0)
        trr.on_ref(0, 100.0)
        assert trr.on_ref(0, 200.0) == []


class TestSamplerEdgeCases:
    """Satellite coverage: tREFI boundaries, empty windows, determinism."""

    def test_buffer_survives_trefi_boundaries(self):
        # the sampler window is command-counted, not time-windowed: an ACT
        # from several tREFI ago is still sampleable if nothing evicted it
        trr = SamplingTrr(window=450, capable_ref_period=1, seed=0)
        trr.on_act(0, 42, 0.0)
        for i in range(1, 6):  # five refresh windows with no further ACTs
            now = i * 7800.0
            result = trr.on_ref(0, now)
            if result:
                assert result == [42]
                return
        raise AssertionError("capable-period-1 sampler never fired")

    def test_exactly_window_many_acts_all_sampleable(self):
        trr = SamplingTrr(window=450, capable_ref_period=1, seed=0)
        for i in range(450):
            trr.on_act(0, 100 + i, float(i))
        sampled = trr.on_ref(0, 7800.0)
        assert sampled and 100 <= sampled[0] < 550

    def test_one_past_window_evicts_exactly_the_oldest(self):
        trr = SamplingTrr(window=3, capable_ref_period=1, seed=0)
        for row in (1, 2, 3, 4):  # row 1 falls off the 3-deep buffer
            trr.on_act(0, row, 0.0)
        seen = set()
        for _ in range(64):
            seen.update(trr.on_ref(0, 0.0))
            for row in (2, 3, 4):
                trr.on_act(0, row, 0.0)
        assert 1 not in seen and seen <= {2, 3, 4}

    def test_zero_aggressor_window_never_refreshes(self):
        # a capable REF with an empty buffer must be a no-op, repeatedly
        trr = SamplingTrr(capable_ref_period=1, seed=0)
        for i in range(32):
            assert trr.on_ref(0, i * 7800.0) == []
        assert trr.stats["targeted_refreshes"] == 0
        # and after a sample clears the buffer, the next REF is empty again
        trr.on_act(0, 9, 0.0)
        assert trr.on_ref(0, 0.0) == [9]
        assert trr.on_ref(0, 0.0) == []

    def test_fixed_seed_is_deterministic(self):
        def trace(seed):
            trr = SamplingTrr(window=450, capable_ref_period=4, seed=seed)
            out = []
            for i in range(600):
                trr.on_act(0, i % 37, float(i))
                out.append(tuple(trr.on_ref(0, float(i))))
            return out

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)  # and the seed actually matters


class TestActStream:
    """The batched path must leave exactly the state per-ACT calls would."""

    @pytest.mark.parametrize("times", [1, 3])
    @pytest.mark.parametrize("n_rows", [5, 200, 450, 700])
    def test_buffer_matches_sequential(self, n_rows, times):
        rows = [(7 * i + 3) % 97 for i in range(n_rows)]
        sequential = SamplingTrr(window=450, capable_ref_period=4, seed=0)
        for _ in range(times):
            for row in rows:
                sequential.on_act(0, row, 0.0)
        batched = SamplingTrr(window=450, capable_ref_period=4, seed=0)
        batched.on_act_stream(0, rows, times)
        assert list(batched._buffer(0)) == list(sequential._buffer(0))
        assert batched.stats == sequential.stats

    def test_sampling_draws_bit_identical(self):
        rows = [10, 11, 10, 12]
        draws = {}
        for mode in ("sequential", "batched"):
            trr = SamplingTrr(window=450, capable_ref_period=1, seed=3)
            out = []
            for _ in range(32):
                if mode == "sequential":
                    for _ in range(9):
                        for row in rows:
                            trr.on_act(0, row, 0.0)
                else:
                    trr.on_act_stream(0, rows, 9)
                out.append(tuple(trr.on_ref(0, 0.0)))
            draws[mode] = out
        assert draws["batched"] == draws["sequential"]

    def test_empty_stream_is_a_noop(self):
        trr = SamplingTrr(capable_ref_period=1, seed=0)
        trr.on_act_stream(0, [], 5)
        trr.on_act_stream(0, [1, 2], 0)
        assert trr.stats["acts_seen"] == 0
        assert list(trr._buffer(0)) == []
        assert trr.on_ref(0, 0.0) == []  # every REF is capable at period 1

    @given(
        window=st.integers(1, 600),
        rows=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=1000),
        times=st.integers(0, 2000),
        prefill=st.lists(st.integers(0, 1 << 20), max_size=700),
    )
    @example(window=450, rows=list(range(150)), times=3, prefill=[7])
    @example(window=5, rows=list(range(7)), times=1, prefill=[1, 2])
    @example(window=5, rows=list(range(7)), times=2, prefill=[])
    @example(window=4, rows=[1, 2, 3], times=3, prefill=[9] * 4)
    @settings(max_examples=60, deadline=None)
    def test_stream_matches_sequential_acts(self, window, rows, times, prefill):
        def sampler():
            trr = SamplingTrr(window=window, capable_ref_period=1, seed=5)
            for row in prefill:
                trr.on_act(0, row, 0.0)
            return trr

        sequential = sampler()
        for _ in range(times):
            for row in rows:
                sequential.on_act(0, row, 0.0)
        expected = (list(sequential._buffer(0)), sequential.stats)
        expected_draws = [sequential.on_ref(0, 0.0) for _ in range(8)]
        # the host passes CompiledStream.act_rows, an int64 ndarray
        for batch in (rows, np.asarray(rows, dtype=np.int64)):
            batched = sampler()
            batched.on_act_stream(0, batch, times)
            assert (list(batched._buffer(0)), batched.stats) == expected
            assert [batched.on_ref(0, 0.0) for _ in range(8)] == expected_draws

    def test_stats_property_reads_attributes(self):
        trr = SamplingTrr(capable_ref_period=1, seed=0)
        trr.on_act(0, 5, 0.0)
        trr.on_ref(0, 0.0)
        assert trr.stats == {
            "acts_seen": 1,
            "refs_seen": 1,
            "targeted_refreshes": 1,
        }
        assert trr.acts_seen == 1
