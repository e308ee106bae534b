"""Hammer-pattern builders."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import patterns
from repro.dram import make_module
from repro.dram.errors import AddressError

from ..trr_rounds import trr_round


class TestRowHammerPatterns:
    def test_double_sided_command_count(self, hynix_module):
        program = patterns.double_sided_rowhammer(hynix_module, 50, 100)
        assert program.command_count == 400  # 2 ACT + 2 PRE per iteration

    def test_double_sided_rejects_subarray_edge(self, hynix_module):
        with pytest.raises(AddressError):
            patterns.double_sided_rowhammer(hynix_module, 0, 10)

    def test_rowpress_duration_scales_with_taggon(self, hynix_module):
        fast = patterns.double_sided_rowhammer(hynix_module, 50, 10)
        slow = patterns.double_sided_rowhammer(hynix_module, 50, 10,
                                               t_agg_on_ns=7800.0)
        assert slow.duration_ns > fast.duration_ns * 50


class TestComraPatterns:
    def test_single_sided_requires_distance(self, hynix_module):
        with pytest.raises(AddressError):
            patterns.single_sided_comra(hynix_module, 50, 52, 10)

    def test_single_sided_requires_same_subarray(self, hynix_module):
        with pytest.raises(AddressError):
            patterns.single_sided_comra(hynix_module, 50, 150, 10)

    def test_reverse_swaps_src_dst(self, hynix_module):
        forward = patterns.double_sided_comra(hynix_module, 50, 1)
        backward = patterns.double_sided_comra(hynix_module, 50, 1, reverse=True)
        f_rows = [i.row for i in forward.flattened() if hasattr(i, "row") and i.row is not None]
        b_rows = [i.row for i in backward.flattened() if hasattr(i, "row") and i.row is not None]
        assert f_rows == list(reversed(b_rows))


class TestSimraPairs:
    def test_double_sided_pair_shapes(self, hynix_module):
        for n in (2, 4, 8, 16):
            pair = patterns.simra_pair_for(hynix_module, 64, n)
            assert pair.count == n
            assert pair.sandwiched_victims()

    def test_single_sided_pairs_contiguous(self, hynix_module):
        for n in (2, 4, 8, 16, 32):
            pair = patterns.simra_pair_for(hynix_module, 64, n, "single-sided")
            assert pair.count == n
            assert not pair.sandwiched_victims()

    def test_no_double_sided_32(self, hynix_module):
        with pytest.raises(AddressError):
            patterns.simra_pair_for(hynix_module, 64, 32)

    def test_anchor_varies_groups(self, hynix_module):
        a = patterns.simra_pair_for(hynix_module, 64, 4, anchor_offset=0)
        b = patterns.simra_pair_for(hynix_module, 64, 4, anchor_offset=9)
        assert a.group != b.group

    @given(st.integers(min_value=1, max_value=94),
           st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_sandwiching_pair_property(self, victim, n_rows):
        module = make_module("hynix-a-8gb")
        pair = patterns.simra_pair_sandwiching(module, victim, n_rows)
        if pair is not None:
            assert victim in pair.sandwiched_victims()
            assert len(pair.group) == n_rows
            assert victim not in pair.group


class TestTrrPatterns:
    def test_n_sided_issues_refs(self, hynix_module):
        from repro.bender.program import Ref
        program = trr_round(
            hynix_module, "rowhammer", [50, 52], dummy=80,
            hammer_windows=1, dummy_windows=3,
        )
        refs = sum(1 for i in program.flattened() if isinstance(i, Ref))
        assert refs == 4

    def test_window_act_budget(self, hynix_module):
        from repro.bender.program import Act
        program = trr_round(
            hynix_module, "rowhammer", [50, 52], dummy=80,
            hammer_windows=1, dummy_windows=0,
        )
        acts = sum(1 for i in program.flattened() if isinstance(i, Act))
        assert acts == 156

    def test_window_remainder_follows_its_loop(self, hynix_module):
        # 8 ACTs over 3 aggressors: two whole periods in a Loop, then the
        # first two aggressors flat, in the order the rows cycle
        from repro.bender.program import Act, Loop, Nop, Ref
        rows = [50, 52, 54]
        program = trr_round(
            hynix_module, "rowhammer", rows, dummy=80, acts_per_trefi=8,
            dummy_windows=0,
        )
        loop, *rest = program.instructions
        assert isinstance(loop, Loop) and loop.count == 2
        logical = [hynix_module.to_logical(r) for r in rows]
        assert [i.row for i in loop.body if isinstance(i, Act)] == logical
        assert [i.row for i in rest if isinstance(i, Act)] == logical[:2]
        assert isinstance(rest[-2], Nop) and isinstance(rest[-1], Ref)
        acts = [i.row for i in program.flattened() if isinstance(i, Act)]
        assert acts == [logical[k % 3] for k in range(8)]
