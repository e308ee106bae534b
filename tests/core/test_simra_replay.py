"""SiMRA probes on trace replay, against the scalar search.

A SiMRA probe's group sensing writes row data: charge-sharing MAJ over the
activated rows, a thermal-noise tie on evenly split bitlines, or nothing
at all when every activated row already agrees.  The batched engine
records the sensing as a ``sense`` op and replays it through the bank's
own ``_sense_group`` on live state, so whole ``HcFirstResult``s must equal
the scalar search's -- including on hand-built setups whose group rows
hold *different* standard patterns, where every replayed sense op really
takes the MAJ and tie paths.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_module
from repro.bender.program import COUNT
from repro.core import patterns
from repro.core.hcfirst import ProbeSetup, find_hc_first_repeated
from repro.core.probe_batch import run_batched_searches
from repro.disturbance.calibration import ALL_PATTERNS
from repro.dram.bank import SIMRA_BLOCK
from repro.obs import Obs

CONFIG = "hynix-a-8gb"

#: a short draw per tier-1 run; ``HYPOTHESIS_PROFILE=ci`` soaks with that
#: profile's larger budget (registered in tests/conftest.py)
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 10
)


def pair_setup(module, row_a, row_b, row_data, victim,
               act_to_pre_ns=3.0, pre_to_act_ns=3.0):
    """A SiMRA hammer setup on the ACT pair ``(row_a, row_b)``."""
    group = module.banks[0].simra_group(row_a, row_b)
    pair = patterns.SimraAddressPair(row_a, row_b, group)
    program = patterns.simra_hammer(
        module, pair, COUNT,
        act_to_pre_ns=act_to_pre_ns, pre_to_act_ns=pre_to_act_ns,
    )
    return ProbeSetup(module, program, row_data, (victim,))


def simra_setup(module, block, n_rows, anchor, row_patterns, victim_pattern,
                act_to_pre_ns=3.0, pre_to_act_ns=3.0):
    """One SiMRA hammer setup over block ``block``, with its own pattern
    per group row.  Double-sided groups measure their lowest sandwiched
    victim; 32-row groups (always contiguous) the row above the block."""
    base = block * SIMRA_BLOCK
    style = "single-sided" if n_rows == 32 else "double-sided"
    pair = patterns.simra_pair_for(module, base, n_rows, style, anchor)
    victim = (
        base + SIMRA_BLOCK if n_rows == 32 else pair.sandwiched_victims()[0]
    )
    nbytes = module.geometry.row_bytes
    row_data = {
        row: row_patterns[k % len(row_patterns)].fill(nbytes)
        for k, row in enumerate(pair.group)
    }
    row_data[victim] = victim_pattern.fill(nbytes)
    return pair_setup(
        module, pair.row_a, pair.row_b, row_data, victim,
        act_to_pre_ns, pre_to_act_ns,
    )


@st.composite
def simra_cases(draw):
    n_rows = draw(st.sampled_from((2, 4, 8, 16, 32)))
    blocks = draw(st.lists(
        st.integers(0, 10), min_size=1, max_size=3, unique=True
    ))
    units = [
        (
            block,
            draw(st.integers(0, SIMRA_BLOCK - 1)),
            draw(st.lists(st.sampled_from(ALL_PATTERNS), min_size=1,
                          max_size=n_rows)),
            draw(st.sampled_from(ALL_PATTERNS)),
        )
        for block in blocks
    ]
    return dict(
        n_rows=n_rows,
        units=units,
        act_to_pre_ns=draw(st.sampled_from((1.5, 3.0))),
        pre_to_act_ns=draw(st.sampled_from((1.5, 3.0, 4.5))),
        repeats=draw(st.integers(1, 2)),
    )


def build(case):
    module = make_module(CONFIG)
    return [
        simra_setup(
            module, block, case["n_rows"], anchor, row_patterns,
            victim_pattern, case["act_to_pre_ns"], case["pre_to_act_ns"],
        )
        for block, anchor, row_patterns, victim_pattern in case["units"]
    ]


@settings(max_examples=EXAMPLES, deadline=None)
@given(simra_cases())
def test_replayed_simra_matches_scalar_search(case):
    obs = Obs()
    got = run_batched_searches(build(case), repeats=case["repeats"], obs=obs)
    ref = [
        find_hc_first_repeated(setup, repeats=case["repeats"])
        for setup in build(case)
    ]
    assert got == ref
    paths = obs.by_label("probe.probes", "path")
    assert paths.get("interp", 0) > 0, paths
    assert set(paths) <= {"interp", "capture"}, paths


def _rows(module, rows, victim):
    pattern = ALL_PATTERNS[0]
    nbytes = module.geometry.row_bytes
    return {
        row: (pattern.negated if row == victim else pattern).fill(nbytes)
        for row in rows
    }


def _run(setups_of):
    """Engine results, scalar results and the engine's probe paths for
    the setups ``setups_of(module)`` builds on a fresh module."""
    obs = Obs()
    got = run_batched_searches(setups_of(make_module(CONFIG)), obs=obs)
    ref = [
        find_hc_first_repeated(setup)
        for setup in setups_of(make_module(CONFIG))
    ]
    return got, ref, obs.by_label("probe.probes", "path")


class TestTranslation:
    def test_aligned_shift_shares_one_capture(self):
        # the second unit is the first shifted by one 32-row block: its
        # decoder groups shift with it, so it replays the donor's trace
        def setups_of(module):
            return [
                pair_setup(module, base, base + 6,
                           _rows(module, range(base, base + 7), base + 1),
                           base + 1)
                for base in (64, 96)
            ]

        got, ref, paths = _run(setups_of)
        assert got == ref
        assert paths.get("capture") == 1, paths
        assert set(paths) <= {"interp", "capture"}, paths

    def test_misaligned_shift_captures_per_unit(self):
        # the pair (64, 66) opens the 2-row group (64, 66); shifted by 2,
        # its streams and row set line up with the pair (66, 68), but that
        # pair opens the 4-row group (64, 66, 68, 70): the second unit
        # must capture its own trace
        def setups_of(module):
            return [
                pair_setup(module, 64, 66,
                           _rows(module, (62, 64, 65, 66, 68), 65), 65),
                pair_setup(module, 66, 68,
                           _rows(module, (64, 66, 67, 68, 70), 67), 67),
            ]

        got, ref, paths = _run(setups_of)
        assert got == ref
        assert paths.get("capture") == 2, paths
        assert set(paths) <= {"interp", "capture"}, paths
