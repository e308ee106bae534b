"""Vectorized vs scalar fault-model oracles, over random draws.

The session resolves every oracle-mode WCDP through the bulk
:meth:`DisturbanceModel.worst_case_patterns`, and experiments rank victims
with :meth:`DisturbanceModel.reference_hcfirst_array`; the scalar
``worst_case_pattern`` / ``reference_hcfirst`` pair is the reference
both replaced.  For every Table 2 configuration, each draw picks a random
serial and bank, a mechanism and a SiMRA row count, then a row list mixing
random rows, the bank's sentinel rows and subarray edge rows (in a
shuffled order that spans subarrays).  The two paths must agree exactly:
``==`` on every pattern and every float, no tolerance.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disturbance import (
    MODULE_CALIBRATIONS,
    SIMRA_COUNTS,
    DisturbanceModel,
    Mechanism,
)
from repro.dram.vendors import scaled_geometry

#: a short draw per configuration in a tier-1 run; ``HYPOTHESIS_PROFILE=ci``
#: soaks with that profile's budget
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 4
)


def _edges(geometry) -> list[int]:
    """The first two and last two rows of every subarray."""
    rows = []
    for subarray in range(geometry.subarrays_per_bank):
        span = geometry.subarray_rows(subarray)
        rows += [span.start, span.start + 1, span.stop - 2, span.stop - 1]
    return rows


@st.composite
def cases(draw, calibration):
    geometry = scaled_geometry(calibration)
    model = DisturbanceModel(geometry, calibration, draw(st.integers(0, 2**20)))
    bank = draw(st.integers(0, geometry.banks - 1))
    mechanism = draw(st.sampled_from(list(Mechanism)))
    simra_count = draw(st.sampled_from(SIMRA_COUNTS))
    rows = draw(st.lists(
        st.integers(0, geometry.rows_per_bank - 1), min_size=1, max_size=40
    ))
    sentinels = [model.sentinel_row(m, bank) for m in Mechanism]
    rows += [row for row in sentinels if row is not None]
    rows += draw(st.lists(st.sampled_from(_edges(geometry)), max_size=12))
    rows = draw(st.permutations(rows))
    return model, bank, mechanism, simra_count, rows


calibrations = pytest.mark.parametrize(
    "calibration", MODULE_CALIBRATIONS, ids=lambda cal: cal.config_id
)


@calibrations
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_worst_case_patterns_match_scalar(calibration, data):
    model, bank, mechanism, _, rows = data.draw(cases(calibration))
    bulk = model.worst_case_patterns(bank, rows, mechanism)
    scalar = [model.worst_case_pattern(bank, row, mechanism) for row in rows]
    assert bulk == scalar


@calibrations
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_reference_hcfirst_array_matches_scalar(calibration, data):
    model, bank, mechanism, simra_count, rows = data.draw(cases(calibration))
    bulk = model.reference_hcfirst_array(
        bank, rows, mechanism, simra_count=simra_count
    )
    scalar = [
        model.reference_hcfirst(bank, row, mechanism, simra_count)
        for row in rows
    ]
    assert bulk.tolist() == scalar  # bit-exact, inf included
