"""Probe templates bind to the programs their builders write at a count.

Every ``measure_*`` primitive hands the probe engine one template per
request -- a pattern builder called with ``COUNT`` -- and the scalar
search runs ``template.bind(n)`` per probe.  For every probe builder, on
random rows, timings and counts, binding the template must give exactly
the program the builder writes when called with ``n``: double-sided
RowHammer and RowPress, single-sided and far RowHammer, CoMRA
double-sided (both copy directions) and single-sided, SiMRA double- and
single-sided groups, and the §6 combined program (fixed-count CoMRA and
SiMRA prefixes, then double-sided RowHammer).
"""

from __future__ import annotations

import os
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_module
from repro.bender import program as dsl
from repro.bender.program import COUNT
from repro.core import patterns
from repro.dram.bank import SIMRA_BLOCK

#: a short draw per tier-1 run; ``HYPOTHESIS_PROFILE=ci`` soaks with that
#: profile's larger budget (registered in tests/conftest.py)
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 5
)

#: one SiMRA-capable configuration and two without SiMRA
CONFIGS = ("hynix-a-8gb", "samsung-b-16gb", "micron-f-16gb")
SIMRA_CONFIG = "hynix-a-8gb"

#: probe hammer counts, zero included
COUNTS = st.integers(0, 10_000_000)
#: command slacks; the builders quantize them to the 1.5 ns bus cycle
TIMINGS = st.floats(0.0, 2_000.0, allow_nan=False)


@lru_cache(maxsize=None)
def _module(config_id):
    return make_module(config_id)


def _row_in(draw, module, subarray, margin=0):
    rows = module.geometry.subarray_rows(subarray)
    return draw(st.integers(rows.start + margin, rows.stop - 1 - margin))


def _subarray(draw, module):
    return draw(st.integers(0, module.geometry.subarrays_per_bank - 1))


def _block(draw, module):
    return draw(st.integers(0, module.geometry.rows_per_bank // SIMRA_BLOCK - 1))


def _rowhammer_ds(draw, module):
    victim = _row_in(draw, module, _subarray(draw, module), margin=1)
    t_on = draw(TIMINGS)
    return lambda count: patterns.double_sided_rowhammer(
        module, victim, count, t_agg_on_ns=t_on
    )


def _rowhammer_ss(draw, module):
    aggressor = _row_in(draw, module, _subarray(draw, module))
    t_on = draw(TIMINGS)
    return lambda count: patterns.single_sided_rowhammer(
        module, aggressor, count, t_agg_on_ns=t_on
    )


def _rowhammer_far(draw, module):
    row_a = _row_in(draw, module, _subarray(draw, module))
    row_b = _row_in(draw, module, _subarray(draw, module))
    t_on = draw(TIMINGS)
    return lambda count: patterns.far_double_sided_rowhammer(
        module, row_a, row_b, count, t_agg_on_ns=t_on
    )


def _comra_ds(draw, module):
    victim = _row_in(draw, module, _subarray(draw, module), margin=1)
    delay, t_on, reverse = draw(TIMINGS), draw(TIMINGS), draw(st.booleans())
    return lambda count: patterns.double_sided_comra(
        module, victim, count, pre_to_act_ns=delay, t_agg_on_ns=t_on,
        reverse=reverse,
    )


def _comra_ss(draw, module):
    subarray = _subarray(draw, module)
    src = _row_in(draw, module, subarray)
    rows = module.geometry.subarray_rows(subarray)
    dst = draw(st.integers(rows.start, rows.stop - 1).filter(
        lambda row: abs(row - src) >= 10
    ))
    delay, t_on = draw(TIMINGS), draw(TIMINGS)
    return lambda count: patterns.single_sided_comra(
        module, src, dst, count, pre_to_act_ns=delay, t_agg_on_ns=t_on
    )


def _simra_pair(draw, module, style):
    n_rows = draw(st.sampled_from(
        (2, 4, 8, 16) if style == "double-sided" else (2, 4, 8, 16, 32)
    ))
    block = _block(draw, module)
    anchor = draw(st.integers(0, SIMRA_BLOCK - 1))
    return patterns.simra_pair_for(
        module, block * SIMRA_BLOCK, n_rows, style, anchor
    )


def _simra(style):
    def builder(draw, module):
        pair = _simra_pair(draw, module, style)
        act_to_pre, pre_to_act, t_on = (draw(TIMINGS) for _ in range(3))
        return lambda count: patterns.simra_hammer(
            module, pair, count, act_to_pre_ns=act_to_pre,
            pre_to_act_ns=pre_to_act, t_agg_on_ns=t_on,
        )
    return builder


def _combined(draw, module):
    """The session's §6 program: fixed-count CoMRA and SiMRA-2 prefixes
    on a victim one SiMRA-2 pair sandwiches, then RowHammer."""
    block = _block(draw, module)
    victim = block * SIMRA_BLOCK + 4 * draw(st.integers(0, 7)) + 1
    pair = patterns.simra_pair_sandwiching(module, victim, 2)
    prefix = (
        patterns.double_sided_comra(module, victim, draw(COUNTS)).instructions
        + patterns.simra_hammer(module, pair, draw(COUNTS)).instructions
    )
    return lambda count: dsl.TestProgram(
        prefix
        + patterns.double_sided_rowhammer(module, victim, count).instructions,
        "combined",
    )


#: builder name -> (configurations, draw -> module -> count -> program)
BUILDERS = {
    "rowhammer_ds": (CONFIGS, _rowhammer_ds),
    "rowhammer_ss": (CONFIGS, _rowhammer_ss),
    "rowhammer_far": (CONFIGS, _rowhammer_far),
    "comra_ds": (CONFIGS, _comra_ds),
    "comra_ss": (CONFIGS, _comra_ss),
    "simra_ds": ((SIMRA_CONFIG,), _simra("double-sided")),
    "simra_ss": ((SIMRA_CONFIG,), _simra("single-sided")),
    "combined": ((SIMRA_CONFIG,), _combined),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_bound_template_is_the_built_program(name, data):
    configs, builder = BUILDERS[name]
    module = _module(data.draw(st.sampled_from(configs), label="config"))
    build = builder(data.draw, module)
    count = data.draw(COUNTS, label="count")
    bound = build(COUNT).bind(count)
    built = build(count)
    assert bound.instructions == built.instructions
    assert bound.name == built.name
