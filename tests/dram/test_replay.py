"""The shared replay trace's own contract (``repro.dram.replay``).

Hypothesis records one compiled RowHammer or CoMRA loop window -- a
segment run by ``run_stream`` at a drawn count, optionally a second one
at a fixed count, then a tail that reads the victim back -- with marker
ops of a caller's own interleaved after
every event, and replays the trace on a twin bank (one that ran the
same window, so the ledger slots the ops name are its own) from a later
start at the same count.  The replay must move the twin's counters by
``stats_const + stats_linear * (count - 1)``, exactly what the recorded
run moved them by; leave every recorded close, the last PRE and the
run's end at the same offset from its start; and hand each marker to
``other`` in capture order, with its window's start.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_module
from repro.bender.compiler import compile_stream, run_stream
from repro.bender.program import Loop
from repro.core import patterns
from repro.dram.replay import TraceRecorder

CONFIG = "hynix-a-8gb"

#: a short draw per tier-1 run; ``HYPOTHESIS_PROFILE=ci`` soaks with that
#: profile's larger budget (registered in tests/conftest.py)
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 25
)


@st.composite
def cases(draw):
    rows = make_module(CONFIG).geometry.rows_per_subarray
    return dict(
        kind=draw(st.sampled_from(("rowhammer", "comra"))),
        victim=draw(st.integers(0, 2)) * rows + draw(st.integers(1, rows - 2)),
        count=draw(st.integers(1, 64)),
        fixed=draw(st.sampled_from((None, 1, 2, 3))),
        # start times on the 1.5 ns bus grid, as every host clock is
        start=draw(st.integers(0, 10**6)) * 1.5,
        shift=draw(st.integers(1, 10**6)) * 1.5,
    )


def loop_stream(module, case):
    program = (
        patterns.double_sided_comra
        if case["kind"] == "comra" else patterns.double_sided_rowhammer
    )(module, case["victim"], case["count"])
    (loop,) = [i for i in program.instructions if isinstance(i, Loop)]
    return compile_stream(loop.body, module)


def record(case):
    """Run the drawn window on a fresh bank under a recorder; returns the
    trace, the bank, the run's end and the markers in capture order."""
    module = make_module(CONFIG)
    bank = module.bank(0)
    timing = module.timing
    stream = loop_stream(module, case)
    count, start = case["count"], case["start"]
    recorder = TraceRecorder(bank, count)
    markers = []

    def tap(tap):
        recorder.tap(tap)
        if tap[0] == "event":
            marker = ("marker", len(markers), recorder.base - start)
            markers.append(marker)
            recorder.ops.append(marker)

    bank.probe_tap = tap
    recorder.segment(start, stream.duration_ns, None)
    linear = run_stream(bank, stream, start, count)
    t = start + stream.duration_ns * count
    fixed = case["fixed"]
    if fixed is not None:
        # its counter deltas are constant: not part of stats_linear
        recorder.segment(t, stream.duration_ns, fixed)
        run_stream(bank, stream, t, fixed)
        t += stream.duration_ns * fixed
    recorder.tail(t)
    bank.flush(t)
    bank.act(case["victim"], t + timing.tRP)
    bank.pre(t + timing.tRP + timing.tRAS)
    end = t + timing.tRP + timing.tRAS
    bank.flush(end)
    bank.probe_tap = None
    return recorder.finish(end, linear), bank, end, markers


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases())
def test_replay_reapplies_the_recorded_bookkeeping(case):
    trace, recorded, end, markers = record(case)
    # the twin ran the same window, so its ledger slots and cached plans
    # are the ones the trace's ops name
    _trace, twin, _end, _markers = record(case)
    count, start = case["count"], case["start"]
    base = end + case["shift"]
    before = dict(twin.stats)
    seen = []

    def other(op, op_base):
        assert op_base == base + op[2], op
        seen.append(op)

    got_end = trace.replay(twin, base, count, other)

    moved = {key: twin.stats[key] - before[key] for key in before}
    expected = dict.fromkeys(before, 0)
    for key, value in trace.stats_const.items():
        expected[key] += value
    for key, value in trace.stats_linear.items():
        expected[key] += value * (count - 1)
    assert moved == expected
    # the recorded run started from a fresh bank: its counters are its deltas
    assert moved == recorded.stats
    assert {row: t - base for row, t in twin._last_close.items()} == {
        row: t - start for row, t in recorded._last_close.items()
    }
    assert twin._last_pre_ns - base == recorded._last_pre_ns - start
    assert got_end - base == end - start
    assert seen == markers
    assert markers, "the window emitted no event"
