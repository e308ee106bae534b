"""Lowering hammer programs into compiled command streams."""

import pytest

from repro.attack import synthesize_attacks
from repro.bender.compiler import (
    LoopStep,
    RunStep,
    StreamStep,
    build_plan,
    compile_stream,
    run_stream,
)
from repro.bender.program import Act, Loop, Nop, Pre, ProgramBuilder, Ref
from repro.core import patterns
from repro.dram import make_module
from repro.dram.bank import STREAM_ACT, STREAM_PRE

from ..trr_rounds import trr_round


@pytest.fixture()
def module():
    return make_module("hynix-a-8gb")


def rowhammer_body(module, victim=2 * 96 + 40):
    low = module.to_logical(victim - 1)
    high = module.to_logical(victim + 1)
    return (
        ProgramBuilder()
        .act(0, low, 13.5).pre(0, 36.0)
        .act(0, high, 13.5).pre(0, 36.0)
        ._instructions
    )


class TestCompileStream:
    def test_lowers_rowhammer_body(self, module):
        victim = 2 * 96 + 40
        stream = compile_stream(rowhammer_body(module, victim), module)
        assert stream is not None
        assert stream.op_list == [STREAM_ACT, STREAM_PRE, STREAM_ACT, STREAM_PRE]
        # logical rows were translated to physical at compile time
        assert list(stream.act_rows) == [victim - 1, victim + 1]
        # offsets are cumulative slacks: 13.5, 49.5, 63.0, 99.0
        assert stream.offset_list == [13.5, 49.5, 63.0, 99.0]
        assert stream.duration_ns == 99.0
        # PRE entries carry row -1; ACT rows are physical
        assert stream.row_list == [victim - 1, -1, victim + 1, -1]

    def test_nop_slack_folds_into_offsets(self, module):
        body = (
            ProgramBuilder()
            .act(0, 5, 13.5).nop(21.0).pre(0, 15.0)
            ._instructions
        )
        stream = compile_stream(body, module)
        assert stream is not None
        assert stream.op_list == [STREAM_ACT, STREAM_PRE]
        assert stream.offset_list == [13.5, 13.5 + 21.0 + 15.0]
        assert stream.duration_ns == 49.5

    def test_rejects_rd_wr_ref(self, module):
        with_rd = ProgramBuilder().act(0, 5, 13.5).rd(0, 5, 15.0).pre(0, 36.0)
        assert compile_stream(with_rd._instructions, module) is None
        with_ref = [Ref(0.0)]
        assert compile_stream(with_ref, module) is None

    def test_rejects_nested_loop(self, module):
        nested = [Loop(2, tuple(rowhammer_body(module)))]
        assert compile_stream(nested, module) is None

    def test_rejects_multi_bank(self, module):
        body = (
            ProgramBuilder()
            .act(0, 5, 13.5).pre(0, 36.0)
            .act(1, 5, 13.5).pre(1, 36.0)
            ._instructions
        )
        assert compile_stream(body, module) is None

    def test_rejects_open_boundary(self, module):
        # must start with ACT and end with PRE so repetitions tile with
        # the bank precharged at every boundary
        starts_with_pre = ProgramBuilder().pre(0, 36.0).act(0, 5, 13.5)
        assert compile_stream(starts_with_pre._instructions, module) is None
        ends_open = ProgramBuilder().act(0, 5, 13.5)
        assert compile_stream(ends_open._instructions, module) is None
        assert compile_stream([Nop(1.5)], module) is None


def _loop_body(program):
    (loop,) = program.instructions
    return loop.body


#: one compiled stream per mechanism the two-pass runner serves
STREAM_BODIES = {
    "rowhammer": rowhammer_body,
    "comra": lambda module: _loop_body(
        patterns.double_sided_comra(module, 2 * 96 + 40, 1)
    ),
    "simra": lambda module: _loop_body(patterns.simra_hammer(
        module, patterns.simra_pair_for(module, 64, 4), 1
    )),
}


class TestRunStream:
    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("body", sorted(STREAM_BODIES))
    def test_counters_match_periods_run_one_by_one(self, body, count):
        def fresh():
            module = make_module("hynix-a-8gb")
            stream = compile_stream(STREAM_BODIES[body](module), module)
            return module.bank(0), stream

        bank, stream = fresh()
        deltas = run_stream(bank, stream, 0.0, count)
        ref_bank, _ = fresh()
        after = []
        for k in range(count):
            ref_bank.execute_stream(
                stream.op_list, stream.row_list, stream.offset_list,
                k * stream.duration_ns,
            )
            after.append(dict(ref_bank.stats))
        assert bank.stats == ref_bank.stats
        if count < 2:
            assert deltas == {}
        else:
            # one period's counter deltas (the scaled pass's)
            assert deltas == {
                key: value - after[0][key]
                for key, value in after[1].items()
                if value != after[0][key]
            }
            assert deltas["acts"] == len(stream.act_rows)


def _interpreted_commands(plan) -> int:
    """ACT/PRE commands a plan leaves to per-instruction interpretation."""
    total = 0
    for step in plan:
        if isinstance(step, RunStep):
            total += sum(isinstance(i, (Act, Pre)) for i in step.instructions)
        elif isinstance(step, LoopStep):
            total += step.count * _interpreted_commands(step.plan)
    return total


VICTIM = 2 * 96 + 40

def _simra_round(module):
    pair = patterns.simra_pair_for(module, 64, 4)
    return trr_round(
        module, "simra", (pair.row_a, pair.row_b), 140, dummy_windows=2
    )


#: every §7 round pattern
TRR_PATTERNS = {
    "n-sided": lambda module: trr_round(
        module, "rowhammer", (VICTIM - 1, VICTIM + 1), VICTIM + 30,
        hammer_windows=2, dummy_windows=2,
    ),
    "comra": lambda module: trr_round(
        module, "comra", (VICTIM - 1, VICTIM + 1), VICTIM + 30,
        dummy_windows=2,
    ),
    "simra": _simra_round,
}


class TestBuildPlan:
    @pytest.mark.parametrize("name", sorted(TRR_PATTERNS))
    def test_trr_windows_are_stream_steps(self, module, name):
        program = TRR_PATTERNS[name](module)
        plan = build_plan(program, module)
        assert _interpreted_commands(plan) == 0
        streams = [s for s in plan if isinstance(s, StreamStep)]
        windows = sum(isinstance(i, Ref) for i in program.instructions)
        assert len(streams) == windows  # one per tREFI window
        assert sum(
            len(s.stream.act_rows) * s.count for s in streams
        ) == sum(isinstance(i, Act) for i in program.flattened())

    def test_synthesized_rounds_leave_nothing_interpreted(self, module):
        for spec in synthesize_attacks(module):
            plan = build_plan(spec.build_round(module), module)
            assert _interpreted_commands(plan) == 0, spec.name
            assert any(isinstance(s, StreamStep) for s in plan), spec.name

    def test_stream_periods_close_their_session(self, module):
        for name in sorted(TRR_PATTERNS):
            for step in build_plan(TRR_PATTERNS[name](module), module):
                if isinstance(step, StreamStep):
                    assert step.stream.op_list[0] == STREAM_ACT
                    assert step.stream.op_list[-1] == STREAM_PRE

    def test_streamable_loop_becomes_stream_step(self, module):
        program = patterns.double_sided_rowhammer(module, VICTIM, 100)
        plan = build_plan(program, module)
        assert len(plan) == 1
        assert isinstance(plan[0], StreamStep)
        assert plan[0].count == 100
        assert list(plan[0].stream.act_rows) == [VICTIM - 1, VICTIM + 1]

    def test_unstreamable_loop_keeps_its_body_plan(self, module):
        inner = ProgramBuilder().loop(3, ProgramBuilder(
        ).act(0, 5, 13.5).pre(0, 36.0)).ref()
        program = ProgramBuilder().loop(2, inner).loop(0, inner).build()
        (step,) = build_plan(program, module)  # the empty loop is dropped
        assert isinstance(step, LoopStep) and step.count == 2
        stream, refs = step.plan
        assert isinstance(stream, StreamStep) and stream.count == 3
        assert isinstance(refs, RunStep) and refs.instructions == (Ref(0.0),)

    def test_aperiodic_run_stays_raw(self, module):
        builder = ProgramBuilder("aperiodic")
        for row in (3, 11, 5, 19, 7, 23, 9, 31):  # no repeating period
            builder.act(0, row, 13.5)
            builder.pre(0, 36.0)
        plan = build_plan(builder.build(), module)
        assert all(isinstance(step, RunStep) for step in plan)

    def test_plan_covers_every_instruction(self, module):
        program = TRR_PATTERNS["comra"](module)
        plan = build_plan(program, module)
        covered = 0
        for step in plan:
            if isinstance(step, RunStep):
                covered += len(step.instructions)
            else:  # one Loop each
                covered += 1
        assert covered == len(program.instructions)
