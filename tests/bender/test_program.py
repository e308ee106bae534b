"""Test-program DSL: builder, durations, loop structure."""

import pytest

from repro import make_module
from repro.bender.compiler import build_plan
from repro.bender.host import DramBenderHost
from repro.core import patterns
from repro.bender.program import (
    COUNT,
    Act,
    Loop,
    Nop,
    Pre,
    ProgramBuilder,
    Rd,
    Wr,
)


class TestBuilder:
    def test_slacks_quantized(self):
        program = ProgramBuilder().act(0, 1, slack_ns=7.4).build()
        assert program.instructions[0].slack_ns == 7.5

    def test_duration_counts_loops(self):
        body = ProgramBuilder().act(0, 1, 13.5).pre(0, 36.0)
        program = ProgramBuilder().loop(100, body).build()
        assert program.duration_ns == pytest.approx(100 * 49.5)

    def test_command_count_excludes_nops(self):
        body = ProgramBuilder().act(0, 1, 13.5).nop(10.5).pre(0, 36.0)
        program = ProgramBuilder().loop(10, body).build()
        assert program.command_count == 20

    def test_nested_loops(self):
        inner = ProgramBuilder().act(0, 1, 1.5).pre(0, 1.5)
        outer = ProgramBuilder().loop(5, inner)
        program = ProgramBuilder().loop(3, outer).build()
        assert program.command_count == 30
        assert program.duration_ns == pytest.approx(45.0)

    def test_flattened_unrolls(self):
        body = ProgramBuilder().act(0, 1, 1.5)
        program = ProgramBuilder().loop(4, body).build()
        flat = list(program.flattened())
        assert len(flat) == 4
        assert all(isinstance(i, Act) for i in flat)

    def test_wr_payload_bytes(self):
        import numpy as np
        program = ProgramBuilder().wr(0, 3, np.array([1, 2, 3], np.uint8)).build()
        assert isinstance(program.instructions[0], Wr)
        assert program.instructions[0].data == bytes([1, 2, 3])

    def test_negative_loop_count_rejected(self):
        with pytest.raises(ValueError):
            Loop(-1, ())


class TestBind:
    def test_binds_every_count_loop(self):
        body = ProgramBuilder().act(0, 1, 13.5).pre(0, 36.0)
        template = ProgramBuilder("t").loop(COUNT, body).build()
        program = template.bind(7)
        assert program.instructions == [Loop(7, tuple(body._instructions))]
        assert program.name == "t"
        # the template itself stays unbound
        assert template.instructions[0].count is COUNT

    def test_nested_and_fixed_loops_left_alone(self):
        inner = ProgramBuilder().act(0, 1, 1.5).pre(0, 1.5)
        outer = ProgramBuilder().nop(3.0).loop(5, inner)
        template = (
            ProgramBuilder()
            .loop(2, inner)
            .loop(COUNT, outer)
            .loop(COUNT, ProgramBuilder().loop(COUNT, inner))
            .build()
        )
        fixed, varying, nested = template.bind(4).instructions
        assert fixed == template.instructions[0]
        assert varying == Loop(4, tuple(outer._instructions))
        assert nested == Loop(4, (Loop(4, tuple(inner._instructions)),))

    def test_build_plan_refuses_an_unbound_program(self):
        module = make_module("hynix-a-8gb")
        body = ProgramBuilder().act(0, 1, 13.5).pre(0, 36.0)
        template = ProgramBuilder().loop(2, body).loop(COUNT, body).build()
        with pytest.raises(ValueError, match="'count' is unbound"):
            build_plan(template, module)
        assert build_plan(template.bind(3), module)

    def test_unbound_template_properties_name_the_parameter(self):
        template = patterns.double_sided_rowhammer(
            make_module("hynix-a-8gb"), 200, COUNT
        )
        for read in (
            lambda: template.duration_ns,
            lambda: template.command_count,
            lambda: list(template.flattened()),
        ):
            with pytest.raises(ValueError, match="'count' is unbound"):
                read()

    @pytest.mark.parametrize("compile_streams", [True, False])
    def test_both_host_paths_refuse_an_unbound_template(self, compile_streams):
        module = make_module("hynix-a-8gb")
        host = DramBenderHost(module, compile_streams=compile_streams)
        template = patterns.double_sided_rowhammer(module, 200, COUNT)
        with pytest.raises(ValueError, match="'count' is unbound"):
            host.run(template)
        assert host.run(template.bind(3)).end_ns > 0
