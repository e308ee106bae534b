"""DRAM Bender-style testing infrastructure (host + program DSL + thermals)."""

from .compiler import (
    CompiledStream,
    LoopStep,
    RunStep,
    StreamStep,
    build_plan,
    compile_stream,
)
from .environment import TemperatureController, Thermocouple
from .host import DramBenderHost, ProgramResult, ReadRecord
from .program import (
    Act,
    Instruction,
    Loop,
    Nop,
    Pre,
    ProgramBuilder,
    Rd,
    Ref,
    TestProgram,
    Wr,
)

__all__ = [
    "Act",
    "CompiledStream",
    "DramBenderHost",
    "LoopStep",
    "RunStep",
    "StreamStep",
    "build_plan",
    "compile_stream",
    "Instruction",
    "Loop",
    "Nop",
    "Pre",
    "ProgramBuilder",
    "ProgramResult",
    "Rd",
    "ReadRecord",
    "Ref",
    "TemperatureController",
    "TestProgram",
    "Thermocouple",
    "Wr",
]
