"""DRAM Bender-style test-program DSL.

The real DRAM Bender exposes an instruction memory the host fills with DDR4
commands, NOPs and loop constructs; the FPGA then replays them with cycle
accuracy.  This module mirrors that programming model: a
:class:`TestProgram` is a list of instructions, each carrying the slack (in
nanoseconds, quantized to the 1.5 ns command-bus granularity) since the
previous instruction.  ``Loop`` repeats a body a fixed number of times --
the construct the host's fast path exploits.  A count of :data:`COUNT`
makes the program a template that :meth:`TestProgram.bind` completes.

Addresses are *logical* (memory-controller visible), exactly what the real
infrastructure sends; the device's row decoder applies the vendor mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..dram.timing import quantize_to_bender_cycles


@dataclass(frozen=True)
class Act:
    """Activate ``row`` in ``bank`` after ``slack_ns``."""

    bank: int
    row: int
    slack_ns: float = 0.0


@dataclass(frozen=True)
class Pre:
    """Precharge ``bank`` after ``slack_ns``."""

    bank: int
    slack_ns: float = 0.0


@dataclass(frozen=True)
class Rd:
    """Read the open row; the host collects the returned bytes."""

    bank: int
    row: int
    slack_ns: float = 0.0


@dataclass(frozen=True)
class Wr:
    """Write ``data`` to the open row (broadcasts across an open SiMRA
    group, which is how prior work reverse engineers activated rows)."""

    bank: int
    row: int
    data: bytes
    slack_ns: float = 0.0


@dataclass(frozen=True)
class Ref:
    """Issue a refresh command after ``slack_ns``."""

    slack_ns: float = 0.0


@dataclass(frozen=True)
class Nop:
    """Pure delay of ``slack_ns``."""

    slack_ns: float = 0.0


@dataclass(frozen=True)
class Param:
    """A named loop count left open until :meth:`TestProgram.bind`."""

    name: str


#: The hammer count of an HC_first probe: a template's loops that repeat
#: once per hammer run ``COUNT`` times, and each probe binds it.
COUNT = Param("count")

Count = Union[int, Param]


@dataclass(frozen=True)
class Loop:
    """Repeat ``body`` ``count`` times (an ``int``, or :data:`COUNT`)."""

    count: Count
    body: tuple["Instruction", ...]

    def __post_init__(self) -> None:
        if isinstance(self.count, int) and self.count < 0:
            raise ValueError("loop count must be non-negative")

    @cached_property
    def body_duration_ns(self) -> float:
        """Semantic duration of one body iteration.

        Cached: the body tuple is frozen, and hosts ask for this on every
        execution of the loop.  (``cached_property`` writes the computed
        value straight into ``__dict__``, which frozen dataclasses permit.)
        """
        return _duration(self.body)

    @property
    def bound_count(self) -> int:
        """``count``; a :data:`COUNT` loop not yet bound by
        :meth:`TestProgram.bind` raises ValueError naming the parameter."""
        if isinstance(self.count, Param):
            raise ValueError(f"loop count {self.count.name!r} is unbound")
        return self.count


Instruction = Union[Act, Pre, Rd, Wr, Ref, Nop, Loop]


def _bind(instructions: Sequence[Instruction], count: int) -> list[Instruction]:
    return [
        Loop(count if i.count is COUNT else i.count, tuple(_bind(i.body, count)))
        if isinstance(i, Loop) else i for i in instructions
    ]


def _iter_flat(instructions: Sequence[Instruction]):
    for instr in instructions:
        if isinstance(instr, Loop):
            for _ in range(instr.bound_count):
                yield from _iter_flat(instr.body)
        else:
            yield instr


def _duration(instructions: Sequence[Instruction]) -> float:
    total = 0.0
    for instr in instructions:
        if isinstance(instr, Loop):
            total += instr.bound_count * instr.body_duration_ns
        else:
            total += instr.slack_ns
    return total


def _count_commands(instructions: Sequence[Instruction]) -> int:
    total = 0
    for instr in instructions:
        if isinstance(instr, Loop):
            total += instr.bound_count * _count_commands(instr.body)
        elif not isinstance(instr, Nop):
            total += 1
    return total


@dataclass
class TestProgram:
    """A complete test program, ready for the host to execute."""

    instructions: list[Instruction] = field(default_factory=list)
    name: str = "unnamed"

    @property
    def duration_ns(self) -> float:
        """Semantic execution time of the full (unscaled) program."""
        return _duration(self.instructions)

    @property
    def command_count(self) -> int:
        """Number of DDR4 commands issued (NOPs excluded)."""
        return _count_commands(self.instructions)

    def bind(self, count: int) -> "TestProgram":
        """A copy with every :data:`COUNT` loop repeated ``count`` times."""
        return TestProgram(_bind(self.instructions, count), self.name)

    def flattened(self):
        """Iterate primitive instructions with loops unrolled (slow path)."""
        return _iter_flat(self.instructions)


class ProgramBuilder:
    """Fluent builder for test programs.

    Slack values are quantized to DRAM Bender's 1.5 ns command-bus cycles,
    as the FPGA would do.
    """

    def __init__(self, name: str = "unnamed") -> None:
        self._name = name
        self._instructions: list[Instruction] = []

    def act(self, bank: int, row: int, slack_ns: float = 0.0) -> "ProgramBuilder":
        self._instructions.append(Act(bank, row, quantize_to_bender_cycles(slack_ns)))
        return self

    def pre(self, bank: int, slack_ns: float = 0.0) -> "ProgramBuilder":
        self._instructions.append(Pre(bank, quantize_to_bender_cycles(slack_ns)))
        return self

    def rd(self, bank: int, row: int, slack_ns: float = 0.0) -> "ProgramBuilder":
        self._instructions.append(Rd(bank, row, quantize_to_bender_cycles(slack_ns)))
        return self

    def wr(
        self, bank: int, row: int, data: Union[bytes, np.ndarray], slack_ns: float = 0.0
    ) -> "ProgramBuilder":
        payload = bytes(np.asarray(data, dtype=np.uint8).tobytes())
        self._instructions.append(
            Wr(bank, row, payload, quantize_to_bender_cycles(slack_ns))
        )
        return self

    def ref(self, slack_ns: float = 0.0) -> "ProgramBuilder":
        self._instructions.append(Ref(quantize_to_bender_cycles(slack_ns)))
        return self

    def nop(self, slack_ns: float) -> "ProgramBuilder":
        self._instructions.append(Nop(quantize_to_bender_cycles(slack_ns)))
        return self

    def loop(self, count: Count, body_builder: "ProgramBuilder") -> "ProgramBuilder":
        self._instructions.append(Loop(count, tuple(body_builder._instructions)))
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "ProgramBuilder":
        self._instructions.extend(instructions)
        return self

    def build(self, name: Optional[str] = None) -> TestProgram:
        return TestProgram(list(self._instructions), name or self._name)
