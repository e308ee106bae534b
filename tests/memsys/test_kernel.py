"""The C event-loop kernel: its limits and its tape growth.

Its build cache is tested with the replay kernel's in ``tests/test_native.py``.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.memsys import MemSysConfig, MemorySystem
from repro.memsys.system import mix_tapes
from repro.mitigations import PracConfig
from repro.workloads import PudWorkloadConfig, WorkloadMix, build_mixes
from repro.workloads.fast_traces import TraceTape

from .oracles import EventLoopMemorySystem

MIX = build_mixes(1)[0]
SHORT = MemSysConfig(horizon_ns=5_000.0)


def test_more_than_64_banks_refused() -> None:
    with pytest.raises(ValueError, match="banks"):
        MemorySystem(MIX, None, None, MemSysConfig(banks=65))
    with pytest.raises(ValueError, match="banks"):
        MemorySystem(MIX, None, None, MemSysConfig(banks=0))


def test_more_than_64_cores_refused() -> None:
    mix = WorkloadMix(mix_id=0, profiles=MIX.profiles[:1] * 65)
    with pytest.raises(ValueError, match="cores"):
        MemorySystem(mix, None, None, SHORT)


@pytest.mark.parametrize("pud", [
    PudWorkloadConfig(period_ns=500.0, target_bank=8),
    PudWorkloadConfig(period_ns=0.0),
    PudWorkloadConfig(period_ns=500.0, simra_rows=-1),
    PudWorkloadConfig(period_ns=500.0, simra_rows=4097),
])
def test_pud_ops_the_kernel_cannot_run_refused(pud) -> None:
    with pytest.raises(ValueError, match="PuD"):
        MemorySystem(MIX, pud, None, SHORT)


def test_row_outside_the_counter_table_raises() -> None:
    tapes = mix_tapes(MIX)
    # a hand-packed first entry: gap 1, bank 0, a row past the table, read
    tapes[0].extend([(1, 0, 5_000, False)])
    with pytest.raises(ValueError, match="row 5000"):
        MemorySystem(MIX, None, PracConfig.po_weighted(), SHORT,
                     tapes=tapes).run()
    # without PRAC no counter is touched, so the row is fine
    MemorySystem(MIX, None, None, SHORT, tapes=tapes).run()


def test_tape_end_mid_visit_resumes_the_visit() -> None:
    """Zero-gap writes make one core read many entries in one visit; the
    hand-packed prefix ends mid-visit, so the kernel grows the tape in the
    middle of phase 1 and must go on exactly there."""
    def prefixed():
        tapes = mix_tapes(MIX)
        for core, tape in enumerate(tapes):
            tape.extend([(0, core + i, 7 * i, True) for i in range(5 + core)])
        return tapes

    pud = PudWorkloadConfig(period_ns=500.0)
    prac = PracConfig.po_naive()
    ours = MemorySystem(MIX, pud, prac, SHORT, tapes=prefixed()).run()
    ref = EventLoopMemorySystem(MIX, pud, prac, SHORT, tapes=prefixed()).run()
    assert asdict(ours) == asdict(ref)


def test_grow_exception_propagates(monkeypatch) -> None:
    tapes = mix_tapes(MIX)

    def failing(tape):
        raise ZeroDivisionError("no more trace")

    monkeypatch.setattr(TraceTape, "grow", failing)
    with pytest.raises(ZeroDivisionError, match="no more trace"):
        MemorySystem(MIX, None, None, SHORT, tapes=tapes).run()
    # every tape buffer was released: the arrays can resize again
    for tape in tapes:
        tape.entries.append(0)


def test_tape_that_did_not_grow_raises(monkeypatch) -> None:
    tapes = mix_tapes(MIX)
    # cores 0 and 1 read one entry each; core 2's empty tape is the first
    # to need growth
    for tape in tapes[:2] + tapes[3:]:
        tape.extend([(1, 0, 3, False)])
    monkeypatch.setattr(TraceTape, "grow", lambda tape: None)
    with pytest.raises(RuntimeError, match="trace tape 2 did not grow"):
        MemorySystem(MIX, None, None, SHORT, tapes=tapes).run()
    for tape in tapes:
        tape.entries.append(0)
