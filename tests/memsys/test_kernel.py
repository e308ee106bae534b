"""The C event-loop kernel: its limits, its build cache, mid-visit tape growth."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.memsys import MemSysConfig, MemorySystem, kernel
from repro.memsys.system import mix_tapes
from repro.mitigations import PracConfig
from repro.workloads import PudWorkloadConfig, WorkloadMix, build_mixes

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
    hand-packed prefix ends mid-visit, so the kernel hands the tape back
    to grow in the middle of phase 1 and must resume exactly there."""
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


def test_missing_compiler_raises(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(kernel, "find_compiler", lambda: None)
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    with pytest.raises(kernel.KernelBuildError, match="C compiler"):
        kernel.library_path()
    # and a run with nothing cached raises too, instead of falling back
    kernel.load.cache_clear()
    try:
        with pytest.raises(kernel.KernelBuildError, match="C compiler"):
            MemorySystem(MIX, None, None, SHORT).run()
    finally:
        kernel.load.cache_clear()


def test_unwritable_cache_dir_raises(monkeypatch, tmp_path) -> None:
    # a path below a regular file can never be created, whoever runs it
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(kernel, "CACHE_DIR", blocker / "cache")
    with pytest.raises(kernel.KernelBuildError, match="cannot write"):
        kernel.library_path()


def test_second_load_reuses_the_cached_build(monkeypatch, tmp_path) -> None:
    builds = []
    compile_ = kernel._compile

    def counting(compiler, output):
        builds.append(output)
        compile_(compiler, output)

    monkeypatch.setattr(kernel, "_compile", counting)
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    first = kernel.library_path()
    second = kernel.library_path()
    assert first == second and first.exists()
    assert len(builds) == 1
    # the temporary build file was moved into place, nothing left behind
    assert sorted(tmp_path.iterdir()) == [first]
