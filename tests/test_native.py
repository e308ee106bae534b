"""Both C kernels build through ``repro.native``: its errors and its cache."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import native
from repro.memsys import MemSysConfig, MemorySystem, system
from repro.workloads import build_mixes


def _first_replay_use(monkeypatch) -> None:
    native.replay_kernel.__wrapped__()


def _first_memsys_run(monkeypatch) -> None:
    monkeypatch.setattr(
        system, "eventloop_kernel", native.eventloop_kernel.__wrapped__
    )
    MemorySystem(
        build_mixes(1)[0], None, None, MemSysConfig(horizon_ns=5_000.0)
    ).run()


#: each kernel's source and its first use in the program
FIRST_USE = {
    native.REPLAY_SOURCE: _first_replay_use,
    native.EVENTLOOP_SOURCE: _first_memsys_run,
}
SOURCES = pytest.mark.parametrize(
    "source", list(FIRST_USE), ids=lambda source: source.stem
)


@SOURCES
def test_missing_compiler_raises(monkeypatch, tmp_path, source):
    """No compiler and no cached build: the build raises, and so does the
    kernel's first use; there is no Python fallback."""
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    with pytest.raises(native.KernelBuildError, match="C compiler"):
        native.extension(source)
    with pytest.raises(native.KernelBuildError, match="C compiler"):
        FIRST_USE[source](monkeypatch)


@SOURCES
def test_unwritable_cache_dir_raises(monkeypatch, tmp_path, source):
    # a path below a regular file can never be created, whoever runs it
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(native, "CACHE_DIR", blocker / "cache")
    with pytest.raises(native.KernelBuildError, match="cannot write"):
        native.extension(source)


@SOURCES
def test_second_load_reuses_the_cached_build(
    monkeypatch, tmp_path, source
) -> None:
    builds = []
    compile_ = native.compile_source

    def counting(compiler, source, output):
        builds.append(output)
        compile_(compiler, source, output)

    monkeypatch.setattr(native, "compile_source", counting)
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    first = native.extension(source)
    second = native.extension(source)
    assert first.__file__ == second.__file__
    assert len(builds) == 1
    # the temporary build file was moved into place, nothing left behind
    assert sorted(tmp_path.iterdir()) == [Path(first.__file__)]
