"""Build, cache and call the memory-system event loop (``eventloop.c``).

The kernel is compiled on the first :func:`simulate` call, never at
import, through :mod:`repro.native` (one compiler lookup, one build
cache, one publish step for every kernel), and loaded through
:mod:`ctypes`.  Without a cached build, and without a C compiler or a
writable cache directory, :func:`simulate` raises
:class:`KernelBuildError`; there is no Python fallback.
"""

from __future__ import annotations

import ctypes
import sysconfig
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .. import native

#: the shared build's names, looked up here at call time (tests replace
#: ``find_compiler``, ``_compile`` and ``CACHE_DIR`` on this module)
KernelBuildError = native.KernelBuildError
find_compiler = native.find_compiler

SOURCE = Path(__file__).with_name("eventloop.c")
CFLAGS = native.CFLAGS
#: where builds are cached
CACHE_DIR = native.CACHE_DIR
#: cores and banks per system: the kernel's visit sets are 64-bit masks
MAX_UNITS = 64

_ROW_RANGE = -2
_NO_MEMORY = -3


class Sim(ctypes.Structure):
    """``struct sim`` in ``eventloop.c``; keep the two in step."""

    _fields_ = [
        ("horizon_ns", ctypes.c_double),
        ("peak_ipc", ctypes.c_double),
        ("t_hit_ns", ctypes.c_double),
        ("t_miss_ns", ctypes.c_double),
        ("t_conflict_ns", ctypes.c_double),
        ("t_backoff_ns", ctypes.c_double),
        ("t_pud_ns", ctypes.c_double),
        ("pud_period_ns", ctypes.c_double),
        ("simra_latency_ns", ctypes.c_double),
        ("comra_latency_ns", ctypes.c_double),
        ("mlp", ctypes.c_int64),
        ("frfcfs_cap", ctypes.c_int64),
        ("rdt", ctypes.c_int64),
        ("act_weight", ctypes.c_int64),
        ("simra_weight", ctypes.c_int64),
        ("comra_weight", ctypes.c_int64),
        ("n_banks", ctypes.c_int32),
        ("n_cores", ctypes.c_int32),
        ("counter_rows", ctypes.c_int32),
        ("has_pud", ctypes.c_int32),
        ("pud_bank", ctypes.c_int32),
        ("pud_rows", ctypes.c_int32),
        ("has_prac", ctypes.c_int32),
        ("_pad", ctypes.c_int32),
        ("tape", ctypes.c_void_p * MAX_UNITS),
        ("tape_len", ctypes.c_int64 * MAX_UNITS),
        ("retired", ctypes.c_double * MAX_UNITS),
        ("requests", ctypes.c_int64),
        ("served", ctypes.c_int64),
        ("pud_ops", ctypes.c_int64),
        ("backoffs", ctypes.c_int64),
        ("bad_row", ctypes.c_int64),
        ("state", ctypes.c_void_p),
    ]


def _compile(compiler: str, output: Path) -> None:
    native.compile_source(compiler, CFLAGS, SOURCE, output)


def library_path() -> Path:
    """The compiled kernel, built into :data:`CACHE_DIR` on a cache miss."""
    return native.cached_build(
        SOURCE, CFLAGS, sysconfig.get_config_var("SHLIB_SUFFIX") or ".so",
        CACHE_DIR, find_compiler, _compile,
    )


@lru_cache(maxsize=None)
def load() -> ctypes.PyDLL:
    """The kernel library, built on the first call of the process.

    Loaded as a ``PyDLL``, so calls keep the GIL: the kernel reads tape
    buffers that another thread's ``TraceTape.grow`` could move.
    """
    lib = ctypes.PyDLL(str(library_path()))
    for name in ("memsys_init", "memsys_run"):
        getattr(lib, name).argtypes = [ctypes.POINTER(Sim)]
        getattr(lib, name).restype = ctypes.c_int
    lib.memsys_free.argtypes = [ctypes.POINTER(Sim)]
    lib.memsys_free.restype = None
    return lib


def simulate(sim: Sim, tapes: Sequence) -> None:
    """Run the kernel on ``sim`` (inputs filled in) until the horizon,
    growing ``tapes`` as their cores reach the end."""
    lib = load()
    for index, tape in enumerate(tapes):
        sim.tape[index], sim.tape_len[index] = tape.entries.buffer_info()
    ref = ctypes.byref(sim)
    try:
        status = lib.memsys_init(ref)
        if status == 0:
            status = lib.memsys_run(ref)
        while status >= 0:
            tape = tapes[status]
            tape.grow()
            address, length = tape.entries.buffer_info()
            if length <= sim.tape_len[status]:
                raise RuntimeError(f"trace tape {status} did not grow")
            sim.tape[status], sim.tape_len[status] = address, length
            status = lib.memsys_run(ref)
    finally:
        lib.memsys_free(ref)
    if status == _ROW_RANGE:
        raise ValueError(
            f"row {sim.bad_row} is outside the PRAC counter table "
            f"({sim.counter_rows} rows per bank)"
        )
    if status == _NO_MEMORY:
        raise MemoryError("the memory-system kernel ran out of memory")
