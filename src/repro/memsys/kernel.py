"""Build, cache and call the memory-system event loop (``eventloop.c``).

The kernel is compiled on the first :func:`simulate` call, never at
import, and loaded through :mod:`ctypes`.  The shared library is cached
beside the source, in this package's ``__pycache__``, under a name keyed
by the source's hash, the compiler flags and the platform tag, so a
checkout compiles once and every later process (campaign workers
included) loads the cached build.  The build is written to a temporary
file and moved into place with ``os.replace``, so concurrent first runs
cannot read a half-written library.  Without a cached build, and without
a C compiler or a writable cache directory, :func:`simulate` raises
:class:`KernelBuildError`; there is no Python fallback.

The flags keep Python's floating-point results: ``-ffp-contract=off``
forbids fused multiply-adds, and ``-ffast-math`` is never passed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

SOURCE = Path(__file__).with_name("eventloop.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
#: where builds are cached
CACHE_DIR = Path(__file__).with_name("__pycache__")
#: cores and banks per system: the kernel's visit sets are 64-bit masks
MAX_UNITS = 64

_ROW_RANGE = -2
_NO_MEMORY = -3


class KernelBuildError(RuntimeError):
    """The event-loop kernel could not be compiled."""


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


def find_compiler() -> Optional[str]:
    """Path of the first C compiler on ``PATH``, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _compile(compiler: str, output: Path) -> None:
    proc = subprocess.run(
        [compiler, *CFLAGS, "-o", str(output), str(SOURCE)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise KernelBuildError(
            f"compiling {SOURCE.name} failed:\n{proc.stderr[-3000:]}"
        )


def library_path() -> Path:
    """The compiled kernel, built into :data:`CACHE_DIR` on a cache miss."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join(CFLAGS + (sysconfig.get_platform(),)).encode())
    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    path = CACHE_DIR / f"eventloop-{key.hexdigest()[:16]}{suffix}"
    if path.exists():
        return path
    compiler = find_compiler()
    if compiler is None:
        raise KernelBuildError(
            "the memory-system simulator needs a C compiler (cc, gcc or "
            f"clang on PATH) to build {SOURCE.name}, and none was found"
        )
    try:
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(suffix=suffix, dir=CACHE_DIR)
    except OSError as exc:
        raise KernelBuildError(
            f"cannot write the {SOURCE.name} build to {CACHE_DIR}: {exc}"
        ) from exc
    os.close(fd)
    try:
        _compile(compiler, Path(tmp_name))
        os.replace(tmp_name, path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return path


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
