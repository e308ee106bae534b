"""Build and cache the package's C kernels: one compiler lookup, one cache.

Each kernel is compiled on first use, never at import, with the C
compiler found on ``PATH``.  The build is cached in this package's
``__pycache__`` under a name keyed by the source's hash, the compiler
flags (an extension module's include the Python headers) and the
platform tag, and ending in the kernel's file suffix (an extension
module's carries the interpreter's ``EXT_SUFFIX``), so a checkout
compiles once and every later process (campaign workers included) loads
the cached build.  The build is written to a temporary file and moved
into place with ``os.replace``, so concurrent first runs cannot read a
half-written library.  Without a cached build, and without a C compiler
or a writable cache directory, a build raises :class:`KernelBuildError`;
no kernel has a Python fallback.

Every kernel keeps Python's floating-point results: it builds with
:data:`CFLAGS`, which carry ``-ffp-contract=off`` (no fused
multiply-adds), and ``-ffast-math`` is never passed.

Two kernels use it: the memory-system event loop
(:mod:`repro.memsys.kernel`, loaded through :mod:`ctypes`) and the
trace-replay extension module (``dram/replay.c``, :func:`replay_kernel`).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from functools import lru_cache
from importlib.machinery import ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path
from typing import Callable, Optional, Sequence

#: where builds are cached
CACHE_DIR = Path(__file__).with_name("__pycache__")

#: every kernel's flags; the extension adds the Python include directory
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

REPLAY_SOURCE = Path(__file__).parent / "dram" / "replay.c"


class KernelBuildError(RuntimeError):
    """A C kernel could not be compiled."""


def find_compiler() -> Optional[str]:
    """Path of the first C compiler on ``PATH``, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def compile_source(
    compiler: str, flags: Sequence[str], source: Path, output: Path
) -> None:
    """Compile ``source`` to ``output``; raises :class:`KernelBuildError`."""
    proc = subprocess.run(
        [compiler, *flags, "-o", str(output), str(source)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise KernelBuildError(
            f"compiling {source.name} failed:\n{proc.stderr[-3000:]}"
        )


def cached_build(
    source: Path,
    flags: Sequence[str],
    suffix: str,
    cache_dir: Path,
    find: Callable[[], Optional[str]],
    build: Callable[[str, Path], None],
) -> Path:
    """The compiled ``source``, built into ``cache_dir`` on a cache miss.

    ``find`` names the compiler and ``build(compiler, output)`` runs it,
    so a kernel module can route both through names its tests replace.
    """
    digest = hashlib.sha256(source.read_bytes())
    digest.update("\0".join((*flags, sysconfig.get_platform())).encode())
    path = cache_dir / f"{source.stem}-{digest.hexdigest()[:16]}{suffix}"
    if path.exists():
        return path
    compiler = find()
    if compiler is None:
        raise KernelBuildError(
            "the simulator needs a C compiler (cc, gcc or clang on PATH) "
            f"to build {source.name}, and none was found"
        )
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(suffix=suffix, dir=cache_dir)
    except OSError as exc:
        raise KernelBuildError(
            f"cannot write the {source.name} build to {cache_dir}: {exc}"
        ) from exc
    os.close(fd)
    try:
        build(compiler, Path(tmp_name))
        os.replace(tmp_name, path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return path


def replay_flags() -> tuple[str, ...]:
    """:data:`CFLAGS` plus this interpreter's include directory."""
    return CFLAGS + ("-I" + sysconfig.get_paths()["include"],)


@lru_cache(maxsize=None)
def replay_kernel():
    """The trace-replay extension module, built on the first call of the
    process and initialized with the constants it shares with Python."""
    flags = replay_flags()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    path = cached_build(
        REPLAY_SOURCE, flags, suffix, CACHE_DIR, find_compiler,
        lambda compiler, output: compile_source(
            compiler, flags, REPLAY_SOURCE, output
        ),
    )
    name = "repro.dram._replay"
    spec = spec_from_loader(name, ExtensionFileLoader(name, str(path)))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)

    from .disturbance.ledger import DIRECTIONS, MECHANISMS, N_POOLS
    from .disturbance.model import SYNERGY_HIT_WINDOW
    from .dram.replay import apply_event

    module.init(
        SYNERGY_HIT_WINDOW, N_POOLS, apply_event, MECHANISMS, DIRECTIONS
    )
    return module
