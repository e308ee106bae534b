"""Build, cache and load the package's C kernels: one path for both.

Each kernel is a CPython extension module -- the trace-replay kernel
(``dram/replay.c``, :func:`replay_kernel`) and the memory-system event
loop (``memsys/eventloop.c``, :func:`eventloop_kernel`) -- and
:func:`extension` builds and loads either.  A kernel is compiled on first
use, never at import, with the C compiler found on ``PATH`` and
:data:`FLAGS`.  The build is cached in this package's ``__pycache__``
under a name keyed by the source's hash, the flags and the platform tag,
and ending in the interpreter's ``EXT_SUFFIX``, so a checkout compiles
once and every later process (campaign workers included) loads the
cached build.  The build is written to a temporary file and moved into
place with ``os.replace``, so concurrent first runs cannot read a
half-written library.  Without a cached build, and without a C compiler
or a writable cache directory, a build raises :class:`KernelBuildError`;
no kernel has a Python fallback.

Every kernel keeps Python's floating-point results: :data:`FLAGS` carry
``-ffp-contract=off`` (no fused multiply-adds), and ``-ffast-math`` is
never passed.
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
from typing import Optional

#: where builds are cached
CACHE_DIR = Path(__file__).with_name("__pycache__")

#: every kernel's flags, the Python include directory included
FLAGS = (
    "-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared",
    "-I" + sysconfig.get_paths()["include"],
)

REPLAY_SOURCE = Path(__file__).parent / "dram" / "replay.c"
EVENTLOOP_SOURCE = Path(__file__).parent / "memsys" / "eventloop.c"


class KernelBuildError(RuntimeError):
    """A C kernel could not be compiled."""


def find_compiler() -> Optional[str]:
    """Path of the first C compiler on ``PATH``, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def compile_source(compiler: str, source: Path, output: Path) -> None:
    """Compile ``source`` to ``output``; raises :class:`KernelBuildError`."""
    proc = subprocess.run(
        [compiler, *FLAGS, "-o", str(output), str(source)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise KernelBuildError(
            f"compiling {source.name} failed:\n{proc.stderr[-3000:]}"
        )


def extension(source: Path):
    """The extension module ``repro.<package>._<stem>`` compiled from
    ``source``, built into :data:`CACHE_DIR` on a cache miss."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256(source.read_bytes())
    digest.update("\0".join((*FLAGS, sysconfig.get_platform())).encode())
    path = CACHE_DIR / f"{source.stem}-{digest.hexdigest()[:16]}{suffix}"
    if not path.exists():
        compiler = find_compiler()
        if compiler is None:
            raise KernelBuildError(
                "the simulator needs a C compiler (cc, gcc or clang on "
                f"PATH) to build {source.name}, and none was found"
            )
        try:
            CACHE_DIR.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(suffix=suffix, dir=CACHE_DIR)
        except OSError as exc:
            raise KernelBuildError(
                f"cannot write the {source.name} build to {CACHE_DIR}: {exc}"
            ) from exc
        os.close(fd)
        try:
            compile_source(compiler, source, Path(tmp_name))
            os.replace(tmp_name, path)
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
    name = f"{__package__}.{source.parent.name}._{source.stem}"
    spec = spec_from_loader(name, ExtensionFileLoader(name, str(path)))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def replay_kernel():
    """The trace-replay extension module, built on the first call of the
    process and initialized with the constants it shares with Python."""
    module = extension(REPLAY_SOURCE)

    from .disturbance.ledger import DIRECTIONS, MECHANISMS, N_POOLS
    from .disturbance.model import SYNERGY_HIT_WINDOW
    from .dram.replay import apply_event

    module.init(
        SYNERGY_HIT_WINDOW, N_POOLS, apply_event, MECHANISMS, DIRECTIONS
    )
    return module


@lru_cache(maxsize=None)
def eventloop_kernel():
    """The memory-system event-loop extension module, built on the first
    call of the process."""
    return extension(EVENTLOOP_SOURCE)
