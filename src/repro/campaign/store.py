"""Content-addressed artifact store for experiment results.

Every experiment in this repository is deterministic: all randomness flows
through :func:`repro.disturbance.distributions.stable_seed`, so a result is
fully determined by *what* ran (experiment id + shard), *how big* it ran
(:class:`ExperimentScale`), and *which code* ran it.  The store keys each
persisted :class:`ExperimentResult` on exactly that triple, which makes
re-runs, resumed campaigns and report generation cache hits instead of
hours of recomputation.

Layout under the store root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)::

    artifacts/<aa>/<digest>.json   -- one ExperimentResult + metadata
    runs/<run_id>/manifest.json    -- written by the campaign runner
    runs/<run_id>/events.jsonl     -- written by the campaign runner
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

from ..core.scale import ExperimentScale
from ..experiments.base import ExperimentResult

#: bump to invalidate every artifact regardless of code fingerprint
STORE_FORMAT = 1


def scale_fingerprint(scale: ExperimentScale) -> str:
    """Stable hex digest of every knob on an :class:`ExperimentScale`."""
    payload = json.dumps(
        dataclasses.asdict(scale), sort_keys=True, default=list
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: subpackages every experiment's execution flows through; always part of a
#: scoped fingerprint
CORE_SUBSYSTEMS = (
    "bender",
    "campaign",
    "core",
    "disturbance",
    "dram",
    "experiments",
)

#: extra subpackages specific experiments execute: editing one of these
#: must invalidate the listed experiments' artifacts (and, thanks to the
#: scoping, *only* theirs).  fig24 builds its rounds from the attack
#: synthesis's ``AttackSpec`` and attaches ``repro.trr``; fig25 simulates
#: through ``repro.memsys`` (which pulls mitigations + workloads); the
#: attack gauntlet exercises synthesis, the mitigation hooks and the TRR.
EXPERIMENT_SUBSYSTEM_DEPS: dict[str, tuple[str, ...]] = {
    "fig24": ("attack", "trr"),
    "fig25": ("memsys", "mitigations", "workloads"),
    "attack_surface": ("attack", "mitigations", "trr"),
    "pud_reliability": ("memsys", "mitigations", "pud", "reliability",
                        "workloads"),
}


#: source files a fingerprint digests: the Python modules and the C
#: kernels they compile (``memsys/eventloop.c``, ``dram/replay.c``)
SOURCE_SUFFIXES = (".py", ".c")


def _source_digest(package_root: Path, paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in paths if p.suffix in SOURCE_SUFFIXES):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@lru_cache(maxsize=None)
def subsystem_fingerprint(name: str) -> str:
    """Digest of one ``repro`` subpackage's sources.

    ``name=""`` digests only the package's top-level modules (no
    subdirectories); any other name digests ``src/repro/<name>``
    recursively.
    """
    package_root = Path(__file__).resolve().parent.parent
    if name:
        paths = (package_root / name).rglob("*")
    else:
        paths = package_root.glob("*")
    return _source_digest(package_root, paths)


@lru_cache(maxsize=None)
def code_fingerprint(experiment_id: Optional[str] = None) -> str:
    """Hex digest over the sources the given experiment can execute.

    For a registered experiment the digest is scoped: top-level modules,
    the :data:`CORE_SUBSYSTEMS`, and the experiment's declared
    :data:`EXPERIMENT_SUBSYSTEM_DEPS`.  Editing an unrelated subsystem
    (say, ``repro.reveng``) then leaves the experiment's artifacts valid
    instead of invalidating the whole store.

    With no ``experiment_id`` -- or an id the registry does not know,
    where no dependency claim can be trusted -- the digest covers every
    source file (:data:`SOURCE_SUFFIXES`) under ``src/repro``, so stale
    artifacts from older code can never be served.
    """
    if experiment_id is not None:
        from ..experiments import EXPERIMENTS

        if experiment_id in EXPERIMENTS:
            subsystems = sorted(
                set(CORE_SUBSYSTEMS)
                | set(EXPERIMENT_SUBSYSTEM_DEPS.get(experiment_id, ()))
            )
            digest = hashlib.sha256()
            digest.update(subsystem_fingerprint("").encode())
            for name in subsystems:
                digest.update(name.encode())
                digest.update(b"\0")
                digest.update(subsystem_fingerprint(name).encode())
            return digest.hexdigest()[:16]
    package_root = Path(__file__).resolve().parent.parent
    return _source_digest(package_root, package_root.rglob("*"))


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one stored result: what ran, at which scale, which code."""

    experiment_id: str
    scale_fp: str
    code_fp: str
    #: shard label (e.g. a config id) when the artifact is one slice of an
    #: experiment run at session granularity; ``None`` for a whole result
    shard: Optional[str] = None

    @property
    def digest(self) -> str:
        parts = (
            f"format={STORE_FORMAT}",
            f"experiment={self.experiment_id}",
            f"shard={self.shard or ''}",
            f"scale={self.scale_fp}",
            f"code={self.code_fp}",
        )
        return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()

    @property
    def label(self) -> str:
        if self.shard:
            return f"{self.experiment_id}[{self.shard}]"
        return self.experiment_id


def default_root() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


class ArtifactStore:
    """Filesystem-backed, content-addressed store of experiment results.

    Writes are atomic (temp file + rename), so concurrent campaign workers
    and concurrent campaigns can share one store safely.
    """

    def __init__(self, root: Optional[Path | str] = None):
        self.root = Path(root) if root is not None else default_root()

    # -- keys ----------------------------------------------------------
    def key(
        self,
        experiment_id: str,
        scale: ExperimentScale,
        shard: Optional[str] = None,
    ) -> ArtifactKey:
        return ArtifactKey(
            experiment_id=experiment_id,
            scale_fp=scale_fingerprint(scale),
            code_fp=code_fingerprint(experiment_id),
            shard=shard,
        )

    # -- paths ---------------------------------------------------------
    @property
    def artifacts_dir(self) -> Path:
        return self.root / "artifacts"

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    def artifact_path(self, key: ArtifactKey) -> Path:
        digest = key.digest
        return self.artifacts_dir / digest[:2] / f"{digest}.json"

    # -- artifact IO ---------------------------------------------------
    def has(self, key: ArtifactKey) -> bool:
        return self.artifact_path(key).exists()

    def get(self, key: ArtifactKey) -> Optional[ExperimentResult]:
        """The stored result for ``key``, or ``None`` on a miss.

        A corrupt artifact (truncated write from a killed process on a
        filesystem without atomic rename) is treated as a miss.
        """
        payload = self.get_payload(key)
        if payload is None:
            return None
        return ExperimentResult.from_dict(payload["result"])

    def get_payload(self, key: ArtifactKey) -> Optional[dict]:
        path = self.artifact_path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("key", {}).get("digest") != key.digest:
            return None
        return payload

    def put(
        self,
        key: ArtifactKey,
        result: ExperimentResult,
        elapsed: float,
        worker: Optional[str] = None,
    ) -> Path:
        path = self.artifact_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": {
                "digest": key.digest,
                "experiment_id": key.experiment_id,
                "shard": key.shard,
                "scale_fp": key.scale_fp,
                "code_fp": key.code_fp,
                "format": STORE_FORMAT,
            },
            "created_at": time.time(),
            "elapsed": elapsed,
            "worker": worker,
            "result": result.to_dict(),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=1))
        tmp.replace(path)
        return path

    # -- maintenance ---------------------------------------------------
    def artifact_count(self) -> int:
        if not self.artifacts_dir.exists():
            return 0
        return sum(1 for _ in self.artifacts_dir.rglob("*.json"))

    def prune(self) -> int:
        """Delete artifacts not reachable from the current code fingerprint.

        Returns the number of files removed.  Useful after a code change
        has orphaned old artifacts.  Each artifact is checked against the
        fingerprint scoped to *its* experiment, matching what
        :meth:`key` would compute for it today.
        """
        removed = 0
        if not self.artifacts_dir.exists():
            return 0
        for path in self.artifacts_dir.rglob("*.json"):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                path.unlink(missing_ok=True)
                removed += 1
                continue
            key = payload.get("key", {})
            expected = code_fingerprint(key.get("experiment_id"))
            if key.get("code_fp") != expected:
                path.unlink(missing_ok=True)
                removed += 1
        return removed
