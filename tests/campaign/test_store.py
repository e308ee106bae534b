"""Content-addressed artifact store."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import ExperimentScale
from repro.campaign import (
    EXPERIMENT_SUBSYSTEM_DEPS,
    ArtifactStore,
    code_fingerprint,
    scale_fingerprint,
    subsystem_fingerprint,
)
from repro.experiments.base import ExperimentResult


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _result():
    return ExperimentResult(
        "figXX",
        "synthetic",
        rows=[{"vendor": "SK Hynix", "min": 4.25, "count": 7, "na": None}],
        checks={"ratio": 1.5, "count": 2.0},
        notes=["a note"],
    )


def test_key_is_stable_and_content_addressed(store):
    small = ExperimentScale.small()
    key1 = store.key("fig04", small)
    key2 = store.key("fig04", small)
    assert key1 == key2 and key1.digest == key2.digest
    assert key1.digest != store.key("fig05", small).digest
    assert key1.digest != store.key("fig04", ExperimentScale.default()).digest
    assert key1.digest != store.key("fig04", small, shard="hynix-a-8gb").digest


def test_scale_fingerprint_tracks_every_knob():
    small = ExperimentScale.small()
    assert scale_fingerprint(small) == scale_fingerprint(ExperimentScale.small())
    assert scale_fingerprint(small) != scale_fingerprint(
        small.with_overrides(row_step=7)
    )
    assert scale_fingerprint(small) != scale_fingerprint(
        small.with_overrides(subarrays=(0,))
    )


def test_put_get_roundtrip(store):
    key = store.key("figXX", ExperimentScale.small())
    assert store.get(key) is None and not store.has(key)
    original = _result()
    path = store.put(key, original, elapsed=1.25, worker="w1")
    assert path.exists() and store.has(key)
    fetched = store.get(key)
    assert fetched.to_dict() == original.to_dict()
    payload = store.get_payload(key)
    assert payload["elapsed"] == 1.25
    assert payload["worker"] == "w1"
    assert payload["key"]["code_fp"] == code_fingerprint()


def test_corrupt_artifact_is_a_miss(store):
    key = store.key("figXX", ExperimentScale.small())
    store.put(key, _result(), elapsed=0.1)
    store.artifact_path(key).write_text("{truncated")
    assert store.get(key) is None


def test_prune_removes_stale_code_artifacts(store):
    key = store.key("figXX", ExperimentScale.small())
    store.put(key, _result(), elapsed=0.1)
    # forge an artifact written by "older code"
    stale_path = store.artifacts_dir / "zz" / "stale.json"
    stale_path.parent.mkdir(parents=True)
    payload = json.loads(store.artifact_path(key).read_text())
    payload["key"]["code_fp"] = "0" * 16
    stale_path.write_text(json.dumps(payload))
    assert store.artifact_count() == 2
    assert store.prune() == 1
    assert store.artifact_count() == 1
    assert store.get(key) is not None


def test_default_root_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert ArtifactStore().root == tmp_path / "custom"


class TestScopedFingerprints:
    """Satellite: code fingerprints are scoped per experiment's subsystems."""

    def test_unknown_experiment_falls_back_to_whole_package(self):
        assert code_fingerprint("figXX") == code_fingerprint()
        assert code_fingerprint(None) == code_fingerprint()

    def test_registered_experiments_get_scoped_fingerprints(self):
        # fig24 digests repro.trr, fig04 does not: different fingerprints
        assert code_fingerprint("fig24") != code_fingerprint("fig04")
        # attack_surface additionally digests attack + mitigations
        assert code_fingerprint("attack_surface") != code_fingerprint("fig24")
        # experiments with identical dependency sets share a fingerprint
        assert code_fingerprint("fig04") == code_fingerprint("fig05")

    def test_declared_deps_cover_the_mitigation_subsystems(self):
        # mitigations, trr and attack-synthesis sources must key the
        # artifacts of the experiments that execute them
        assert {"attack", "trr"} <= set(EXPERIMENT_SUBSYSTEM_DEPS["fig24"])
        assert "mitigations" in EXPERIMENT_SUBSYSTEM_DEPS["fig25"]
        assert {"attack", "mitigations", "trr"} <= set(
            EXPERIMENT_SUBSYSTEM_DEPS["attack_surface"]
        )

    def test_store_key_uses_scoped_fingerprint(self, store):
        small = ExperimentScale.small()
        assert store.key("fig24", small).code_fp == code_fingerprint("fig24")
        assert store.key("attack_surface", small).code_fp == code_fingerprint(
            "attack_surface"
        )

    def test_subsystem_fingerprints_are_distinct(self):
        names = ["", "trr", "mitigations", "attack", "dram"]
        digests = [subsystem_fingerprint(n) for n in names]
        assert len(set(digests)) == len(digests)

    def test_kernel_source_keys_the_memsys_experiments(self, tmp_path):
        # digest a copy of the package whose C kernel source was edited
        copy = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).parent, copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        source = copy / "memsys" / "eventloop.c"
        source.write_text(source.read_text() + "/* edited */\n")
        ids = ("fig25", "pud_reliability", "table1", None)
        edited = subprocess.run(
            [sys.executable, "-c",
             "from repro.campaign import code_fingerprint; "
             f"print(*(code_fingerprint(i) for i in {ids!r}))"],
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True, text=True, check=True,
        ).stdout.split()
        fig25, pud_reliability, table1, unscoped = edited
        assert fig25 != code_fingerprint("fig25")
        assert pud_reliability != code_fingerprint("pud_reliability")
        assert unscoped != code_fingerprint()
        assert table1 == code_fingerprint("table1")

    def test_prune_respects_scoped_keys(self, store):
        small = ExperimentScale.small()
        key = store.key("fig24", small)
        store.put(key, ExperimentResult("fig24", "t"), elapsed=0.1)
        assert store.prune() == 0  # scoped artifact is current, not stale
        assert store.get(key) is not None
