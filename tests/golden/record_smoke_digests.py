"""Record the smoke-scale result digest of every registered experiment.

Run from the repo root to (re)generate ``smoke_digests.json``::

    PYTHONPATH=src python tests/golden/record_smoke_digests.py

Each entry is the sha256 of the experiment's ``ExperimentResult.to_dict()``
in canonical JSON (sorted keys), the same digest the campaign benchmark
compares between runs.  ``test_smoke_digests.py`` re-runs every
experiment at ``ExperimentScale.smoke()`` and asserts the digests match,
so any change to an experiment's result shows up as a diff of the
committed file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.scale import ExperimentScale
from repro.experiments import EXPERIMENTS, run_experiment

PATH = Path(__file__).parent / "smoke_digests.json"


def result_digest(result_dict: dict) -> str:
    """sha256 of an ``ExperimentResult.to_dict()`` in canonical JSON."""
    blob = json.dumps(result_dict, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def smoke_digest(experiment_id: str) -> str:
    result = run_experiment(experiment_id, scale=ExperimentScale.smoke())
    return result_digest(result.to_dict())


def record() -> dict:
    return {experiment_id: smoke_digest(experiment_id) for experiment_id in EXPERIMENTS}


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {PATH}")
