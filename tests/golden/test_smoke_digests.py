"""Every experiment's smoke-scale result, pinned bit for bit.

``smoke_digests.json`` holds the sha256 of each experiment's canonical
``to_dict()`` JSON at ``ExperimentScale.smoke()``; regenerate it with
``record_smoke_digests.py`` only for an intended result change.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import EXPERIMENTS

from .record_smoke_digests import PATH, smoke_digest

GOLDEN = json.loads(PATH.read_text())


def test_every_experiment_is_pinned():
    assert sorted(GOLDEN) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_smoke_digest(experiment_id):
    assert smoke_digest(experiment_id) == GOLDEN[experiment_id]
