"""Shared fixtures.

Module-scoped fixtures cache expensive simulated chips; tests that mutate
chip state build their own modules instead.
"""

import os

import pytest
from hypothesis import settings

from repro import ExperimentScale, make_module
from repro.core.session import CharacterizationSession

#: ``HYPOTHESIS_PROFILE=ci`` selects a deeper soak for tests that take their
#: example budget from the loaded profile (e.g. the memsys differential test)
settings.register_profile("ci", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Point the campaign artifact store away from the user's real cache.

    Tests still exercise real store reads/writes; they just never touch
    (or get polluted by) ``~/.cache/repro``.
    """
    import os

    cache_dir = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield cache_dir
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def small_scale():
    return ExperimentScale.small()


@pytest.fixture()
def hynix_module():
    """A fresh SK Hynix 8Gb A-die module (SiMRA-capable, TRR-calibrated)."""
    return make_module("hynix-a-8gb")


@pytest.fixture()
def samsung_module():
    """A fresh Samsung module (no SiMRA)."""
    return make_module("samsung-b-16gb")


@pytest.fixture()
def hynix_session(hynix_module, small_scale):
    return CharacterizationSession(hynix_module, small_scale)
