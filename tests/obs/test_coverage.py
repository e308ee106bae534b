"""Trace-replay probe coverage at default scale, as a pinned number.

The batched engine's value proposition is that almost every probe
re-applies a captured trace instead of running the command pipeline;
before obs existed that coverage was a code-reading exercise.  Now it is
a counter, so CI pins it: every probe is either a capture or a trace
replay (``interp``), and a translation or trace-shape regression that
makes units capture more often moves these numbers and fails here
instead of shipping as an invisible slowdown.
"""

import pytest

from repro import ExperimentScale, make_module
from repro.core import CharacterizationSession
from repro.obs import Obs

#: measured on the default-scale hynix-a-8gb rowhammer sweep; update
#: deliberately (with a note in DESIGN.md §13) when the engine changes
EXPECTED_TOTAL = 346
EXPECTED_PATHS = {
    "interp": 345,
    "capture": 1,
}

#: measured on a default-scale hynix-a-8gb double-sided SiMRA sweep (the
#: session's sampled 2/4/8/16-row groups): group sensing replays from
#: captured traces too
EXPECTED_SIMRA_TOTAL = 547
EXPECTED_SIMRA_PATHS = {
    "interp": 535,
    "capture": 12,
}


@pytest.fixture(scope="module")
def sweep_obs():
    obs = Obs()
    session = CharacterizationSession(
        make_module("hynix-a-8gb"), ExperimentScale.default(), obs=obs
    )
    session.measure_rowhammer_ds(session.candidate_victims())
    return obs


@pytest.fixture(scope="module")
def simra_obs():
    obs = Obs()
    session = CharacterizationSession(
        make_module("hynix-a-8gb"), ExperimentScale.default(), obs=obs
    )
    session.measure_simra_ds([
        pair for count in (2, 4, 8, 16)
        for pair in session.sample_simra_pairs(count)
    ])
    return obs


class TestProbePathCoverage:
    def test_every_probe_is_accounted_for(self, sweep_obs):
        """sum(each path) == total probes."""
        by_path = sweep_obs.by_label("probe.probes", "path")
        assert sum(by_path.values()) == sweep_obs.total("probe.probes")

    def test_trace_replay_coverage_is_pinned(self, sweep_obs):
        by_path = sweep_obs.by_label("probe.probes", "path")
        assert by_path == EXPECTED_PATHS
        assert sweep_obs.total("probe.probes") == EXPECTED_TOTAL

    def test_probes_carry_no_reason_labels(self, sweep_obs):
        assert sweep_obs.by_label("probe.probes", "reason") == {}

    def test_simra_replay_coverage_is_pinned(self, simra_obs):
        by_path = simra_obs.by_label("probe.probes", "path")
        assert by_path == EXPECTED_SIMRA_PATHS
        assert simra_obs.total("probe.probes") == EXPECTED_SIMRA_TOTAL
