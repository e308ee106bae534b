"""HC_first bisection search."""

import pytest

from repro.bender.program import COUNT
from repro.core import patterns
from repro.core.hcfirst import (
    ProbeSetup,
    find_hc_first_repeated,
    hc_first_search,
    run_probe,
    standard_row_data,
)
from repro.disturbance import Mechanism


def make_setup(module, victim, pattern=None):
    pattern = pattern or module.model.worst_case_pattern(0, victim, Mechanism.ROWHAMMER)
    return ProbeSetup(
        module=module,
        program=patterns.double_sided_rowhammer(module, victim, COUNT),
        row_data=standard_row_data(module, [victim - 1, victim + 1], [victim], pattern),
        victims=[victim],
    )


class TestBisection:
    def test_converges_near_oracle(self, hynix_module):
        victim = 2 * 96 + 40
        setup = make_setup(hynix_module, victim)
        oracle = hynix_module.model.reference_hcfirst(0, victim, Mechanism.ROWHAMMER)
        result = find_hc_first_repeated(setup, repeats=1)
        assert result.found
        assert result.hc_first == pytest.approx(oracle, rel=0.02)

    def test_no_flip_below_cap_returns_none(self, hynix_module):
        victim = 2 * 96 + 40
        setup = make_setup(hynix_module, victim)
        result = find_hc_first_repeated(setup, repeats=1, max_hammers=100)
        assert not result.found
        assert result.hc_first is None

    def test_probe_counts_flips(self, hynix_module):
        victim = 2 * 96 + 40
        setup = make_setup(hynix_module, victim)
        oracle = hynix_module.model.reference_hcfirst(0, victim, Mechanism.ROWHAMMER)
        assert run_probe(setup, int(oracle * 1.1)).flips > 0
        assert run_probe(setup, int(oracle * 0.9)).flips == 0

    def test_zero_count_probe_is_clean(self, hynix_module):
        victim = 2 * 96 + 40
        setup = make_setup(hynix_module, victim)
        assert run_probe(setup, 0).flips == 0

    def test_repeats_agree_on_deterministic_chip(self, hynix_module):
        victim = 2 * 96 + 40
        setup = make_setup(hynix_module, victim)
        single = find_hc_first_repeated(setup, repeats=1)
        best = find_hc_first_repeated(setup, repeats=3)
        assert best.hc_first == single.hc_first


class TestProbeMemoization:
    def test_shared_cache_answers_second_search(self, hynix_module):
        victim = 2 * 96 + 40
        setup = make_setup(hynix_module, victim)
        single = find_hc_first_repeated(setup, repeats=1)
        search = hc_first_search(repeats=2)
        asked = []
        try:
            count = next(search)
            while True:
                asked.append(count)
                count = search.send(run_probe(setup, count))
        except StopIteration as stop:
            repeated = stop.value
        assert single.cache_hits == 0
        assert repeated.hc_first == single.hc_first
        # the second repeat is answered from the memo: only the first
        # repeat's probes ever reach the command path
        assert asked == [probe.count for probe in single.history]

    def test_repeats_do_not_rerun_probes(self, hynix_module, monkeypatch):
        from repro.core import hcfirst as hcfirst_module

        victim = 2 * 96 + 40
        setup = make_setup(hynix_module, victim)
        calls = []
        real_run_probe = hcfirst_module.run_probe

        def counting(setup_, count, host=None):
            calls.append(count)
            return real_run_probe(setup_, count, host)

        monkeypatch.setattr(hcfirst_module, "run_probe", counting)
        single = hcfirst_module.find_hc_first_repeated(setup, repeats=1)
        baseline = len(calls)
        calls.clear()
        repeated = hcfirst_module.find_hc_first_repeated(setup, repeats=5)
        assert repeated.hc_first == single.hc_first
        # five repeats cost no more command-path probes than one search
        assert len(calls) <= baseline

    def test_bracket_warm_start_converges_to_same_answer(self, hynix_module):
        victim = 2 * 96 + 40
        setup = make_setup(hynix_module, victim)
        cold = find_hc_first_repeated(setup, repeats=1)
        assert cold.found
        # warm-started repeats converge on the first repeat's answer, so
        # the best of five is the first repeat itself, history included
        warm = find_hc_first_repeated(setup, repeats=5)
        assert warm == cold
