"""Ablation benches for DESIGN.md's load-bearing design choices.

These are not paper figures; they quantify the simulator decisions that
make the reproduction tractable and demonstrate they do not change the
science:

* loop scaling -- the host's compiled stream path (``compile_streams=True``:
  one warm-up period plus one period whose damage is scaled by the
  remaining repetitions) must agree with unrolled execution
  (``compile_streams=False``) at orders-of-magnitude lower cost;
* synergy window -- double-sided detection must classify the paper's
  canonical patterns correctly;
* sentinel rows -- population minima must be pinned without disturbing the
  rest of the distribution.
"""

import time

import numpy as np
import pytest

from repro import ExperimentScale, Mechanism, make_module
from repro.bender.host import DramBenderHost
from repro.core import CharacterizationSession, patterns


def _damage_after(fast: bool, count: int) -> tuple[float, float]:
    module = make_module("hynix-a-8gb")
    victim = 2 * 96 + 40
    host = DramBenderHost(module, compile_streams=fast)
    program = patterns.double_sided_rowhammer(module, victim, count)
    start = time.perf_counter()
    host.run(program)
    elapsed = time.perf_counter() - start
    return (
        sum(module.model.damage_fraction(0, victim).values()),
        elapsed,
    )


def test_loop_scaling_exactness_and_speedup(benchmark):
    exact, exact_time = _damage_after(fast=False, count=3000)
    scaled, scaled_time = benchmark.pedantic(
        _damage_after, args=(True, 3000), rounds=1, iterations=1
    )
    print(f"\nexact {exact_time*1e3:.1f} ms vs scaled {scaled_time*1e3:.2f} ms "
          f"({exact_time / max(scaled_time, 1e-9):.0f}x)")
    assert scaled == pytest.approx(exact, rel=1e-9)
    assert scaled_time < exact_time


def test_sentinels_pin_minima_without_shifting_average(benchmark):
    def measure():
        module = make_module("hynix-a-8gb")
        session = CharacterizationSession(module, ExperimentScale.small())
        values = [
            m.hc_first
            for m in session.measure_rowhammer_ds(session.candidate_victims())
            if m.found
        ]
        return values

    values = benchmark.pedantic(measure, rounds=1, iterations=1)
    calibration = make_module("hynix-a-8gb").calibration
    assert min(values) == pytest.approx(calibration.rh_min, rel=0.05)
    # sentinels are 2 of ~25 rows: the average stays in the population band
    assert np.mean(values) == pytest.approx(calibration.rh_avg, rel=0.6)


def test_synergy_classifies_canonical_patterns(benchmark):
    def run():
        module = make_module("hynix-a-8gb")
        victim = 2 * 96 + 40
        host = DramBenderHost(module)
        # double-sided: alternating neighbors -> full weight
        host.run(patterns.double_sided_rowhammer(module, victim, 500))
        ds = sum(module.model.damage_fraction(0, victim).values())
        module2 = make_module("hynix-a-8gb")
        host2 = DramBenderHost(module2)
        # single-sided at same per-victim act count -> penalized
        host2.run(patterns.single_sided_rowhammer(module2, victim - 1, 1000))
        ss = sum(module2.model.damage_fraction(0, victim).values())
        return ds, ss

    ds, ss = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nDS damage {ds:.4f} vs SS damage {ss:.4f}")
    assert ds > ss * 1.2
