"""Systems replaying one shared tape set match systems with private tapes.

The kernel hands a tape back to Python to grow whenever a core reaches
its end, then resumes the visit; a shared tape makes later runs start
with some of it recorded, so their grow-and-resume points fall elsewhere.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.memsys import MemSysConfig, MemorySystem
from repro.memsys.system import mix_tapes
from repro.mitigations import PracConfig
from repro.workloads import PudWorkloadConfig, build_mixes

MIXES = build_mixes(2)

#: {baseline, naive, wc} x two horizons, so a later run can read past the
#: point an earlier, shorter run grew the tapes to
RUNS = [
    (prac, horizon_ns)
    for prac in (None, PracConfig.po_naive(), PracConfig.po_weighted())
    for horizon_ns in (15_000.0, 45_000.0)
]

PUD = PudWorkloadConfig(period_ns=500.0)


def _run(mix, run, tapes=None):
    prac, horizon_ns = run
    system = MemorySystem(
        mix, pud=PUD, prac=prac, config=MemSysConfig(horizon_ns=horizon_ns),
        seed=mix.mix_id, tapes=tapes,
    )
    if tapes is not None:
        assert all(own is tape for own, tape in zip(system.tapes, tapes))
    return asdict(system.run())


@pytest.fixture(scope="module")
def private():
    """Every run's result with fresh private tapes, keyed by mix id."""
    return {mix.mix_id: [_run(mix, run) for run in RUNS] for mix in MIXES}


@settings(max_examples=5, deadline=None)
@given(order=st.permutations(range(len(RUNS))))
def test_shared_tapes_in_any_order_match_private(private, order) -> None:
    for mix in MIXES:
        tapes = mix_tapes(mix, seed=mix.mix_id)
        for index in order:
            assert _run(mix, RUNS[index], tapes) == private[mix.mix_id][index]


def test_tapes_of_another_stream_rejected() -> None:
    mix = MIXES[0]
    with pytest.raises(ValueError):
        MemorySystem(mix, pud=None, prac=None, seed=1,
                     tapes=mix_tapes(mix, seed=0))
    with pytest.raises(ValueError):
        MemorySystem(mix, pud=None, prac=None,
                     tapes=mix_tapes(MIXES[1], seed=0))
