"""Randomized differential test: the C kernel vs both Python oracles.

``MemorySystem`` runs the event loop in C; ``EventLoopMemorySystem`` is
the Python loop it was ported from, and the scan loop picks each bank's
next request by ``min()`` over ``(issue_ns, seq)`` and retires
completions from a time-ordered heap, so it checks the FIFO bank queues
and bank-carried completions independently.  All three run at random
points well off the golden grid, bank counts included.
"""

from __future__ import annotations

import os
from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.memsys import MemSysConfig, MemorySystem
from repro.mitigations import PracConfig
from repro.workloads import PUD_PERIODS_NS, PudWorkloadConfig, build_mixes

from .oracles import EventLoopMemorySystem, ScanLoopMemorySystem

MIXES = build_mixes(8)

PRACS = {
    None: None,
    "po_naive": PracConfig.po_naive(),
    "po_weighted": PracConfig.po_weighted(),
    "ao_weighted": PracConfig.ao_weighted(),
}

#: a short draw per tier-1 run; ``HYPOTHESIS_PROFILE=ci`` soaks with that
#: profile's larger budget (registered in tests/conftest.py)
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 20
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    mix_id=st.integers(0, len(MIXES) - 1),
    period=st.sampled_from((None,) + PUD_PERIODS_NS),
    prac=st.sampled_from(sorted(PRACS, key=str)),
    seed=st.integers(0, 10_000),
    horizon_ns=st.floats(10_000.0, 60_000.0),
    frfcfs_cap=st.integers(0, 8),
    mlp=st.integers(1, 8),
    banks=st.sampled_from((1, 2, 3, 8, 16, 64)),
)
def test_event_engine_matches_scan_loop(
    mix_id, period, prac, seed, horizon_ns, frfcfs_cap, mlp, banks
) -> None:
    config = MemSysConfig(
        horizon_ns=horizon_ns, frfcfs_cap=frfcfs_cap, mlp=mlp, banks=banks
    )
    pud = PudWorkloadConfig(period_ns=period) if period is not None else None
    kernel, *oracles = [
        engine(MIXES[mix_id], pud=pud, prac=PRACS[prac], config=config,
               seed=seed).run()
        for engine in (MemorySystem, EventLoopMemorySystem,
                       ScanLoopMemorySystem)
    ]
    for ref in oracles:
        assert asdict(kernel) == asdict(ref)
