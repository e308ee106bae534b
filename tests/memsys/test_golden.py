"""Golden-fixture tests for the memory-system engines.

``golden_simresults.json`` was recorded from the original scan-loop
``MemorySystem.run`` implementation immediately before it was replaced
by the event-queue engine.  The C kernel behind ``MemorySystem`` and
both Python oracles (the event loop it was ported from and the scan
loop) must reproduce it bit-for-bit -- exact float equality, no
tolerances.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.memsys import MemSysConfig, MemorySystem
from repro.mitigations import PracConfig
from repro.workloads import PudWorkloadConfig, build_mixes

from .oracles import EventLoopMemorySystem, ScanLoopMemorySystem

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_simresults.json").read_text()
)

PRACS = {
    None: None,
    "naive": PracConfig.po_naive(),
    "wc": PracConfig.po_weighted(),
}

ENGINES = {
    "event-queue": MemorySystem,
    "python-event-loop": EventLoopMemorySystem,
    "scan-loop": ScanLoopMemorySystem,
}


def _run(engine, scenario):
    mixes = build_mixes(3)
    pud = (
        PudWorkloadConfig(period_ns=scenario["period_ns"])
        if scenario["period_ns"] is not None
        else None
    )
    system = engine(
        mixes[scenario["mix_id"]],
        pud=pud,
        prac=PRACS[scenario["prac"]],
        config=MemSysConfig(horizon_ns=scenario["horizon_ns"]),
        seed=scenario["seed"],
    )
    return system.run()


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_engine_reproduces_golden(engine_name: str, name: str) -> None:
    scenario = GOLDEN[name]
    result = _run(ENGINES[engine_name], scenario)
    assert result.ipc_per_core == scenario["ipc_per_core"]
    assert result.pud_ops_completed == scenario["pud_ops_completed"]
    assert result.backoffs == scenario["backoffs"]
    assert result.elapsed_ns == scenario["elapsed_ns"]
    assert result.requests_served == scenario["requests_served"]


def test_engines_agree_off_golden_grid() -> None:
    """Bit-exact engine equivalence on points the fixture doesn't cover."""
    mixes = build_mixes(3)
    for mix_id, period, prac_name, horizon in [
        (0, 500.0, "wc", 45_000.0),
        (1, None, "naive", 45_000.0),
        (2, 2000.0, None, 45_000.0),
    ]:
        pud = PudWorkloadConfig(period_ns=period) if period else None
        config = MemSysConfig(horizon_ns=horizon)
        kernel, *oracles = [
            engine(
                mixes[mix_id], pud=pud, prac=PRACS[prac_name], config=config,
                seed=mix_id + 13,
            ).run()
            for engine in ENGINES.values()
        ]
        for ref in oracles:
            assert kernel.ipc_per_core == ref.ipc_per_core
            assert kernel.pud_ops_completed == ref.pud_ops_completed
            assert kernel.backoffs == ref.backoffs
            assert kernel.requests_served == ref.requests_served
