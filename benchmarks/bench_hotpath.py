#!/usr/bin/env python
"""Hot-path microbenchmarks for the compiled command-stream engine.

Each cell times the same workload on the fast host (``Loop`` bodies
replayed as compiled streams) and the reference host (per-instruction
interpretation):

* ``hammer_loop``   -- TRR-attached double-sided RowHammer loop, the
  workload the batched ``on_act_stream`` path was built for.  The
  speedup here carries a hard >=10x floor (the PR's acceptance bar).
* ``hcfirst_search`` -- five-repeat HC_first measurement (one search
  whose repeats share a probe memo and bracket warm start) vs five
  independent one-repeat searches.
* ``gauntlet_cell`` -- one attack-gauntlet cell (synchronized attack
  under sampling TRR) with every host's ``compile_streams`` toggled,
  i.e. the end-to-end attack_surface hot path.
* ``prac_gauntlet_cell`` -- the same toggle on sync-simra16 under
  PRAC-PO-WC: compiled streams replayed in segments split where a
  back-off can fire, against per-command interpretation.
* ``trr_rounds`` -- the §7 (Fig. 24) SiMRA round program run round
  after round under sampling TRR: the fast host replays every round from
  the second on from its captured trace, so it pays the trace ops and
  the live REFs, against per-command interpretation.
* ``hcfirst_batch`` / ``comra_sweep`` -- the batched multi-victim probe
  engine (one ``measure_*`` call over the victim list) against the
  scalar per-victim session loop, on a whole-bank RowHammer sweep and a fig09-style CoMRA
  condition sweep respectively.
* ``simra_sweep`` -- the same comparison on a fig18-style SiMRA
  ACT->PRE / PRE->ACT timing sweep, whose probes replay the group
  sensing from captured traces.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke \
        --out benchmarks/BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke \
        --check benchmarks/BENCH_hotpath.json

``--check`` exits non-zero when any cell's speedup degraded by more
than 2x against the committed baseline (speedups, not wall times, so
the check is stable across runner hardware).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from functools import partialmethod
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# the scan-loop memory system, fig25_mix_sweep's reference side, lives
# with the other test oracles in tests/memsys/oracles.py
sys.path.insert(1, str(ROOT))

from repro.attack.gauntlet import run_cell  # noqa: E402
from repro.attack.synthesis import AttackSpec, synthesize_attacks  # noqa: E402
from repro.bender.host import DramBenderHost  # noqa: E402
from repro.bender.program import COUNT  # noqa: E402
from repro.core import patterns  # noqa: E402
from repro.core.hcfirst import (  # noqa: E402
    ProbeSetup,
    find_hc_first_repeated,
    standard_row_data,
)
from repro.disturbance import DataPattern, Mechanism  # noqa: E402
from repro.disturbance.calibration import MAX_ACTS_PER_TREFI  # noqa: E402
from repro.dram import make_module  # noqa: E402
from repro.memsys import MemSysConfig, MemorySystem  # noqa: E402
from repro.obs import Obs  # noqa: E402
from repro.trr import SamplingTrr  # noqa: E402
from repro.workloads import PudWorkloadConfig, build_mixes  # noqa: E402
from tests.memsys.oracles import ScanLoopMemorySystem  # noqa: E402

CONFIG = "hynix-a-8gb"
VICTIM = 2 * 96 + 40

#: acceptance floor on the TRR-attached hammer-loop speedup
HAMMER_LOOP_FLOOR = 10.0

#: acceptance floor on the batched multi-victim sweep.  The original goal
#: was 5x, but that is unreachable without pessimizing the scalar
#: reference; trace capture plus per-probe replay over the damage ledger
#: (DESIGN.md §11-12) land the honest measured ratio at ~2.6-2.8x at
#: default scale.  The fast side is bounded by per-unit translation and
#: the interpreted per-op replay, which only cross-unit vectorization of
#: the replay's ops could amortize.  The floor leaves headroom for
#: slower CI hardware; DESIGN.md §11-12 have the stage-by-stage cost
#: breakdown (also emitted per run as the cell's ``stages_s`` field).
HCFIRST_BATCH_FLOOR = 1.8

#: --check fails when a cell's speedup falls below baseline/REGRESSION_FACTOR
REGRESSION_FACTOR = 2.0


def _timeit(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@contextmanager
def _compile_streams(enabled: bool):
    """Build every ``DramBenderHost`` with ``compile_streams=enabled``
    (False = interpretation), hosts built by code the bench does not
    construct itself included."""
    init = DramBenderHost.__init__
    DramBenderHost.__init__ = partialmethod(init, compile_streams=enabled)
    try:
        yield
    finally:
        DramBenderHost.__init__ = init


@contextmanager
def _scalar_session_searches():
    """Run every session search through ``find_hc_first_repeated``, one
    setup after another, instead of the batched probe engine: the exact
    scalar reference the engine must match, not a pessimized stand-in."""
    from repro.core import session as session_module

    engine = session_module.run_batched_searches

    def scalar(setups, repeats, max_hammers, obs=None):
        return [
            find_hc_first_repeated(
                setup, repeats=repeats, max_hammers=max_hammers
            )
            for setup in setups
        ]

    session_module.run_batched_searches = scalar
    try:
        yield
    finally:
        session_module.run_batched_searches = engine


def bench_hammer_loop(smoke: bool, repeats: int) -> dict:
    count = 20_000 if smoke else 120_000

    def run(fast: bool) -> None:
        module = make_module(CONFIG)
        module.attach_trr(SamplingTrr(seed=0))
        host = DramBenderHost(module, compile_streams=fast)
        host.run(patterns.double_sided_rowhammer(module, VICTIM, count))

    fast_s = _timeit(lambda: run(True), repeats)
    ref_s = _timeit(lambda: run(False), max(1, repeats // 2))
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "params": {"count": count}}


def bench_hcfirst_search(smoke: bool, repeats: int) -> dict:
    n_repeats = 3 if smoke else 5

    def make_setup() -> ProbeSetup:
        module = make_module(CONFIG)
        pattern = module.model.worst_case_pattern(0, VICTIM, Mechanism.ROWHAMMER)
        return ProbeSetup(
            module=module,
            program=patterns.double_sided_rowhammer(module, VICTIM, COUNT),
            row_data=standard_row_data(
                module, [VICTIM - 1, VICTIM + 1], [VICTIM], pattern
            ),
            victims=[VICTIM],
        )

    def naive() -> None:
        setup = make_setup()
        for _ in range(n_repeats):
            find_hc_first_repeated(setup, repeats=1)

    def memoized() -> None:
        find_hc_first_repeated(make_setup(), repeats=n_repeats)

    fast_s = _timeit(memoized, repeats)
    ref_s = _timeit(naive, max(1, repeats // 2))
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "params": {"repeats": n_repeats}}


def _gauntlet_cell(
    attack: str, mitigation: str, smoke: bool, repeats: int
) -> dict:
    module = make_module(CONFIG)
    spec = {spec.name: spec for spec in synthesize_attacks(module)}[attack]
    act_budget = spec.acts_per_round * (4 if smoke else 16)

    def run(fast: bool) -> None:
        with _compile_streams(fast):
            run_cell(CONFIG, spec, mitigation, act_budget,
                     stop_after_first_flip=False)

    fast_s = _timeit(lambda: run(True), repeats)
    ref_s = _timeit(lambda: run(False), max(1, repeats // 2))
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "params": {"attack": spec.name, "mitigation": mitigation,
                       "act_budget": act_budget}}


def bench_gauntlet_cell(smoke: bool, repeats: int) -> dict:
    return _gauntlet_cell("sync-comra", "sampling-trr", smoke, repeats)


def bench_prac_gauntlet_cell(smoke: bool, repeats: int) -> dict:
    return _gauntlet_cell("sync-simra16", "prac-po-wc", smoke, repeats)


def bench_trr_rounds(smoke: bool, repeats: int) -> dict:
    """§7 SiMRA round program replayed ``rounds`` times under sampling TRR.

    Mirrors ``fig24``'s simra-2 cell: each run is four REF-delimited
    windows of 156 ACTs (SiMRA ops, then dummy floods).  The fast side
    runs the first round on the compiled stream path, captures the
    second, and replays the rest from that trace: per round it applies
    the captured deposit plans, touches, group sensings and sampler
    intakes and runs the four REFs live.  Both sides must leave identical
    bank and TRR stats and the same damage ledger: the same rows, the
    same flips, and damage equal up to float summation order (the stream
    path's scaled pass multiplies one period's damage where the reference
    adds it up; its hit ordinals count that pass once, so they are not
    compared).
    """
    rounds = 40 if smoke else 400

    def run(fast: bool) -> tuple:
        module = make_module(CONFIG)
        trr = SamplingTrr(seed=0)
        module.attach_trr(trr)
        base = module.geometry.rows_per_subarray + 32
        pair = patterns.simra_pair_for(module, (base // 32) * 32, 2)
        program = AttackSpec(
            name="trr-simra2", technique="simra", config_id=CONFIG, bank=0,
            aggressors=(pair.row_a, pair.row_b), activated=pair.group,
            victims=(), dummy=base + 64, data_pattern=DataPattern.ALL_ZEROS,
            dummy_windows=3, n_rows=2,
        ).build_round(module)
        host = DramBenderHost(module, compile_streams=fast)
        for _ in range(rounds):
            host.run(program)
        return dict(module.banks[0].stats), trr.stats, module.model.ledger

    (fast_bank, fast_trr, fast_ledger), (ref_bank, ref_trr, ref_ledger) = (
        run(True), run(False)
    )
    slot_of = {fast_ledger.key_of(slot): slot
               for slot in range(fast_ledger.size)}
    ref_keys = [ref_ledger.key_of(slot) for slot in range(ref_ledger.size)]
    fast_slots = [slot_of.get(key, 0) for key in ref_keys]
    checks = {
        "bank stats": fast_bank == ref_bank,
        "trr stats": fast_trr == ref_trr,
        "ledger rows": set(slot_of) == set(ref_keys),
        "ledger flips": np.array_equal(
            fast_ledger.flips[fast_slots], ref_ledger.flips[: ref_ledger.size]
        ),
        "ledger damage": np.allclose(
            fast_ledger.damage[fast_slots], ref_ledger.damage[: ref_ledger.size],
            rtol=1e-9, atol=0.0,
        ),
    }
    for name, equal in checks.items():
        if not equal:
            raise AssertionError(f"trr_rounds: {name} differ from reference")
    fast_s = _timeit(lambda: run(True), repeats)
    ref_s = _timeit(lambda: run(False), max(1, repeats // 2))
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "params": {"rounds": rounds, "acts_per_trefi": MAX_ACTS_PER_TREFI}}


def bench_population_scan(smoke: bool, repeats: int) -> dict:
    """Bulk population tables + array oracles vs per-row scalar oracles.

    Both sides draw the same bulk-sampled population tables.  The
    reference side then runs the scalar HC_first / WCDP oracles row by
    row over per-row ``model.profile`` views of those tables.
    """
    n_subarrays = 2 if smoke else 6

    def subarray_rows(module):
        geom = module.geometry
        return [
            row
            for sub in range(min(n_subarrays, geom.subarrays_per_bank))
            for row in geom.subarray_rows(sub)
        ]

    def fast() -> None:
        module = make_module(CONFIG)
        model = module.model
        rows = subarray_rows(module)
        for sub in range(min(n_subarrays, module.geometry.subarrays_per_bank)):
            model.population(0, sub)
        model.reference_hcfirst_array(0, rows, Mechanism.ROWHAMMER)
        model.reference_hcfirst_array(0, rows, Mechanism.COMRA)
        model.worst_case_patterns(0, rows, Mechanism.ROWHAMMER)

    def ref() -> None:
        module = make_module(CONFIG)
        model = module.model
        for row in subarray_rows(module):
            model.reference_hcfirst(0, row, Mechanism.ROWHAMMER)
            model.reference_hcfirst(0, row, Mechanism.COMRA)
            model.worst_case_pattern(0, row, Mechanism.ROWHAMMER)

    fast_s = _timeit(fast, repeats)
    ref_s = _timeit(ref, max(1, repeats // 2))
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "params": {"subarrays": n_subarrays}}


def bench_fig25_mix_sweep(smoke: bool, repeats: int) -> dict:
    """``MemorySystem`` (the C event-loop kernel) vs the scan-loop oracle.

    A scaled-down Fig. 25 sweep: workload mixes x PuD periods under
    weighted-PRAC, identical ``SimResult`` streams on both engines.  The
    kernel side replays one set of trace tapes per mix across its
    periods, as ``Fig25Evaluation`` does; the reference is
    ``ScanLoopMemorySystem`` from ``tests/memsys/oracles.py``, with scalar
    per-entry trace generation.
    """
    from repro.memsys.system import mix_tapes
    from repro.mitigations import PracConfig

    mix_count = 2 if smoke else 3
    periods = (1000.0,) if smoke else (250.0, 1000.0, 4000.0)
    horizon = 60_000.0 if smoke else 120_000.0
    mixes = build_mixes(mix_count)
    prac = PracConfig.po_weighted()

    def sweep(engine) -> None:
        for mix_id, mix in enumerate(mixes):
            shared = (
                {"tapes": mix_tapes(mix, seed=mix_id)}
                if engine is MemorySystem else {}
            )
            for period in periods:
                engine(
                    mix,
                    pud=PudWorkloadConfig(period_ns=period),
                    prac=prac,
                    config=MemSysConfig(horizon_ns=horizon),
                    seed=mix_id,
                    **shared,
                ).run()

    fast_s = _timeit(lambda: sweep(MemorySystem), repeats)
    ref_s = _timeit(lambda: sweep(ScanLoopMemorySystem), max(1, repeats // 2))
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "params": {"mixes": mix_count, "periods": list(periods),
                       "horizon_ns": horizon}}


def bench_pud_reliability(smoke: bool, repeats: int) -> dict:
    """One reliability workload under the oracle, fast host vs reference.

    ``execute_workload`` lowers the memcpy sweep to pure-loop programs, so
    the compiled command-stream engine carries the sustained portion; the
    reference side interprets every command.
    """
    from repro.reliability import build_defense, build_workloads, execute_workload

    reps = 6_000 if smoke else 36_000

    def run(fast: bool) -> None:
        module = make_module(CONFIG)
        workload = build_workloads(module, reps, include=["memcpy-sweep"])[0]
        with _compile_streams(fast):
            execute_workload(module, workload, build_defense("none"))

    fast_s = _timeit(lambda: run(True), repeats)
    ref_s = _timeit(lambda: run(False), max(1, repeats // 2))
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "params": {"reps": reps, "workload": "memcpy-sweep"}}


def bench_hcfirst_batch(smoke: bool, repeats: int) -> dict:
    """Batched multi-victim HC_first sweep vs the scalar per-victim loop.

    ``measure_rowhammer_ds`` over every candidate victim against a
    per-victim loop of one-victim calls with the session's engine rebound
    to the scalar search (:func:`_scalar_session_searches`).  The scalar
    side is dominated by per-ACT
    interpretation, which trace replay replaces with direct re-application
    of each probe's resolved deposit plans; the residue bounding the
    ratio is per-unit translation plus the per-op replay itself.  The
    cell reports the fast side's per-stage split (``stages_s``, from the
    ``probe.stage.*`` timers of its obs snapshot) -- see DESIGN.md §11-12
    for the measured breakdown.
    """
    from repro.core import CharacterizationSession, ExperimentScale

    # always default scale: the acceptance bar is "at default scale",
    # the whole cell is ~130 ms, and small-scale victim counts leave
    # too little batch parallelism to measure anything meaningful
    scale = ExperimentScale.default()

    def run(batched: bool) -> dict:
        # the fast side is timed WITH a live obs registry attached -- the
        # acceptance bar is that enabled metrics cost <=2% on this cell
        obs = Obs() if batched else None
        session = CharacterizationSession(make_module(CONFIG), scale, obs=obs)
        victims = session.candidate_victims()
        if batched:
            session.measure_rowhammer_ds(victims)
            return obs.snapshot()
        with _scalar_session_searches():
            for v in victims:
                session.measure_rowhammer_ds([v])
        return {}

    # hand-rolled best-of so the reported stage split and obs snapshot
    # come from the same iteration as the reported wall time
    fast_s = float("inf")
    snapshot: dict = {}
    for _ in range(repeats):
        start = time.perf_counter()
        run_obs = run(True)
        elapsed = time.perf_counter() - start
        if elapsed < fast_s:
            fast_s = elapsed
            snapshot = run_obs
    ref_s = _timeit(lambda: run(False), max(1, repeats // 2))
    prefix = "probe.stage."
    stages = {
        name[len(prefix):]: timer["total_s"]
        for name, timer in snapshot["timers"].items()
        if name.startswith(prefix)
    }
    engine_s = sum(stages.values())
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "stages_s": {
                **{k: round(v, 6) for k, v in sorted(stages.items())},
                "other": round(fast_s - engine_s, 6),
            },
            "obs": snapshot,
            "params": {"scale": "default"}}


def bench_comra_sweep(smoke: bool, repeats: int) -> dict:
    """A fig09-style CoMRA condition sweep, batched vs scalar.

    Each PRE-to-ACT delay is one ``measure_comra_ds`` call over the
    victim list on the fast side, the experiment-loop shape comra.py
    runs.  The reference side is a per-victim loop of one-victim calls
    on the scalar search (:func:`_scalar_session_searches`).
    """
    from repro.core import CharacterizationSession, ExperimentScale

    # always default scale (matching hcfirst_batch): small-scale victim
    # counts leave too little batch parallelism for the cell to measure
    # the engine rather than fixed session overhead.  Smoke mode trims
    # the delay grid instead, which scales wall time without changing
    # the per-victim work being compared.
    # fig09's delay grid: a PRE-to-ACT delay of at most 6 ns would open a
    # multi-row activation whose decoder group the unit does not
    # re-initialize, which the engine refuses (``clock_sensitive``)
    scale = ExperimentScale.default()
    delays = (7.5, 12.0) if smoke else (7.5, 9.0, 10.5, 12.0)

    def run(batched: bool):
        session = CharacterizationSession(make_module(CONFIG), scale)
        victims = session.candidate_victims()
        out = []
        if batched:
            for delay in delays:
                out.extend(
                    session.measure_comra_ds(victims, pre_to_act_ns=delay)
                )
            return out
        with _scalar_session_searches():
            for delay in delays:
                out.extend(
                    session.measure_comra_ds([v], pre_to_act_ns=delay)[0]
                    for v in victims
                )
        return out

    fast_s = _timeit(lambda: run(True), repeats)
    ref_s = _timeit(lambda: run(False), max(1, repeats // 2))
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "params": {"scale": "default", "delays_ns": list(delays)}}


def bench_simra_sweep(smoke: bool, repeats: int) -> dict:
    """A fig18-style SiMRA timing sweep, batched vs scalar.

    Each (ACT->PRE, PRE->ACT) cell is one ``measure_simra_ds`` call over
    six 16-row double-sided groups with two victims each, as fig18 runs
    it; the reference side measures one group per call on the scalar
    search (:func:`_scalar_session_searches`).  Smoke mode trims the
    delay grid (keeping the 1.5 ns ACT->PRE partial-activation point),
    not the scale.  The fast side's obs snapshot rides along, so the
    probe-path split shows every probe replaying a captured trace.
    """
    from repro.core import CharacterizationSession, ExperimentScale

    scale = ExperimentScale.default().with_overrides(simra_groups=8)
    delays = (1.5, 4.5) if smoke else (1.5, 3.0, 4.5)

    def run(batched: bool) -> dict:
        obs = Obs() if batched else None
        session = CharacterizationSession(make_module(CONFIG), scale, obs=obs)
        pairs = session.sample_simra_pairs(16, include_sentinel=False)[:6]
        for act_to_pre in delays:
            for pre_to_act in delays:
                timing = dict(act_to_pre_ns=act_to_pre,
                              pre_to_act_ns=pre_to_act, max_victims=2)
                if batched:
                    session.measure_simra_ds(pairs, **timing)
                    continue
                with _scalar_session_searches():
                    for pair in pairs:
                        session.measure_simra_ds([pair], **timing)
        return obs.snapshot() if batched else {}

    fast_s = float("inf")
    snapshot: dict = {}
    for _ in range(repeats):
        start = time.perf_counter()
        run_obs = run(True)
        elapsed = time.perf_counter() - start
        if elapsed < fast_s:
            fast_s, snapshot = elapsed, run_obs
    ref_s = _timeit(lambda: run(False), max(1, repeats // 2))
    return {"fast_s": fast_s, "ref_s": ref_s, "speedup": ref_s / fast_s,
            "obs": snapshot,
            "params": {"scale": "default", "delays_ns": list(delays)}}


BENCHES = {
    "hammer_loop": bench_hammer_loop,
    "hcfirst_search": bench_hcfirst_search,
    "gauntlet_cell": bench_gauntlet_cell,
    "prac_gauntlet_cell": bench_prac_gauntlet_cell,
    "trr_rounds": bench_trr_rounds,
    "population_scan": bench_population_scan,
    "fig25_mix_sweep": bench_fig25_mix_sweep,
    "pud_reliability": bench_pud_reliability,
    "hcfirst_batch": bench_hcfirst_batch,
    "comra_sweep": bench_comra_sweep,
    "simra_sweep": bench_simra_sweep,
}


def check_against_baseline(results: dict, baseline_path: Path) -> list[str]:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, cell in results["benchmarks"].items():
        base = baseline.get("benchmarks", {}).get(name)
        if base is None:
            continue
        floor = base["speedup"] / REGRESSION_FACTOR
        if cell["speedup"] < floor:
            failures.append(
                f"{name}: speedup {cell['speedup']:.1f}x is below "
                f"{floor:.1f}x ({REGRESSION_FACTOR}x regression vs "
                f"baseline {base['speedup']:.1f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload sizes for CI")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats per cell (best-of)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write results JSON here")
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to compare speedups against")
    parser.add_argument("--only", choices=sorted(BENCHES), action="append",
                        help="run only the named cell(s)")
    args = parser.parse_args(argv)

    names = args.only or list(BENCHES)
    results = {"config": CONFIG, "smoke": bool(args.smoke), "benchmarks": {}}
    failures = []
    for name in names:
        cell = BENCHES[name](args.smoke, args.repeats)
        results["benchmarks"][name] = cell
        print(f"{name:18s} fast {cell['fast_s']*1e3:9.1f} ms   "
              f"ref {cell['ref_s']*1e3:9.1f} ms   "
              f"speedup {cell['speedup']:7.1f}x")
        if cell.get("stages_s"):
            split = "  ".join(
                f"{key} {value*1e3:.1f}ms"
                for key, value in cell["stages_s"].items()
            )
            print(f"{'':18s} stages: {split}")
        probe_paths = cell.get("obs", {}).get("counters", {}).get("probe.probes")
        if probe_paths:
            split = "  ".join(
                f"{labels} {count}" for labels, count in probe_paths.items()
            )
            print(f"{'':18s} probes: {split}")
        if name == "hammer_loop" and cell["speedup"] < HAMMER_LOOP_FLOOR:
            failures.append(
                f"hammer_loop: speedup {cell['speedup']:.1f}x is below the "
                f"{HAMMER_LOOP_FLOOR:.0f}x acceptance floor"
            )
        if name == "hcfirst_batch" and cell["speedup"] < HCFIRST_BATCH_FLOOR:
            failures.append(
                f"hcfirst_batch: speedup {cell['speedup']:.1f}x is below the "
                f"{HCFIRST_BATCH_FLOOR:.1f}x acceptance floor"
            )

    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.check is not None:
        failures.extend(check_against_baseline(results, args.check))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
