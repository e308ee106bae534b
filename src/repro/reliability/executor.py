"""Execute reliability workloads under a defense and account the damage.

``execute_workload`` runs one workload on a fresh module: payload data is
placed through the command interface (every write registered with the
oracle), each kernel's ideal result is computed from the shadow *before*
its programs run, the programs execute through the host's compiled
stream path, the defense's post-kernel hook gets a chance to detect and
repair, and the oracle checkpoint classifies whatever survived.  ACT counts and
the command clock are sampled around the run so defense overhead is
measured with the same instruments as the workload itself.

``evaluate_reliability`` is the experiment's engine room: it always runs
the undefended baseline first, then each requested defense on a *fresh*
module (so corruption attribution never leaks between runs), and reports
coverage (silent bits before/after) and overhead (extra ACTs, latency,
capacity, and memsys-evaluated system slowdown) per defense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..bender.program import Loop, TestProgram
from ..disturbance.calibration import DataPattern, Mechanism
from ..dram.module import DramModule
from ..dram.vendors import make_module
from ..pud.ops import PudEngine
from .defenses import Defense, DefenseOutcome, build_defense, system_overhead_pct
from .oracle import CorruptionOracle, CorruptionTotals, KernelReport
from .workloads import Kernel, Workload, build_workloads


@dataclass
class WorkloadOutcome:
    """Everything measured while one workload ran under one defense."""

    workload: str
    defense: str
    reports: list[KernelReport]
    totals: dict[tuple[Mechanism, DataPattern], CorruptionTotals]
    grand: CorruptionTotals
    defense_outcome: DefenseOutcome
    acts: int
    duration_ns: float
    ops: int
    predicted_weakest_hc: float


@dataclass
class DefenseSummary:
    """Aggregate coverage/overhead for one defense across the library."""

    defense: str
    outcomes: dict[str, WorkloadOutcome] = field(default_factory=dict)
    grand: CorruptionTotals = field(default_factory=CorruptionTotals)
    detected_bits: int = 0
    acts: int = 0
    duration_ns: float = 0.0
    extra_latency_ns: float = 0.0
    capacity_overhead_pct: float = 0.0
    #: filled in against the baseline by :func:`evaluate_reliability`
    act_overhead_pct: float = 0.0
    latency_overhead_pct: float = 0.0
    system_slowdown_pct: float = 0.0

    #: guard-row bookkeeping feeding the aggregate capacity number
    reserved_rows: int = 0
    occupied_rows: int = 0

    def add(self, outcome: WorkloadOutcome) -> None:
        self.outcomes[outcome.workload] = outcome
        g, o, d = self.grand, outcome.grand, outcome.defense_outcome
        g.operand_bits += o.operand_bits
        g.result_bits += o.result_bits
        g.bystander_bits += o.bystander_bits
        g.corrected_words += o.corrected_words + d.scrub_corrected_words
        g.miscorrected_words += (
            o.miscorrected_words + d.scrub_miscorrected_words
        )
        g.ops += o.ops
        self.detected_bits += d.detected_bits
        self.acts += outcome.acts
        self.duration_ns += outcome.duration_ns
        self.extra_latency_ns += d.extra_latency_ns
        self.reserved_rows += d.reserved_rows
        self.occupied_rows += d.occupied_rows
        if self.reserved_rows and self.occupied_rows:
            self.capacity_overhead_pct = (
                100.0 * self.reserved_rows / self.occupied_rows
            )
        else:
            self.capacity_overhead_pct = max(
                self.capacity_overhead_pct, d.capacity_overhead_pct
            )


@dataclass
class ReliabilityResult:
    """One configuration's full coverage/overhead picture."""

    config_id: str
    reps: int
    trng_rounds: int
    summaries: dict[str, DefenseSummary] = field(default_factory=dict)

    @property
    def baseline(self) -> DefenseSummary:
        return self.summaries["none"]


def execute_workload(
    module: DramModule,
    workload: Workload,
    defense: Defense,
    bank: int = 0,
) -> WorkloadOutcome:
    """Run one workload under one defense; classify and account everything."""
    engine = PudEngine(module, bank)
    oracle = CorruptionOracle(module, bank)
    outcome = DefenseOutcome()
    corrector = defense.corrector()

    stats = module.banks[bank].stats
    acts0 = stats["acts"]
    ns0 = engine.host.now_ns
    accesses = 0

    for row in sorted(workload.data_rows):
        data = workload.data_rows[row]
        engine.write(row, data)
        oracle.note_write(row, data)
        accesses += 1

    for kernel in workload.kernels:
        for row in sorted(kernel.setup_writes):
            data = kernel.setup_writes[row]
            engine.write(row, data)
            oracle.note_write(row, data)
            accesses += 1
        # the ideal is what the kernel *should* produce from current intent
        ideal = kernel.expected(oracle.shadow)
        if kernel.trng_rounds:
            _run_trng_rounds(engine, kernel)
            accesses += 5 * kernel.trng_rounds
        else:
            for program in kernel.programs:
                segments = _segment_program(program, defense.scrub_every_ops)
                for i, segment in enumerate(segments):
                    engine.host.run(segment)
                    if i < len(segments) - 1:
                        defense.scrub(kernel, ideal, engine, oracle, outcome)
        defense.post_kernel(kernel, ideal, engine, oracle, outcome)
        oracle.checkpoint(kernel, ideal, engine.host.now_ns, corrector)
        accesses += len(oracle.shadow)

    defense.finish(workload, accesses, outcome)
    return WorkloadOutcome(
        workload=workload.name,
        defense=defense.name,
        reports=oracle.reports,
        totals=oracle.totals,
        grand=oracle.grand_total(),
        defense_outcome=outcome,
        acts=stats["acts"] - acts0,
        duration_ns=engine.host.now_ns - ns0,
        ops=workload.ops,
        predicted_weakest_hc=workload.predicted_weakest_hc,
    )


def _segment_program(program: TestProgram, every: int) -> list[TestProgram]:
    """Split a pure-loop program so a scrub can run every ``every`` reps.

    Only programs made entirely of :class:`Loop` instructions are split
    (the sustained portion of every reliability kernel is one such loop);
    anything else runs whole.  Iterations are preserved exactly -- the
    remainder goes to the leading segments.
    """
    if every <= 0 or not program.instructions or not all(
        isinstance(instr, Loop) for instr in program.instructions
    ):
        return [program]
    top = max(instr.count for instr in program.instructions)
    n = -(-top // every)  # ceil
    if n <= 1:
        return [program]
    out = []
    for seg in range(n):
        instrs = [
            Loop(instr.count // n + (1 if seg < instr.count % n else 0),
                 instr.body)
            for instr in program.instructions
        ]
        instrs = [instr for instr in instrs if instr.count > 0]
        if instrs:
            out.append(TestProgram(instrs, f"{program.name}#s{seg}"))
    return out


def _run_trng_rounds(engine: PudEngine, kernel: Kernel) -> None:
    """Inline QUAC-TRNG flow: init 2-2, trigger SiMRA, harvest.

    Runs on the workload's shared engine (not a private :class:`QuacTrng`)
    so the entropy stream's disturbance lands on the same command clock
    as everything else the oracle observes.
    """
    group = kernel.trng_group
    nbytes = engine.module.geometry.row_bytes
    ones = np.full(nbytes, 0xFF, np.uint8)
    zeros = np.zeros(nbytes, np.uint8)
    for _ in range(kernel.trng_rounds):
        for row, data in zip(group, (ones, ones, zeros, zeros)):
            engine.write(row, data)
        engine.simultaneous_activate(group[0], group[-1])
        engine.read(group[0])


def evaluate_reliability(
    config_id: str,
    reps: int,
    trng_rounds: int = 256,
    defenses: Sequence[str] = ("none", "ecc-sec", "verify-retry", "guard-rows"),
    workloads: Optional[Sequence[str]] = None,
    bank: int = 0,
    system_horizon_ns: float = 60_000.0,
) -> ReliabilityResult:
    """Coverage and overhead of every requested defense on one config.

    The undefended baseline always runs (even if ``"none"`` was not
    requested) because every overhead number is a delta against it.  Each
    (defense, workload) pair gets a fresh module: corruption accumulated
    under one defense must never contaminate another's measurement.
    """
    names = ["none"] + [d for d in defenses if d != "none"]
    result = ReliabilityResult(config_id, reps, trng_rounds)

    for name in names:
        defense_cls = build_defense(name)
        summary = DefenseSummary(name)
        for wl_name in _library_names(config_id, workloads):
            module = make_module(config_id)
            built = build_workloads(
                module,
                reps,
                trng_rounds=trng_rounds,
                bank=bank,
                guard_rows=defense_cls.wants_guard_rows,
                include=[wl_name],
            )
            if not built:
                continue
            defense = build_defense(name)
            summary.add(
                execute_workload(module, built[0], defense, bank)
            )
        result.summaries[name] = summary

    base = result.baseline
    for name, summary in result.summaries.items():
        if name == "none" or base.acts == 0:
            continue
        multiplier = summary.acts / base.acts
        summary.act_overhead_pct = max(0.0, 100.0 * (multiplier - 1.0))
        total_ns = summary.duration_ns + summary.extra_latency_ns
        if base.duration_ns > 0:
            summary.latency_overhead_pct = max(
                0.0, 100.0 * (total_ns / base.duration_ns - 1.0)
            )
        summary.system_slowdown_pct = system_overhead_pct(
            multiplier, horizon_ns=system_horizon_ns
        )
    return result


def _library_names(
    config_id: str, workloads: Optional[Sequence[str]]
) -> list[str]:
    """The workload names to run, capability-gated for ``config_id``."""
    module = make_module(config_id)
    names = [w.name for w in build_workloads(module, reps=1, trng_rounds=1)]
    if workloads is not None:
        names = [n for n in names if n in workloads]
    return names
