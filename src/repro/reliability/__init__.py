"""repro.reliability: PuD computation-integrity subsystem.

Answers the question the paper's security framing leaves open for honest
workloads: *when a tenant simply uses Processing-using-DRAM at scale, how
much silent corruption does it inflict -- and what do practical defenses
buy?*  Four layers:

* :mod:`~repro.reliability.workloads` -- PuD application library lowered
  to DRAM Bender programs (memcpy sweeps, copy chains, FracDRAM init,
  SiMRA broadcast/memset/bitmap kernels, QUAC-TRNG streams);
* :mod:`~repro.reliability.oracle` -- shadow-execution corruption oracle
  classifying each flipped bit as operand / result / bystander;
* :mod:`~repro.reliability.defenses` -- on-die SEC ECC, op-level
  verify-retry, and guard-row spacing, each with coverage + overhead;
* :mod:`~repro.reliability.executor` -- runs the cross-product and
  produces per-defense summaries for the ``pud_reliability`` experiment.
"""

from .defenses import (
    DEFENSES,
    Defense,
    DefenseOutcome,
    GuardRowSpacing,
    OnDieSecEcc,
    VerifyRetry,
    build_defense,
    sec_correct,
    system_overhead_pct,
)
from .executor import (
    DefenseSummary,
    ReliabilityResult,
    WorkloadOutcome,
    evaluate_reliability,
    execute_workload,
)
from .oracle import (
    Corrector,
    CorruptionOracle,
    CorruptionTotals,
    KernelReport,
)
from .workloads import (
    SIMRA_WORKLOADS,
    WORKLOAD_NAMES,
    Kernel,
    Workload,
    build_workloads,
)

__all__ = [
    "DEFENSES",
    "Defense",
    "DefenseOutcome",
    "DefenseSummary",
    "GuardRowSpacing",
    "OnDieSecEcc",
    "VerifyRetry",
    "build_defense",
    "sec_correct",
    "system_overhead_pct",
    "ReliabilityResult",
    "WorkloadOutcome",
    "evaluate_reliability",
    "execute_workload",
    "Corrector",
    "CorruptionOracle",
    "CorruptionTotals",
    "KernelReport",
    "SIMRA_WORKLOADS",
    "WORKLOAD_NAMES",
    "Kernel",
    "Workload",
    "build_workloads",
]
