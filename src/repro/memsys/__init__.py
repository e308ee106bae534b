"""Cycle-level-ish memory-system simulator for the §8.2 evaluation."""

from .evaluation import (
    Fig25Evaluation,
    MixOutcome,
    average_overhead,
    overhead_by_period,
)
from .system import MemSysConfig, MemorySystem, SimResult, alone_ipc

__all__ = [
    "Fig25Evaluation",
    "MemSysConfig",
    "MemorySystem",
    "MixOutcome",
    "SimResult",
    "alone_ipc",
    "average_overhead",
    "overhead_by_period",
]
