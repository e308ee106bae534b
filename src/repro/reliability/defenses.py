"""Integrity mechanisms evaluated against PuD-induced corruption.

Three defenses, each with a coverage story (how much silent corruption
survives) and a cost story (extra ACTs, latency, capacity):

* :class:`OnDieSecEcc` -- per-access single-error-correcting Hamming code
  over 128+8-bit words, the on-die ECC deployed in modern DDR5 dies.  A
  word with one flipped bit is corrected on read; a word with two or more
  flips *miscorrects* (SEC without DED aliases the syndrome onto a third
  bit), the reason the paper's scale of multi-bit PuD corruption defeats
  on-die ECC.
* :class:`VerifyRetry` -- op-level checksum-verify-retry: after each
  kernel the result rows are read back through real commands, compared
  against the op's checksum (the shadow ideal), and rewritten on
  mismatch.  Detects and repairs result corruption at the cost of extra
  ACT traffic and latency, measured on the same command clock as the
  workload.
* :class:`GuardRowSpacing` -- the §8.1 placement countermeasure: rows
  adjacent to PuD traffic are reserved, so bystander flips land on
  unallocated cells.  Zero command overhead, pure capacity cost.

``system_overhead_pct`` converts a defense's extra command traffic into a
system-level slowdown through the memsys evaluation path: denser PuD
traffic on the shared bank is modeled as a proportionally shorter PuD
op period, and the trace cores' IPC loss is the reported overhead.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from ..core.metrics import count_flips
from .oracle import Corrector, CorruptionOracle
from .workloads import Kernel, Workload

#: SEC Hamming geometry: 8 check bits protect 128 data bits
ECC_WORD_DATA_BITS = 128
ECC_WORD_CHECK_BITS = 8

#: decode/encode latency charged per protected column access
ECC_ACCESS_NS = 1.5

#: verify-retry rewrite attempts per corrupted result row
MAX_RETRIES = 2


def sec_correct(
    expected: np.ndarray, actual: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Model a SEC Hamming decode of ``actual`` against its codeword.

    The check bits were computed when ``expected`` was written, so the
    syndrome of each 128-bit word is its bitwise difference: one flipped
    bit decodes to its exact position and is corrected; two or more flips
    alias the syndrome onto a third (clean) position, flipping it too --
    the classic SEC miscorrection.  Check-bit cells are assumed clean
    (they are 8/136 of the stored bits; the approximation is noted in the
    experiment output).

    Returns ``(corrected_bytes, corrected_words, miscorrected_words)``.
    """
    exp_bits = np.unpackbits(np.asarray(expected, dtype=np.uint8))
    act_bits = np.unpackbits(np.asarray(actual, dtype=np.uint8))
    diff = exp_bits ^ act_bits
    corrected = act_bits.copy()
    corrected_words = miscorrected_words = 0
    for start in range(0, diff.size, ECC_WORD_DATA_BITS):
        stop = start + ECC_WORD_DATA_BITS
        errors = int(diff[start:stop].sum())
        if errors == 1:
            corrected[start:stop] = exp_bits[start:stop]
            corrected_words += 1
        elif errors >= 2:
            clean = np.nonzero(diff[start:stop] == 0)[0]
            if clean.size:
                corrected[start + clean[0]] ^= 1
            miscorrected_words += 1
    return np.packbits(corrected), corrected_words, miscorrected_words


@dataclass
class DefenseOutcome:
    """Per-workload accounting a defense accumulates while running."""

    detected_bits: int = 0
    repaired_rows: int = 0
    retries: int = 0
    unrepaired_rows: int = 0
    scrub_corrected_words: int = 0
    scrub_miscorrected_words: int = 0
    extra_latency_ns: float = 0.0
    capacity_overhead_pct: float = 0.0
    reserved_rows: int = 0
    occupied_rows: int = 0


class Defense:
    """Base: no defense.  Subclasses hook the executor's kernel loop."""

    name = "none"
    #: ask the workload builder to reserve bystander rows
    wants_guard_rows = False
    #: >0: the executor splits sustained loops so ``scrub`` runs at least
    #: every this-many PuD ops (patrol-scrub cadence)
    scrub_every_ops = 0

    def corrector(self) -> Optional[Corrector]:
        """Read-path transform applied before oracle classification."""
        return None

    def scrub(
        self,
        kernel: Kernel,
        ideal: dict[int, np.ndarray],
        engine,
        oracle: CorruptionOracle,
        outcome: DefenseOutcome,
    ) -> None:
        """Mid-kernel patrol pass (only called when ``scrub_every_ops``)."""

    def post_kernel(
        self,
        kernel: Kernel,
        ideal: dict[int, np.ndarray],
        engine,
        oracle: CorruptionOracle,
        outcome: DefenseOutcome,
    ) -> None:
        """Runs after a kernel's programs, before the oracle checkpoint."""

    def finish(
        self, workload: Workload, accesses: int, outcome: DefenseOutcome
    ) -> None:
        """Final per-workload cost accounting."""


class OnDieSecEcc(Defense):
    """DDR5-style on-die SEC ECC with an ECS patrol scrubber.

    Correction happens on every read path *and* on a periodic error-check-
    and-scrub sweep (reads each protected row, writes back the decoded
    codeword).  The scrub's reads/writes are real commands, so its ACT and
    latency cost is measured, and -- crucially -- a decode of a multi-bit
    word writes the *miscorrected* codeword back, exactly the failure mode
    that makes SEC ECC unsound against multi-bit PuD corruption.

    PuD results are treated as carrying codewords consistent with their
    ideal contents (true for RowClone, which copies stored check bits;
    generous for bitwise ops, whose check bits in-DRAM computation would
    actually scramble).
    """

    name = "ecc-sec"
    #: patrol cadence in PuD ops; chosen below the CoMRA sentinel minima
    #: (~1.9k) so scrub-as-refresh quenches CoMRA-rate disturbance, while
    #: SiMRA-rate corruption (minima in the tens) still blows through --
    #: the paper-consistent split
    scrub_every_ops = 1500

    def corrector(self) -> Corrector:
        return sec_correct

    def scrub(
        self,
        kernel: Kernel,
        ideal: dict[int, np.ndarray],
        engine,
        oracle: CorruptionOracle,
        outcome: DefenseOutcome,
    ) -> None:
        # Patrol only *allocated* rows (the oracle's shadow): kernel result
        # rows mid-flight may not have been produced yet, and their decode
        # happens on the final read anyway.
        rows = set(oracle.shadow) - set(kernel.entropy_rows)
        for row in sorted(rows):
            expected = ideal.get(row, oracle.shadow.get(row))
            if expected is None:
                continue
            actual = engine.read(row)
            decoded, corrected, miscorrected = sec_correct(expected, actual)
            outcome.scrub_corrected_words += corrected
            outcome.scrub_miscorrected_words += miscorrected
            if corrected or miscorrected:
                engine.write(row, decoded)

    def finish(
        self, workload: Workload, accesses: int, outcome: DefenseOutcome
    ) -> None:
        outcome.extra_latency_ns = ECC_ACCESS_NS * accesses
        outcome.capacity_overhead_pct = (
            100.0 * ECC_WORD_CHECK_BITS / ECC_WORD_DATA_BITS
        )


class VerifyRetry(Defense):
    name = "verify-retry"

    def post_kernel(
        self,
        kernel: Kernel,
        ideal: dict[int, np.ndarray],
        engine,
        oracle: CorruptionOracle,
        outcome: DefenseOutcome,
    ) -> None:
        """Read back every result row and rewrite it until it verifies.

        The reads and rewrites are real commands on the shared host
        clock, so the defense's ACT/latency overhead shows up in the same
        counters the workload is measured with.
        """
        for row in sorted(kernel.result_rows - kernel.entropy_rows):
            # results produced by an *earlier* kernel carry their checksum
            # in the oracle's shadow rather than this kernel's ideal
            expected = ideal.get(row, oracle.shadow.get(row))
            if expected is None:
                continue
            repaired = False
            for _ in range(1 + MAX_RETRIES):
                actual = engine.read(row)
                bits = count_flips(actual, expected)
                if bits == 0:
                    break
                if not repaired:
                    outcome.detected_bits += bits
                    outcome.repaired_rows += 1
                    repaired = True
                outcome.retries += 1
                engine.write(row, expected)
            else:
                outcome.unrepaired_rows += 1


class GuardRowSpacing(Defense):
    name = "guard-rows"
    wants_guard_rows = True

    def finish(
        self, workload: Workload, accesses: int, outcome: DefenseOutcome
    ) -> None:
        outcome.reserved_rows = len(workload.reserved_rows)
        outcome.occupied_rows = outcome.reserved_rows + len(workload.data_rows)
        if outcome.occupied_rows:
            outcome.capacity_overhead_pct = (
                100.0 * outcome.reserved_rows / outcome.occupied_rows
            )


DEFENSES: dict[str, type[Defense]] = {
    Defense.name: Defense,
    OnDieSecEcc.name: OnDieSecEcc,
    VerifyRetry.name: VerifyRetry,
    GuardRowSpacing.name: GuardRowSpacing,
}


def build_defense(name: str) -> Defense:
    try:
        return DEFENSES[name]()
    except KeyError:
        raise ValueError(
            f"unknown defense {name!r}; known: {sorted(DEFENSES)}"
        ) from None


#: mean trace-core IPC per (mix, config fields, seed, PuD period); the
#: memory system is deterministic, and every defended workload asks for
#: the same baseline run
_MEAN_IPC_CACHE: dict[tuple, float] = {}
#: trace tapes per (mix, seed), shared by every run over that mix
_MIX_TAPES: dict[tuple, list] = {}


def _mean_ipc(mix, config, seed: int, period_ns: float) -> float:
    """Mean trace-core IPC of ``mix`` at one PuD op period (memoized)."""
    from ..memsys.system import MemorySystem, mix_tapes
    from ..workloads import PudWorkloadConfig

    key = (mix, astuple(config), seed, period_ns)
    cached = _MEAN_IPC_CACHE.get(key)
    if cached is None:
        tapes = _MIX_TAPES.get((mix, seed))
        if tapes is None:
            tapes = _MIX_TAPES[mix, seed] = mix_tapes(mix, seed)
        result = MemorySystem(
            mix,
            pud=PudWorkloadConfig(period_ns=period_ns),
            prac=None,
            config=config,
            seed=seed,
            tapes=tapes,
        ).run()
        cached = _MEAN_IPC_CACHE[key] = float(np.mean(result.ipc_per_core))
    return cached


def system_overhead_pct(
    act_multiplier: float,
    horizon_ns: float = 60_000.0,
    base_period_ns: float = 1_000.0,
    seed: int = 0,
) -> float:
    """Trace-core slowdown when PuD bank traffic densifies by ``act_multiplier``.

    Compares the event-queue memory system on one workload mix at the
    baseline PuD op period and at the period shrunk by the defense's
    command-traffic multiplier, and reports the mean IPC loss of the
    trace cores in percent.
    """
    from ..memsys import MemSysConfig
    from ..workloads import build_mixes

    if act_multiplier <= 1.0:
        return 0.0
    mix = build_mixes(1)[0]
    config = MemSysConfig(horizon_ns=horizon_ns)
    base = _mean_ipc(mix, config, seed, base_period_ns)
    dense = _mean_ipc(mix, config, seed, base_period_ns / act_multiplier)
    if base <= 0:
        return 0.0
    return max(0.0, 100.0 * (1.0 - dense / base))
