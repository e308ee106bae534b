"""PuD application library for computation-integrity runs.

Each :class:`Workload` is a realistic Processing-using-DRAM application
lowered to DRAM Bender programs: bulk RowClone memcpy sweeps, a
copy-chain that keeps computing next to freshly produced results, FracDRAM
initialization, and -- on SiMRA-capable chips -- multi-row broadcast
memset, bitmap AND query kernels, and sustained QUAC-TRNG streams.  The
sustained portion of every kernel is a single ``Loop`` of pure ACT/PRE
commands, so the compiled command-stream engine executes it in two
passes regardless of repetition count.

Placement is oracle-guided: the builder ranks candidate victim rows with
the model's vectorized :meth:`reference_hcfirst_array` population tables
and anchors each kernel's traffic next to the weakest victims (including
the per-mechanism sentinel rows pinned to Table 2 minima), then fills
aggressor rows with the per-victim worst-case data pattern
(:meth:`worst_case_patterns`).  That mirrors how a real attacker -- or an
unlucky tenant -- would experience the chip: the corruption rates the
oracle measures are worst-weak-row rates, the paper's headline framing.

Under a guard-row placement policy (the §8.1 "separate PuD-enabled rows"
countermeasure), the bystander payload rows adjacent to PuD traffic are
left unallocated: flips still land there physically, but no data lives
on them, so they cost capacity instead of integrity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..bender.program import ProgramBuilder, TestProgram
from ..core.patterns import (
    COMRA_DELAY_NS,
    SIMRA_ACT_TO_PRE_NS,
    SIMRA_PRE_TO_ACT_NS,
)
from ..disturbance.calibration import DataPattern, Mechanism
from ..dram.module import DramModule

#: ACT->PRE window that interrupts restoration (FracDRAM write timing)
FRAC_PRE_NS = 10.5

#: every workload name the library can build, in build order
WORKLOAD_NAMES = (
    "memcpy-sweep",
    "copy-chain",
    "frac-init",
    "simra-sweep",
    "multirow-memset",
    "bitmap-query",
    "quac-stream",
)

#: workloads that require SiMRA support
SIMRA_WORKLOADS = frozenset(
    {"simra-sweep", "multirow-memset", "bitmap-query", "quac-stream"}
)


@dataclass
class Kernel:
    """One checkpointed phase of a workload.

    ``programs`` run in order; the oracle checkpoints after the whole
    kernel (plus any defense hook) completes.  ``expected`` computes the
    ideal contents of ``result_rows`` from the shadow state at kernel
    entry.  ``entropy_rows`` are unpredictable by design and exempt from
    classification.  A ``trng_rounds > 0`` kernel is executed as the
    QUAC-TRNG flow (init-trigger-read rounds) instead of ``programs``.
    """

    name: str
    mechanism: Mechanism
    pattern: DataPattern
    ops: int
    setup_writes: dict[int, np.ndarray] = field(default_factory=dict)
    programs: list[TestProgram] = field(default_factory=list)
    operand_rows: frozenset = frozenset()
    result_rows: frozenset = frozenset()
    entropy_rows: frozenset = frozenset()
    expected: Callable[[dict[int, np.ndarray]], dict[int, np.ndarray]] = (
        lambda shadow: {}
    )
    trng_rounds: int = 0
    trng_group: tuple[int, ...] = ()


@dataclass
class Workload:
    """A PuD application: initial data placement plus kernels."""

    name: str
    kernels: list[Kernel]
    #: payload data rows written before the kernels run (physical row ->
    #: bytes); these are the innocent-bystander surface
    data_rows: dict[int, np.ndarray] = field(default_factory=dict)
    #: rows the guard policy reserved instead of filling with payload
    reserved_rows: tuple[int, ...] = ()
    #: predicted HC_first of the weakest victim the workload disturbs
    predicted_weakest_hc: float = float("inf")

    @property
    def ops(self) -> int:
        return sum(k.ops for k in self.kernels)


class _Builder:
    """Shared placement helpers bound to one module/bank."""

    def __init__(self, module: DramModule, bank: int, guard_rows: bool):
        self.module = module
        self.bank = bank
        self.guard = guard_rows
        self.geometry = module.geometry
        self.model = module.model
        if self.geometry.rows_per_subarray < 96:
            raise ValueError(
                "reliability workloads assume the default >=96-row subarray"
            )

    def logical(self, row: int) -> int:
        return self.module.to_logical(row)

    def fill(self, pattern: DataPattern) -> np.ndarray:
        return pattern.fill(self.geometry.row_bytes)

    def wcdp(self, victim: int, mechanism: Mechanism) -> DataPattern:
        return self.model.worst_case_pattern(self.bank, victim, mechanism)

    def payload(
        self, workload: Workload, rows: Sequence[int], pattern: DataPattern
    ) -> None:
        """Fill bystander rows -- or reserve them under the guard policy."""
        if self.guard:
            workload.reserved_rows = tuple(workload.reserved_rows) + tuple(rows)
        else:
            for row in rows:
                workload.data_rows[row] = self.fill(pattern)

    def comra_pair_loop(
        self, name: str, src: int, dst: int, reps: int
    ) -> TestProgram:
        """``reps`` RowClone copies src->dst as one scalable loop."""
        timing = self.module.timing
        body = (
            ProgramBuilder()
            .act(self.bank, self.logical(src), timing.tRP)
            .pre(self.bank, timing.tRAS)
            .act(self.bank, self.logical(dst), COMRA_DELAY_NS)
            .pre(self.bank, timing.tRAS)
        )
        return ProgramBuilder(name).loop(reps, body).build()

    def simra_pair_loop(
        self, name: str, row_a: int, row_b: int, reps: int
    ) -> TestProgram:
        """``reps`` ACT-PRE-ACT co-activations of a decoder pair."""
        timing = self.module.timing
        body = (
            ProgramBuilder()
            .act(self.bank, self.logical(row_a), timing.tRP)
            .pre(self.bank, SIMRA_ACT_TO_PRE_NS)
            .act(self.bank, self.logical(row_b), SIMRA_PRE_TO_ACT_NS)
            .pre(self.bank, timing.tRAS)
        )
        return ProgramBuilder(name).loop(reps, body).build()

    def rowclone(self, name: str, src: int, dst: int) -> TestProgram:
        return self.comra_pair_loop(name, src, dst, 1)


# ----------------------------------------------------------------------
# Individual workload builders
# ----------------------------------------------------------------------
def _memcpy_sweep(b: _Builder, reps: int) -> Workload:
    """Strided bulk memcpy: RowClone pairs sandwiching data rows.

    Victim anchors are the RowHammer sentinel plus the weakest candidates
    the population table predicts in the sentinel subarray -- the sweep a
    copy-heavy tenant would run over a fragmented region.
    """
    geom, model = b.geometry, b.model
    rh = model.sentinel_row(Mechanism.ROWHAMMER, b.bank)
    sub_rows = geom.subarray_rows(geom.subarray_of(rh))
    simra_s = model.sentinel_row(Mechanism.SIMRA, b.bank)
    # candidate victims: spaced stride-3 centers clear of the other
    # kernels' neighborhoods (the SiMRA sweep block and the sentinel pairs)
    ceiling = (simra_s - 8) if simra_s is not None else rh - 8
    candidates = list(range(sub_rows.start + 4, ceiling, 3))
    ranked = model.reference_hcfirst_array(b.bank, candidates, Mechanism.COMRA)
    weakest = [candidates[i] for i in np.argsort(ranked)[:3]]
    victims = sorted(weakest) + [rh]

    patterns = model.worst_case_patterns(b.bank, victims, Mechanism.COMRA)
    workload = Workload("memcpy-sweep", [])
    for victim, pattern in zip(victims, patterns):
        src, dst = victim - 1, victim + 1
        workload.data_rows[src] = pattern.fill(geom.row_bytes)
        b.payload(workload, [victim], pattern.negated)
        # one kernel (and one oracle checkpoint) per swept pair, so each
        # finished copy joins the shadow before the next pair hammers
        workload.kernels.append(
            Kernel(
                name=f"memcpy-{src}-{dst}",
                mechanism=Mechanism.COMRA,
                pattern=pattern,
                ops=reps,
                programs=[
                    b.comra_pair_loop(f"memcpy-{src}-{dst}", src, dst, reps)
                ],
                operand_rows=frozenset({src}),
                result_rows=frozenset({dst}),
                expected=lambda shadow, src=src, dst=dst: {
                    dst: shadow[src].copy()
                },
            )
        )
    hc = model.reference_hcfirst_array(b.bank, victims, Mechanism.COMRA)
    workload.predicted_weakest_hc = float(hc.min())
    return workload


def _copy_chain(b: _Builder, reps: int) -> Workload:
    """Produce a result row, then keep copying right next to it.

    Phase A copies a payload row into the CoMRA sentinel (the chip's
    weakest copy-victim); phase B sustains RowClone traffic on the
    sandwiching pair.  Flips on the phase-A destination are *result
    corruption*: the computation finished correctly and was then silently
    destroyed by continued PuD traffic -- PuDGhost's headline effect.
    """
    geom, model = b.geometry, b.model
    v = model.sentinel_row(Mechanism.COMRA, b.bank)
    source = v + 4
    pair_src, pair_dst = v - 1, v + 1
    pattern = b.wcdp(v, Mechanism.COMRA)

    workload = Workload("copy-chain", [])
    workload.data_rows[source] = pattern.negated.fill(geom.row_bytes)
    workload.data_rows[pair_src] = pattern.fill(geom.row_bytes)
    b.payload(workload, [v - 2, v + 2, v + 3], pattern.negated)

    # Phase A: produce the result.  Its checkpoint adopts the finished
    # copy into the shadow, so phase B's patrol defenses can see it.
    workload.kernels.append(
        Kernel(
            name="chain-produce",
            mechanism=Mechanism.COMRA,
            pattern=pattern,
            ops=1,
            programs=[b.rowclone("chain-produce", source, v)],
            operand_rows=frozenset({source}),
            result_rows=frozenset({v}),
            expected=lambda shadow: {v: shadow[source].copy()},
        )
    )
    # Phase B: keep copying next door.  ``v`` stays a *result* row -- a
    # flip there is a finished computation silently destroyed afterwards.
    workload.kernels.append(
        Kernel(
            name="chain-sweep",
            mechanism=Mechanism.COMRA,
            pattern=pattern,
            ops=reps,
            programs=[
                b.comra_pair_loop("chain-sweep", pair_src, pair_dst, reps)
            ],
            operand_rows=frozenset({pair_src}),
            result_rows=frozenset({v, pair_dst}),
            expected=lambda shadow: {pair_dst: shadow[pair_src].copy()},
        )
    )
    workload.predicted_weakest_hc = model.reference_hcfirst(
        b.bank, v, Mechanism.COMRA
    )
    return workload


def _frac_init(b: _Builder, reps: int) -> Workload:
    """Sustained FracDRAM initialization of two rows around a data row.

    Each iteration re-opens each frac row and interrupts restoration
    inside the fractional window; the sandwiched data row accumulates
    alternating-side (synergy) RowHammer damage with RowPress-extended
    aggressor-on time.
    """
    geom, model = b.geometry, b.model
    sub = 0
    start = geom.subarray_rows(sub).start
    f0, victim, f1 = start + 10, start + 11, start + 12
    pattern = b.wcdp(victim, Mechanism.ROWHAMMER)

    workload = Workload("frac-init", [])
    b.payload(workload, [victim], pattern.negated)
    b.payload(workload, [start + 8, start + 9, start + 13, start + 14],
              pattern.negated)

    timing = b.module.timing
    body = (
        ProgramBuilder()
        .act(b.bank, b.logical(f0), timing.tRP)
        .pre(b.bank, FRAC_PRE_NS)
        .act(b.bank, b.logical(f1), timing.tRP)
        .pre(b.bank, FRAC_PRE_NS)
    )
    kernel = Kernel(
        name="frac-init",
        mechanism=Mechanism.ROWHAMMER,
        pattern=pattern,
        ops=2 * reps,
        setup_writes={
            f0: pattern.fill(geom.row_bytes),
            f1: pattern.fill(geom.row_bytes),
        },
        programs=[ProgramBuilder("frac-init").loop(reps, body).build()],
        result_rows=frozenset({f0, f1}),
        entropy_rows=frozenset({f0, f1}),
    )
    workload.kernels.append(kernel)
    workload.predicted_weakest_hc = model.reference_hcfirst(
        b.bank, victim, Mechanism.ROWHAMMER
    )
    return workload


def _simra_sweep(b: _Builder, reps: int) -> Workload:
    """Sustained 2-row SiMRA broadcast around the SiMRA sentinel.

    The stride-2 decoder pair holds one replicated bitmap (identical
    contents, so charge sharing is a stable no-op computationally) and is
    co-activated ``reps`` times -- a bulk refresh/broadcast primitive.
    The sandwiched row between the pair is pure bystander data sitting at
    the chip's minimum SiMRA HC_first: §6's headline bystander victim.
    """
    geom, model = b.geometry, b.model
    v = model.sentinel_row(Mechanism.SIMRA, b.bank)
    row_a, row_b = v - 1, v + 1
    pattern = b.wcdp(v, Mechanism.SIMRA)

    workload = Workload("simra-sweep", [])
    data = pattern.fill(geom.row_bytes)
    workload.data_rows[row_a] = data
    workload.data_rows[row_b] = data.copy()
    b.payload(workload, [v], pattern.negated)
    b.payload(workload, [v - 3, v - 2, v + 2, v + 3], pattern.negated)

    kernel = Kernel(
        name="simra-sweep",
        mechanism=Mechanism.SIMRA,
        pattern=pattern,
        ops=reps,
        programs=[b.simra_pair_loop("simra-sweep", row_a, row_b, reps)],
        result_rows=frozenset({row_a, row_b}),
        expected=lambda shadow: {
            row_a: shadow[row_a].copy(),
            row_b: shadow[row_b].copy(),
        },
    )
    workload.kernels.append(kernel)
    workload.predicted_weakest_hc = model.reference_hcfirst(
        b.bank, v, Mechanism.SIMRA, simra_count=2
    )
    return workload


def _multirow_memset(b: _Builder, reps: int) -> Workload:
    """SiMRA one-to-seven broadcast memset, sustained."""
    geom, model = b.geometry, b.model
    sub_rows = geom.subarray_rows(
        geom.subarray_of(model.sentinel_row(Mechanism.ROWHAMMER, b.bank))
    )
    base = sub_rows.stop - 24
    group = tuple(range(base, base + 8))
    src, trigger = group[0], group[-1]
    below = [base - 2, base - 1]
    above = [base + 8, base + 9]
    pattern = b.wcdp(below[-1], Mechanism.SIMRA)

    workload = Workload("multirow-memset", [])
    workload.data_rows[src] = pattern.fill(geom.row_bytes)
    b.payload(workload, below + above, pattern.negated)

    timing = b.module.timing
    body = (
        ProgramBuilder()
        .act(b.bank, b.logical(src), timing.tRP)
        .pre(b.bank, timing.tRAS)
        .act(b.bank, b.logical(trigger), SIMRA_PRE_TO_ACT_NS)
        .pre(b.bank, timing.tRAS)
    )
    destinations = frozenset(group[1:])
    kernel = Kernel(
        name="multirow-memset",
        mechanism=Mechanism.SIMRA,
        pattern=pattern,
        ops=reps,
        programs=[ProgramBuilder("multirow-memset").loop(reps, body).build()],
        operand_rows=frozenset({src}),
        result_rows=destinations,
        expected=lambda shadow: {
            dst: shadow[src].copy() for dst in destinations
        },
    )
    workload.kernels.append(kernel)
    workload.predicted_weakest_hc = min(
        model.reference_hcfirst_simra_edge(b.bank, row, simra_count=8)
        for row in (below[-1], above[0])
    )
    return workload


def _bitmap_query(b: _Builder, reps: int) -> Workload:
    """Bitmap AND query: MAJ(A, B, 0, frac) in a scratch group, sustained.

    Operands are staged into the subarray-tail compute region via
    RowClone (the §8.1 layout), the FracDRAM pad turns the 4-row group
    into an AND, and the query is re-issued ``reps`` times.  The group's
    down-neighbors are the operand bitmap itself -- the operand-corruption
    channel PuDGhost demonstrates.
    """
    geom, model = b.geometry, b.model
    sub_rows = geom.subarray_rows(
        geom.subarray_of(model.sentinel_row(Mechanism.ROWHAMMER, b.bank))
    )
    g = tuple(range(sub_rows.stop - 4, sub_rows.stop))
    b0, b1 = sub_rows.stop - 8, sub_rows.stop - 6
    pattern = b.wcdp(g[0] - 1, Mechanism.SIMRA)

    workload = Workload("bitmap-query", [])
    workload.data_rows[b0] = pattern.fill(geom.row_bytes)
    workload.data_rows[b1] = DataPattern.ALL_ONES.fill(geom.row_bytes)
    b.payload(workload, [b0 + 1, g[0] - 1], pattern.negated)

    timing = b.module.timing
    frac = (
        ProgramBuilder("query-frac")
        .act(b.bank, b.logical(g[3]), timing.tRP)
        .pre(b.bank, FRAC_PRE_NS)
        .build()
    )
    query_body = (
        ProgramBuilder()
        .act(b.bank, b.logical(g[0]), timing.tRP)
        .pre(b.bank, SIMRA_ACT_TO_PRE_NS)
        .act(b.bank, b.logical(g[3]), SIMRA_PRE_TO_ACT_NS)
        .pre(b.bank, timing.tRAS)
    )

    def expected(shadow: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        result = np.bitwise_and(shadow[b0], shadow[b1])
        return {row: result.copy() for row in (g[0], g[1], g[2])}

    # Phase A: stage the operands into the compute group.
    workload.kernels.append(
        Kernel(
            name="query-load",
            mechanism=Mechanism.COMRA,
            pattern=pattern,
            ops=3,
            setup_writes={
                g[2]: DataPattern.ALL_ZEROS.fill(geom.row_bytes),
                g[3]: DataPattern.ALL_ONES.fill(geom.row_bytes),
            },
            programs=[
                b.rowclone("query-load-a", b0, g[0]),
                b.rowclone("query-load-b", b1, g[1]),
                frac,
            ],
            operand_rows=frozenset({b0, b1}),
            result_rows=frozenset({g[0], g[1]}),
            entropy_rows=frozenset({g[3]}),
            expected=lambda shadow: {
                g[0]: shadow[b0].copy(),
                g[1]: shadow[b1].copy(),
            },
        )
    )
    # Phase B: the sustained AND query (the frac pad resolves on the
    # first co-activation, so g[3] stays declared-unpredictable).
    workload.kernels.append(
        Kernel(
            name="bitmap-query",
            mechanism=Mechanism.SIMRA,
            pattern=pattern,
            ops=reps,
            programs=[
                ProgramBuilder("bitmap-query").loop(reps, query_body).build()
            ],
            operand_rows=frozenset({b0, b1}),
            result_rows=frozenset({g[0], g[1], g[2]}),
            entropy_rows=frozenset({g[3]}),
            expected=expected,
        )
    )
    workload.predicted_weakest_hc = model.reference_hcfirst_simra_edge(
        b.bank, g[0] - 1, simra_count=4
    )
    return workload


def _quac_stream(b: _Builder, rounds: int) -> Workload:
    """Sustained QUAC-TRNG entropy stream next to payload data."""
    geom, model = b.geometry, b.model
    start = geom.subarray_rows(0).start
    base = start + 40
    group = tuple(range(base, base + 4))
    pattern = b.wcdp(base - 1, Mechanism.SIMRA)

    workload = Workload("quac-stream", [])
    b.payload(
        workload,
        [base - 2, base - 1, base + 4, base + 5],
        pattern.negated,
    )
    kernel = Kernel(
        name="quac-stream",
        mechanism=Mechanism.SIMRA,
        pattern=pattern,
        ops=rounds,
        entropy_rows=frozenset(group),
        trng_rounds=rounds,
        trng_group=group,
    )
    workload.kernels.append(kernel)
    workload.predicted_weakest_hc = min(
        model.reference_hcfirst_simra_edge(b.bank, row, simra_count=4)
        for row in (base - 1, base + 4)
    )
    return workload


# ----------------------------------------------------------------------
# Library entry point
# ----------------------------------------------------------------------
def build_workloads(
    module: DramModule,
    reps: int,
    trng_rounds: int = 256,
    bank: int = 0,
    guard_rows: bool = False,
    include: Optional[Sequence[str]] = None,
) -> list[Workload]:
    """Build the workload library for one module, gated by capability.

    ``reps`` is the sustained repetition count per kernel; crossing a
    victim's HC_first is what turns PuD traffic into corruption, so the
    experiment scales this knob.  ``include`` filters by workload name.
    """
    unknown = set(include or ()) - set(WORKLOAD_NAMES)
    if unknown:
        raise ValueError(
            f"unknown workloads: {sorted(unknown)}; known: {WORKLOAD_NAMES}"
        )
    b = _Builder(module, bank, guard_rows)
    builders: list[tuple[str, Callable[[], Workload]]] = [
        ("memcpy-sweep", lambda: _memcpy_sweep(b, reps)),
        ("copy-chain", lambda: _copy_chain(b, reps)),
        ("frac-init", lambda: _frac_init(b, reps)),
        ("simra-sweep", lambda: _simra_sweep(b, reps)),
        ("multirow-memset", lambda: _multirow_memset(b, reps)),
        ("bitmap-query", lambda: _bitmap_query(b, reps)),
        ("quac-stream", lambda: _quac_stream(b, trng_rounds)),
    ]
    out: list[Workload] = []
    for name, build in builders:
        if include is not None and name not in include:
            continue
        if name in SIMRA_WORKLOADS and not module.supports_simra:
            continue
        out.append(build())
    return out
