"""TRR-aware PuD attack synthesis: the §7 attacker, automated.

The characterization subsystems measure *how cheap* CoMRA/SiMRA make read
disturbance; this module closes the loop and turns those measurements into
concrete hammer schedules.  A schedule is expressed per *round* -- a fixed
sequence of refresh windows the attacker repeats: one or more hammer
windows (packed with double-sided RowHammer, CoMRA cycles or SiMRA
triggers at the ``MAX_ACTS_PER_TREFI`` command budget), followed by
dummy-flood windows that fill the sampling TRR's 450-entry buffer with a
harmless row, with REF commands at the memory controller's tREFI cadence.

The synthesis engine searches the schedule space (dummy-window count x
refresh postponement) against an analytic model of :class:`SamplingTrr`.
The decisive trick it discovers is *refresh postponement*: DDR4 permits
deferring up to 8 REF commands, so a round that issues all its REFs
back-to-back after >= 450 dummy ACTs guarantees the sampler's buffer holds
no aggressor at any TRR-capable REF -- the aggressors are never sampled and
their victims' disturbance accumulates unboundedly across rounds, while a
naive schedule loses its progress every time the sampler fires.

Row targeting mirrors the §7 methodology: each technique aims at the
sentinel row its profiling phase would surface (the population-minimum
HC_first row), and the module's calibration minima parameterize the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..bender.host import DramBenderHost
from ..bender.program import ProgramBuilder, TestProgram
from ..core.hcfirst import standard_row_data
from ..core.metrics import count_flips
from ..core.patterns import (
    COMRA_DELAY_NS,
    SIMRA_ACT_TO_PRE_NS,
    SIMRA_PRE_TO_ACT_NS,
    T_AGG_ON_NOMINAL_NS,
    simra_pair_for,
    simra_pair_sandwiching,
    trefi_window,
    victims_of,
)
from ..disturbance.calibration import (
    MAX_ACTS_PER_TREFI,
    TRR_CAPABLE_REF_PERIOD,
    TRR_SAMPLER_WINDOW,
    DataPattern,
    Mechanism,
)
from ..dram.module import DramModule

#: DDR4 allows postponing up to 8 REF commands (JEDEC 79-4); synthesized
#: schedules never defer more refresh windows than this.
MAX_POSTPONED_REFS = 8

#: attack techniques the synthesizer composes
TECHNIQUES = ("rowhammer", "comra", "simra")


@dataclass(frozen=True)
class AttackSpec:
    """One synthesized hammer schedule, expressed per refresh-window round."""

    name: str
    technique: str  # one of TECHNIQUES
    config_id: str
    bank: int
    #: physical rows the ACT commands address
    aggressors: tuple[int, ...]
    #: physical rows actually activated (SiMRA activates the whole group)
    activated: tuple[int, ...]
    #: physical victim rows monitored for flips
    victims: tuple[int, ...]
    #: far physical row used to flood the TRR sampler
    dummy: int
    data_pattern: DataPattern
    hammer_windows: int = 1
    dummy_windows: int = 0
    postpone_refs: bool = False
    acts_per_trefi: int = MAX_ACTS_PER_TREFI
    #: SiMRA group size (0 for other techniques)
    n_rows: int = 0
    #: synthesis diagnostics: modeled aggressor samples per round against
    #: the sampling TRR, and the schedule's search score
    expected_samples_per_round: float = 0.0
    sync_score: float = 0.0

    # -- schedule arithmetic -------------------------------------------
    @property
    def windows_per_round(self) -> int:
        return self.hammer_windows + self.dummy_windows

    @property
    def hammers_per_window(self) -> int:
        """Hammers per window: one hammer issues one ACT per aggressor (a
        RowHammer pass over the aggressors, a CoMRA cycle, or a SiMRA
        trigger)."""
        return self.acts_per_trefi // len(self.aggressors)

    @property
    def hammers_per_round(self) -> int:
        return self.hammer_windows * self.hammers_per_window

    @property
    def acts_per_round(self) -> int:
        return self.windows_per_round * self.acts_per_trefi

    def rounds_for_budget(self, act_budget: int) -> int:
        return max(1, int(act_budget) // self.acts_per_round)

    # -- row setup and read-back ---------------------------------------
    def initialize_rows(self, host: DramBenderHost) -> None:
        """§4.2 initialization: the activated rows hold the data pattern,
        the victims its negation."""
        module = host.module
        rows = standard_row_data(
            module, self.activated, self.victims, self.data_pattern
        )
        host.write_rows(
            self.bank, {module.to_logical(r): data for r, data in rows.items()}
        )

    def victim_flips(self, host: DramBenderHost) -> int:
        """Read the victims back and count the bits that left the
        negated data pattern."""
        module = host.module
        expected = self.data_pattern.negated.fill(module.geometry.row_bytes)
        read = host.read_rows(
            self.bank, [module.to_logical(v) for v in self.victims]
        )
        return sum(count_flips(data, expected) for data in read.values())

    # -- program construction ------------------------------------------
    def build_round(self, module: DramModule) -> TestProgram:
        """One round as a DRAM Bender program.

        REF commands follow the controller's tREFI cadence; with
        ``postpone_refs`` the round's REFs are deferred and issued
        back-to-back after the last dummy window (within DDR4's
        8-postponed-REF allowance), so the sampler's buffer holds only
        dummy activations whenever a TRR-capable REF can fire.
        """
        timing = module.timing
        trp, tras, trefi = timing.tRP, timing.tRAS, timing.tREFI
        builder = ProgramBuilder(f"{self.name}@{self.config_id}")
        rows = [module.to_logical(r) for r in self.aggressors]
        acts = self.acts_per_trefi
        if self.technique == "comra":
            cycles = acts // 2
            period = [(rows[0], trp, tras), (rows[1], COMRA_DELAY_NS, tras)]
            pairs = 2 * cycles
            used = cycles * (trp + tras + COMRA_DELAY_NS + tras)
        elif self.technique == "simra":
            ops = acts // 2
            period = [
                (rows[0], trp, SIMRA_ACT_TO_PRE_NS),
                (rows[1], SIMRA_PRE_TO_ACT_NS, tras),
            ]
            pairs = 2 * ops
            used = ops * (trp + SIMRA_ACT_TO_PRE_NS + SIMRA_PRE_TO_ACT_NS + tras)
        else:
            period = [(row, trp, T_AGG_ON_NOMINAL_NS) for row in rows]
            pairs = acts
            used = acts * (trp + T_AGG_ON_NOMINAL_NS)
        ref = not self.postpone_refs
        for _ in range(self.hammer_windows):
            trefi_window(builder, self.bank, period, pairs, used, trefi, ref)
        flood = [(module.to_logical(self.dummy), trp, tras)]
        for _ in range(self.dummy_windows):
            trefi_window(
                builder, self.bank, flood, acts, acts * (trp + tras), trefi, ref
            )
        if self.postpone_refs:
            for _ in range(self.windows_per_round):
                builder.ref()
        return builder.build()


# ----------------------------------------------------------------------
# Analytic sampler model + schedule search
# ----------------------------------------------------------------------
def expected_aggressor_samples(
    hammer_windows: int,
    dummy_windows: int,
    acts_per_trefi: int = MAX_ACTS_PER_TREFI,
    postpone_refs: bool = False,
    window: int = TRR_SAMPLER_WINDOW,
    capable_ref_period: int = TRR_CAPABLE_REF_PERIOD,
) -> float:
    """Expected aggressor rows sampled per round by :class:`SamplingTrr`.

    Walks the round's ACT stream (aggressor vs dummy) through the
    sampler's sliding window at steady state (second of two consecutive
    rounds) and sums, at each REF position, the capable-REF probability
    times the aggressor fraction of the buffer.  Buffer clears on capable
    REFs are ignored, which over-estimates sampling -- the
    attacker-conservative direction.
    """
    acts: list[bool] = []  # True = aggressor ACT
    refs: list[int] = []  # stream position after which a REF fires

    def one_round() -> None:
        for w in range(hammer_windows + dummy_windows):
            acts.extend([w < hammer_windows] * acts_per_trefi)
            if not postpone_refs:
                refs.append(len(acts))
        if postpone_refs:
            refs.extend([len(acts)] * (hammer_windows + dummy_windows))

    one_round()
    warmup_refs = len(refs)
    one_round()
    expected = 0.0
    for position in refs[warmup_refs:]:
        buffer = acts[max(0, position - window):position]
        if buffer:
            expected += (sum(buffer) / len(buffer)) / capable_ref_period
    return expected


def schedule_score(
    samples_per_round: float,
    hammers_per_round: int,
    acts_per_round: int,
    hc_first: float,
) -> float:
    """Rank one schedule: success probability x ACT efficiency.

    A single sampled aggressor refreshes the victims and resets their
    accumulated disturbance, so the attack succeeds only over
    ``ceil(hc_first / hammers_per_round)`` consecutive sample-free rounds.
    """
    rounds_needed = max(1, math.ceil(hc_first / max(1, hammers_per_round)))
    survival = (1.0 - min(1.0, samples_per_round)) ** rounds_needed
    return survival * hammers_per_round / acts_per_round


def synthesize_schedule(
    hc_first: float,
    hammers_per_window: int,
    acts_per_trefi: int = MAX_ACTS_PER_TREFI,
    max_dummy_windows: int = 4,
) -> tuple[int, bool, float, float]:
    """Search (dummy_windows, postpone_refs) for the best evasion schedule
    of a window of ``hammers_per_window`` hammers.

    Returns ``(dummy_windows, postpone_refs, expected_samples, score)``.
    The search is deterministic; ties prefer fewer dummy windows and no
    postponement (the cheaper schedule).
    """
    best: tuple[float, int, bool, float] | None = None
    for dummy_windows in range(max_dummy_windows + 1):
        for postpone in (False, True):
            if postpone and dummy_windows + 1 > MAX_POSTPONED_REFS:
                continue
            samples = expected_aggressor_samples(
                1, dummy_windows, acts_per_trefi, postpone
            )
            acts = (1 + dummy_windows) * acts_per_trefi
            score = schedule_score(samples, hammers_per_window, acts, hc_first)
            if best is None or score > best[0] + 1e-12:
                best = (score, dummy_windows, postpone, samples)
    assert best is not None
    score, dummy_windows, postpone, samples = best
    return dummy_windows, postpone, samples, score


# ----------------------------------------------------------------------
# Per-module attack portfolio
# ----------------------------------------------------------------------
def _sandwich_center(module: DramModule, sentinel: int | None, fallback: int) -> int:
    """A victim row with a valid same-subarray double-sided sandwich."""
    center = sentinel if sentinel is not None else fallback
    if not module.geometry.same_subarray(center - 1, center + 1):
        center = fallback
    return center


def synthesize_attacks(
    module: DramModule,
    simra_rows: int = 16,
    acts_per_trefi: int = MAX_ACTS_PER_TREFI,
    bank: int = 0,
) -> tuple[AttackSpec, ...]:
    """The attack portfolio for one module configuration.

    Always contains the naive double-sided RowHammer baseline plus
    TRR-synchronized RowHammer and CoMRA schedules; SiMRA-capable modules
    additionally get a synchronized double-sided SiMRA-N attack.
    """
    model = module.model
    cal = model.calibration
    geometry = module.geometry
    base = geometry.rows_per_subarray + 32  # subarray 1 interior
    dummy = base + 64
    specs: list[AttackSpec] = []

    def spec_for(
        name: str,
        technique: str,
        aggressors: tuple[int, ...],
        activated: tuple[int, ...],
        pattern: DataPattern,
        hc_first: float,
        synchronized: bool,
        n_rows: int = 0,
    ) -> AttackSpec:
        spec = AttackSpec(
            name=name,
            technique=technique,
            config_id=module.config_id,
            bank=bank,
            aggressors=aggressors,
            activated=activated,
            victims=tuple(victims_of(module, activated)),
            dummy=dummy,
            data_pattern=pattern,
            acts_per_trefi=acts_per_trefi,
            n_rows=n_rows,
        )
        if synchronized:
            dummy_windows, postpone, samples, score = synthesize_schedule(
                hc_first, spec.hammers_per_window, acts_per_trefi
            )
        else:
            dummy_windows, postpone = 0, False
            samples = expected_aggressor_samples(1, 0, acts_per_trefi, False)
            score = schedule_score(
                samples, spec.hammers_per_window, acts_per_trefi, hc_first
            )
        return replace(
            spec, dummy_windows=dummy_windows, postpone_refs=postpone,
            expected_samples_per_round=samples, sync_score=score,
        )

    rh_center = _sandwich_center(
        module, model.sentinel_row(Mechanism.ROWHAMMER, bank), base + 1
    )
    rh_aggressors = (rh_center - 1, rh_center + 1)
    specs.append(
        spec_for(
            "naive-rowhammer", "rowhammer", rh_aggressors, rh_aggressors,
            DataPattern.CHECKER_AA, cal.rh_min, synchronized=False,
        )
    )
    specs.append(
        spec_for(
            "sync-rowhammer", "rowhammer", rh_aggressors, rh_aggressors,
            DataPattern.CHECKER_AA, cal.rh_min, synchronized=True,
        )
    )

    comra_center = _sandwich_center(
        module, model.sentinel_row(Mechanism.COMRA, bank), base + 1
    )
    comra_aggressors = (comra_center - 1, comra_center + 1)
    specs.append(
        spec_for(
            "sync-comra", "comra", comra_aggressors, comra_aggressors,
            DataPattern.CHECKER_AA, cal.comra_min, synchronized=True,
        )
    )

    if module.supports_simra:
        simra_sentinel = model.sentinel_row(Mechanism.SIMRA, bank)
        pair = None
        if simra_sentinel is not None:
            pair = simra_pair_sandwiching(module, simra_sentinel, simra_rows, bank)
        if pair is None:
            pair = simra_pair_for(
                module, (base // 32) * 32, simra_rows, "double-sided"
            )
        specs.append(
            spec_for(
                f"sync-simra{simra_rows}", "simra",
                (pair.row_a, pair.row_b), pair.group,
                DataPattern.ALL_ZEROS, float(cal.simra_min or 1.0),
                synchronized=True, n_rows=simra_rows,
            )
        )
    return tuple(specs)
