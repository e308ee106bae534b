"""Mitigation gauntlet: synthesized attacks vs. the defense matrix.

One *cell* of the gauntlet runs one synthesized :class:`AttackSpec`
against one mitigation on a freshly instantiated module, through the real
:class:`~repro.bender.host.DramBenderHost` command pipeline, under a fixed
ACT-command budget (the attacker's cost cap).  The harness records
exploitability metrics in the Fig. 24 / Table 4 direction: whether any
victim bit flipped, the time and hammer count to the first flip, and the
flip yield per refresh window.

Admission-style countermeasures (compute region, clustered decoder) can
reject an attack's operations at the interface before a single command is
issued; such cells are reported as *blocked* at zero attacker cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..bender.host import DramBenderHost
from ..disturbance.calibration import FlipDirection
from ..disturbance.distributions import stable_seed
from ..dram.module import DramModule
from ..dram.vendors import make_module
from .mitigations import MITIGATIONS, build_hook, policy_rejection
from .synthesis import AttackSpec, synthesize_attacks


@dataclass
class CellResult:
    """Outcome of one (attack, mitigation) gauntlet cell."""

    config_id: str
    attack: str
    technique: str
    mitigation: str
    act_budget: int
    #: interface/decoder admission verdict
    blocked: bool = False
    blocked_reason: str = ""
    #: schedule accounting
    rounds_run: int = 0
    hammers_issued: int = 0
    acts_issued: int = 0
    duration_ns: float = 0.0
    trefw_ns: float = 0.0
    #: exploitability metrics
    flips: int = 0
    first_flip_hammers: Optional[int] = None
    first_flip_ns: Optional[float] = None
    #: defense-side accounting, harvested from the hook's stats
    targeted_refreshes: int = 0
    rfms: int = 0
    stall_ns: float = 0.0
    #: synthesis diagnostics carried through for the report
    expected_samples_per_round: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def exploited(self) -> bool:
        return self.flips > 0

    @property
    def flips_per_refresh_window(self) -> float:
        """Flips extrapolated to one full tREFW of attack time."""
        if self.flips == 0 or self.duration_ns <= 0 or self.trefw_ns <= 0:
            return 0.0
        return self.flips * self.trefw_ns / self.duration_ns

    @property
    def acts_per_flip(self) -> Optional[float]:
        if self.flips == 0:
            return None
        return self.acts_issued / self.flips

    def to_row(self) -> dict:
        """Flat report row for :class:`ExperimentResult.rows`."""
        return {
            "config": self.config_id,
            "attack": self.attack,
            "technique": self.technique,
            "mitigation": self.mitigation,
            "blocked": self.blocked,
            "flips": self.flips,
            "first_flip_hammers": (
                -1 if self.first_flip_hammers is None else self.first_flip_hammers
            ),
            "first_flip_ms": (
                -1.0
                if self.first_flip_ns is None
                else self.first_flip_ns / 1e6
            ),
            "flips_per_trefw": self.flips_per_refresh_window,
            "acts_issued": self.acts_issued,
            "acts_per_flip": (
                -1.0 if self.acts_per_flip is None else self.acts_per_flip
            ),
            "targeted_refreshes": self.targeted_refreshes,
            "rfms": self.rfms,
            "stall_ns": self.stall_ns,
        }


def _damage_crossed(module: DramModule, spec: AttackSpec) -> bool:
    """Non-destructive peek: has any victim earned a flip already?

    ``coupled_damage`` reads the fault model's accumulators without
    touching charge state, so polling it between rounds does not disturb
    the experiment the way a read-back (which restores charge) would.
    """
    model = module.model
    for victim in spec.victims:
        for direction in FlipDirection:
            if model.coupled_damage(spec.bank, victim, direction) >= 1.0:
                return True
    return False


def run_cell(
    config_id: str,
    spec: AttackSpec,
    mitigation: str,
    act_budget: int,
    serial: int = 0,
    stop_after_first_flip: bool = True,
) -> CellResult:
    """Run one gauntlet cell on a fresh module instance.

    The module is re-instantiated per cell so no charge or tracker state
    leaks between cells; determinism comes from content-addressed seeding
    over (config, attack, mitigation, serial).
    """
    if spec.config_id != config_id:
        raise ValueError(
            f"spec {spec.name!r} was synthesized for {spec.config_id!r}, "
            f"not {config_id!r}"
        )
    module = make_module(config_id, serial=serial)
    cell = CellResult(
        config_id=config_id,
        attack=spec.name,
        technique=spec.technique,
        mitigation=mitigation,
        act_budget=int(act_budget),
        trefw_ns=module.timing.tREFW,
        expected_samples_per_round=spec.expected_samples_per_round,
    )

    reason = policy_rejection(mitigation, module, spec)
    if reason is not None:
        cell.blocked = True
        cell.blocked_reason = reason
        cell.notes.append(f"blocked at admission: {reason}")
        return cell

    seed = stable_seed("attack-gauntlet", config_id, spec.name, mitigation, serial)
    hook = build_hook(mitigation, module, seed=seed)
    module.attach_trr(hook)
    try:
        host = DramBenderHost(module)
        spec.initialize_rows(host)
        round_program = spec.build_round(module)
        start_ns = host.now_ns
        rounds = spec.rounds_for_budget(act_budget)
        for round_index in range(rounds):
            host.run(round_program)
            cell.rounds_run = round_index + 1
            if cell.first_flip_hammers is None and _damage_crossed(module, spec):
                cell.first_flip_hammers = cell.rounds_run * spec.hammers_per_round
                cell.first_flip_ns = host.now_ns - start_ns
                if stop_after_first_flip:
                    break
        cell.hammers_issued = cell.rounds_run * spec.hammers_per_round
        cell.acts_issued = cell.rounds_run * spec.acts_per_round
        cell.duration_ns = host.now_ns - start_ns
        cell.flips = spec.victim_flips(host)
    finally:
        module.attach_trr(None)

    stats = getattr(hook, "stats", None) or {}
    cell.targeted_refreshes = int(stats.get("targeted_refreshes", 0))
    cell.rfms = int(stats.get("rfms", 0))
    cell.stall_ns = float(stats.get("stall_ns", 0.0))
    if cell.flips and cell.first_flip_hammers is None:
        # flips materialized at read-back without the peek crossing 1.0
        # mid-run (possible right at the budget boundary)
        cell.first_flip_hammers = cell.hammers_issued
        cell.first_flip_ns = cell.duration_ns
    return cell


def run_gauntlet(
    config_id: str,
    act_budget: int,
    mitigations: Optional[Sequence[str]] = None,
    attacks: Optional[Sequence[str]] = None,
    serial: int = 0,
    simra_rows: int = 16,
) -> list[CellResult]:
    """The full (attack x mitigation) matrix for one module configuration.

    ``attacks`` / ``mitigations`` filter by name; unknown names raise
    ``KeyError`` so typos fail loudly rather than silently shrinking the
    matrix.
    """
    module = make_module(config_id, serial=serial)
    specs = synthesize_attacks(module, simra_rows=simra_rows)
    if attacks is not None:
        known = {spec.name: spec for spec in specs}
        missing = [name for name in attacks if name not in known]
        if missing:
            raise KeyError(
                f"unknown attacks {missing} for {config_id}; "
                f"known: {sorted(known)}"
            )
        specs = tuple(known[name] for name in attacks)
    chosen = tuple(mitigations) if mitigations is not None else MITIGATIONS
    unknown = [name for name in chosen if name not in MITIGATIONS]
    if unknown:
        raise KeyError(f"unknown mitigations {unknown}; known: {MITIGATIONS}")
    return [
        run_cell(config_id, spec, mitigation, act_budget, serial=serial)
        for spec in specs
        for mitigation in chosen
    ]
