"""Characterization session: one module on the test bench.

A :class:`CharacterizationSession` bundles a simulated module, the DRAM
Bender host, the temperature controller and the experiment scale, and
exposes HC_first measurement primitives for every access pattern in the
paper.  Experiments (:mod:`repro.experiments`) are thin sweeps over these
primitives.

Every ``measure_*`` primitive takes a list (victims, aggressors, row
pairs or SiMRA groups) and returns one result per entry; a single victim
is a batch of one, e.g. ``session.measure_rowhammer_ds([v])[0]``.  Every
call runs its HC_first searches through
:func:`repro.core.probe_batch.run_batched_searches`, bit-identical to
running the scalar search of :mod:`repro.core.hcfirst` on them one by
one (enforced by ``tests/core/test_probe_batch.py``).  The scalar search
is the tests' oracle; the engine exists purely to amortize probe replays
across victims, and refuses a setup it cannot prove equivalent with a
``ValueError`` naming the guard instead of falling back.

Every primitive measures its victims under their worst-case data pattern
(WCDP, §4.2) unless the caller passes one.  One place resolves it:
:meth:`CharacterizationSession._measure_requests` fills every request left
without a pattern before it builds a probe, through :meth:`_wcdps` --
one vectorized oracle pass per mechanism over the uncached victims in
``'oracle'`` mode, the paper's four-pattern comparison per request in
``'measured'`` mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..bender.environment import TemperatureController
from ..bender.program import COUNT, TestProgram
from ..disturbance.calibration import ALL_PATTERNS, DataPattern, Mechanism
from ..disturbance.distributions import rng_for
from ..dram.bank import SIMRA_BLOCK
from ..dram.errors import AddressError
from ..dram.module import DramModule
from . import patterns
from .hcfirst import ProbeSetup, standard_row_data
from .metrics import Measurement
from ..obs import NULL_OBS
from .probe_batch import run_batched_searches
from .scale import ExperimentScale


@dataclass(frozen=True)
class CombinedResult:
    """§6 combined-pattern outcome for one victim row."""

    victim: int
    hc_rowhammer: float
    hc_combined: float
    prefix_fractions: dict

    @property
    def reduction(self) -> float:
        """RowHammer-only HC_first over the combined RowHammer-phase count."""
        if self.hc_combined <= 0:
            return math.inf
        return self.hc_rowhammer / self.hc_combined


@dataclass
class _ProbeRequest:
    """One list entry of a ``measure_*`` call: its victims, aggressors,
    program template (its hammer loops run :data:`COUNT` times) and data
    pattern, reified so a whole list can run batched.

    A None ``pattern`` stands for the WCDP of ``victims[0]`` under
    ``mechanism``; :meth:`CharacterizationSession._measure_requests`
    resolves it.
    """

    victims: tuple
    aggressors: tuple
    program: TestProgram
    mechanism: Mechanism
    pattern: Optional[DataPattern]
    params: dict


class CharacterizationSession:
    """Measurement primitives for one module."""

    def __init__(
        self,
        module: DramModule,
        scale: Optional[ExperimentScale] = None,
        bank: int = 0,
        obs=None,
    ) -> None:
        self.module = module
        self.scale = scale or ExperimentScale.default()
        self.bank = bank
        #: metrics registry shared with the batched probe engine
        #: (per-probe path counters, stage timers); the default no-op
        #: registry records nothing
        self.obs = obs if obs is not None else NULL_OBS
        self.controller = TemperatureController(module)
        self.controller.hold(80.0)
        self._wcdp_cache: dict[tuple[int, Mechanism], DataPattern] = {}

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def set_temperature(self, celsius: float) -> None:
        self.controller.hold(celsius)

    @property
    def temperature_c(self) -> float:
        return self.module.temperature_c

    # ------------------------------------------------------------------
    # Row selection
    # ------------------------------------------------------------------
    def candidate_victims(self) -> list[int]:
        """Victim rows tested in this session (physical addresses).

        Mirrors §4.2: six subarrays per bank (here: ``scale.subarrays``),
        all rows within (here: every ``row_step``-th), excluding subarray
        edge rows that lack a same-subarray sandwich.
        """
        geometry = self.module.geometry
        victims: list[int] = []
        for subarray in self.scale.subarrays:
            if subarray >= geometry.subarrays_per_bank:
                continue
            rows = geometry.subarray_rows(subarray)
            for row in range(rows.start + 1, rows.stop - 1, self.scale.row_step):
                victims.append(row)
        # A full-row sweep would always cover the module's weakest rows;
        # the scaled subset includes them explicitly so population minima
        # stay meaningful at any row_step.
        for mechanism in (Mechanism.ROWHAMMER, Mechanism.COMRA):
            sentinel = self.module.model.sentinel_row(mechanism, self.bank)
            if sentinel is not None and sentinel not in victims:
                if 0 < sentinel < geometry.rows_per_bank - 1:
                    victims.append(sentinel)
        return sorted(victims)

    def simra_blocks(self) -> list[int]:
        """32-row-aligned block bases available for SiMRA group selection."""
        geometry = self.module.geometry
        bases: list[int] = []
        for subarray in self.scale.subarrays:
            if subarray >= geometry.subarrays_per_bank:
                continue
            rows = geometry.subarray_rows(subarray)
            bases.extend(range(rows.start, rows.stop, SIMRA_BLOCK))
        return bases

    def sample_simra_pairs(
        self, n_rows: int, include_sentinel: bool = True
    ) -> list[patterns.SimraAddressPair]:
        """Randomly sample ``scale.simra_groups`` double-sided groups per
        tested region.

        The paper samples 100 random groups per (subarray, N); group choice
        is deterministic per module so reruns test the same groups.
        ``include_sentinel=False`` drops the weakest-row group -- condition
        sweeps use it so one extreme row does not dominate scaled-down
        population means.
        """
        bases = self.simra_blocks()
        rng = rng_for(self.module.label, "simra-groups", n_rows, "double-sided")
        chosen = rng.choice(
            len(bases), size=min(self.scale.simra_groups, len(bases)), replace=False
        )
        pairs = []
        if include_sentinel and n_rows != 32:
            # Deterministically include the group sandwiching the module's
            # most vulnerable SiMRA victim: the scaled stand-in for the
            # paper's exhaustive 100-groups-per-subarray sampling, which
            # would cover it with near certainty.
            sentinel = self.module.model.sentinel_row(Mechanism.SIMRA, self.bank)
            if sentinel is not None:
                pair = patterns.simra_pair_sandwiching(
                    self.module, sentinel, n_rows, self.bank
                )
                if pair is not None:
                    pairs.append(pair)
        for index in sorted(int(i) for i in chosen):
            anchor = int(rng.integers(0, SIMRA_BLOCK))
            try:
                pairs.append(
                    patterns.simra_pair_for(
                        self.module, bases[index], n_rows, anchor_offset=anchor
                    )
                )
            except AddressError:
                continue
        return pairs

    # ------------------------------------------------------------------
    # WCDP
    # ------------------------------------------------------------------
    def wcdp(self, victim: int, mechanism: Mechanism) -> DataPattern:
        """Worst-case data pattern for a victim (§4.2).

        ``scale.wcdp_mode='oracle'`` consults the fault model;
        ``'measured'`` runs the paper's four-pattern HC_first comparison.
        """
        return self._wcdps([(victim, mechanism)])[0]

    def _wcdps(
        self, keys: Sequence[tuple[int, Mechanism]]
    ) -> list[DataPattern]:
        """WCDP per ``(victim, mechanism)`` key, in order.

        ``'oracle'`` mode resolves each mechanism's uncached victims in
        one :meth:`prefetch_wcdp` pass and reads the cache; ``'measured'``
        mode runs :meth:`measure_wcdp` per key, in list order.
        """
        if self.scale.wcdp_mode != "oracle":
            return [self.measure_wcdp(v, mechanism) for v, mechanism in keys]
        misses: dict[Mechanism, list[int]] = {}
        for key in keys:
            if key not in self._wcdp_cache:
                misses.setdefault(key[1], []).append(key[0])
        for mechanism, victims in misses.items():
            self.prefetch_wcdp(victims, mechanism)
        return [self._wcdp_cache[key] for key in keys]

    def prefetch_wcdp(
        self, victims: Sequence[int], mechanism: Mechanism
    ) -> None:
        """Resolve many victims' oracle WCDPs in one vectorized pass into
        the session cache.  No-op in ``'measured'`` mode, where WCDP comes
        from real HC_first searches.
        """
        if self.scale.wcdp_mode != "oracle":
            return
        pending = [
            v for v in victims if (v, mechanism) not in self._wcdp_cache
        ]
        if not pending:
            return
        best = self.module.model.worst_case_patterns(
            self.bank, pending, mechanism
        )
        for victim, pattern in zip(pending, best):
            self._wcdp_cache[(victim, mechanism)] = pattern

    def rank_victims(
        self, victims: Sequence[int], mechanism: Mechanism
    ) -> list[int]:
        """Victims ordered weakest first by the vectorized HC_first oracle.

        Lets scaled-down experiments spend their measurement budget on the
        most vulnerable rows (the ones the paper's exhaustive sweeps would
        report) instead of an arbitrary prefix of the candidate list.
        Ties keep the input order (stable sort); SiMRA ranks at 4 rows.
        """
        victims = list(victims)
        if not victims:
            return []
        hc = self.module.model.reference_hcfirst_array(
            self.bank, victims, mechanism
        )
        order = np.argsort(hc, kind="stable")
        return [victims[int(i)] for i in order]

    def measure_wcdp(self, victim: int, mechanism: Mechanism) -> DataPattern:
        """Measure WCDP the way the paper does: four coarse searches,
        one per data pattern, run as one call, each hammering a
        double-sided sandwich of ``victim``.  A victim without one (a
        subarray edge row, or no SiMRA-2 pair) gets ``ALL_PATTERNS[0]``
        (EXPERIMENTS.md says why)."""
        request = None
        if mechanism is Mechanism.SIMRA:
            pair = self._pair_sandwiching(victim)
            if pair is not None:
                request = self._simra_ds_request(pair, victims=(victim,))
        elif len(self.module.geometry.neighbors(victim, 1)) == 2:
            if mechanism is Mechanism.COMRA:
                request = self._comra_ds_request(victim)
            else:
                request = self._rowhammer_ds_request(victim)
        if request is None:
            return ALL_PATTERNS[0]
        groups = self._measure_requests(
            [replace(request, pattern=p) for p in ALL_PATTERNS]
        )
        best_pattern = ALL_PATTERNS[0]
        best_hc = math.inf
        for pattern, (m,) in zip(ALL_PATTERNS, groups):
            if m.found and m.hc_first < best_hc:
                best_hc = m.hc_first
                best_pattern = pattern
        return best_pattern

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def _setup_for(self, request: _ProbeRequest, victim: int) -> ProbeSetup:
        row_data = standard_row_data(
            self.module, request.aggressors, [victim], request.pattern
        )
        return ProbeSetup(
            module=self.module,
            program=request.program,
            row_data=row_data,
            victims=[victim],
            bank=self.bank,
        )

    def _wrap(self, request: _ProbeRequest, victim: int, outcome) -> Measurement:
        return Measurement(
            module_label=self.module.label,
            vendor=self.module.vendor.value,
            bank=self.bank,
            victim=victim,
            mechanism=request.mechanism,
            hc_first=outcome.hc_first if outcome.found else None,
            region=self.module.geometry.region_of_row(victim),
            pattern=request.pattern,
            temperature_c=self.temperature_c,
            params=dict(request.params),
        )

    def _measure_requests(
        self, requests: Sequence[Optional[_ProbeRequest]]
    ) -> list[list[Measurement]]:
        """Run requests and group the Measurements back per request.

        A None request (nothing measurable) yields an empty group.  Every
        request without a data pattern first gets its first victim's WCDP
        (:meth:`_wcdps`, the session's one WCDP resolution point).  The
        flattened (request, victim) searches then all run through the
        batched probe engine in one call.
        """
        pending = [r for r in requests if r is not None and r.pattern is None]
        resolved = self._wcdps([(r.victims[0], r.mechanism) for r in pending])
        for request, pattern in zip(pending, resolved):
            request.pattern = pattern
        flat = [
            (index, victim)
            for index, request in enumerate(requests)
            if request is not None
            for victim in request.victims
        ]
        setups = [
            self._setup_for(requests[index], victim) for index, victim in flat
        ]
        outcomes = run_batched_searches(
            setups,
            repeats=self.scale.repeats,
            max_hammers=self.scale.max_hammers,
            obs=self.obs,
        )
        results: list[list[Measurement]] = [[] for _ in requests]
        for (index, victim), outcome in zip(flat, outcomes):
            results[index].append(self._wrap(requests[index], victim, outcome))
        return results

    # -- RowHammer / RowPress -------------------------------------------
    def _rowhammer_ds_request(
        self,
        victim: int,
        pattern: Optional[DataPattern] = None,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
    ) -> _ProbeRequest:
        program = patterns.double_sided_rowhammer(
            self.module, victim, COUNT, bank=self.bank, t_agg_on_ns=t_agg_on_ns
        )
        return _ProbeRequest(
            (victim,), (victim - 1, victim + 1), program,
            Mechanism.ROWHAMMER, pattern,
            dict(t_agg_on_ns=t_agg_on_ns, sided="double"),
        )

    def measure_rowhammer_ds(
        self,
        victims: Sequence[int],
        pattern: Optional[DataPattern] = None,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
    ) -> list[Measurement]:
        """Double-sided RowHammer: one Measurement per victim."""
        requests = [
            self._rowhammer_ds_request(v, pattern, t_agg_on_ns) for v in victims
        ]
        return [g[0] for g in self._measure_requests(requests)]

    def measure_rowhammer_ss(
        self, aggressors: Sequence[int]
    ) -> list[list[Measurement]]:
        """Single-sided RowHammer at nominal tAggON; per aggressor, each
        adjacent victim."""
        requests = []
        for aggressor in aggressors:
            requests.append(_ProbeRequest(
                tuple(self.module.geometry.neighbors(aggressor, 1)),
                (aggressor,),
                patterns.single_sided_rowhammer(
                    self.module, aggressor, COUNT, bank=self.bank
                ),
                Mechanism.ROWHAMMER, None,
                dict(t_agg_on_ns=patterns.T_AGG_ON_NOMINAL_NS, sided="single"),
            ))
        return self._measure_requests(requests)

    def measure_far_ds_rowhammer(
        self, row_pairs: Sequence[tuple[int, int]]
    ) -> list[list[Measurement]]:
        """Fig. 7's control: two distant aggressors at nominal timing, per
        (row_a, row_b) pair the victims adjacent to ``row_a``."""
        requests = []
        for row_a, row_b in row_pairs:
            requests.append(_ProbeRequest(
                tuple(self.module.geometry.neighbors(row_a, 1)),
                (row_a, row_b),
                patterns.far_double_sided_rowhammer(
                    self.module, row_a, row_b, COUNT, bank=self.bank
                ),
                Mechanism.ROWHAMMER, None,
                dict(sided="far-double"),
            ))
        return self._measure_requests(requests)

    # -- CoMRA ------------------------------------------------------------
    def _comra_ds_request(
        self,
        victim: int,
        pattern: Optional[DataPattern] = None,
        pre_to_act_ns: float = patterns.COMRA_DELAY_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        reverse: bool = False,
    ) -> _ProbeRequest:
        program = patterns.double_sided_comra(
            self.module, victim, COUNT, bank=self.bank,
            pre_to_act_ns=pre_to_act_ns, t_agg_on_ns=t_agg_on_ns,
            reverse=reverse,
        )
        return _ProbeRequest(
            (victim,), (victim - 1, victim + 1), program,
            Mechanism.COMRA, pattern,
            dict(pre_to_act_ns=pre_to_act_ns, t_agg_on_ns=t_agg_on_ns,
                 reverse=reverse, sided="double"),
        )

    def measure_comra_ds(
        self,
        victims: Sequence[int],
        pattern: Optional[DataPattern] = None,
        pre_to_act_ns: float = patterns.COMRA_DELAY_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        reverse: bool = False,
    ) -> list[Measurement]:
        """Double-sided CoMRA: one Measurement per victim."""
        requests = [
            self._comra_ds_request(v, pattern, pre_to_act_ns, t_agg_on_ns, reverse)
            for v in victims
        ]
        return [g[0] for g in self._measure_requests(requests)]

    def measure_comra_ss(
        self,
        row_pairs: Sequence[tuple[int, int]],
        victims: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> list[list[Measurement]]:
        """Single-sided CoMRA at the nominal violated PRE->ACT delay over
        (src, dst) pairs.

        ``victims`` optionally pins the measured victims per pair (parallel
        to ``row_pairs``; None entries fall back to ``src``'s neighbors).
        """
        row_pairs = list(row_pairs)
        if victims is None:
            victims = [None] * len(row_pairs)
        requests = []
        for (src, dst), chosen in zip(row_pairs, victims):
            if chosen is None:
                chosen = self.module.geometry.neighbors(src, 1)
            requests.append(_ProbeRequest(
                tuple(chosen), (src, dst),
                patterns.single_sided_comra(
                    self.module, src, dst, COUNT, bank=self.bank
                ),
                Mechanism.COMRA, None,
                dict(pre_to_act_ns=patterns.COMRA_DELAY_NS, sided="single"),
            ))
        return self._measure_requests(requests)

    # -- SiMRA ------------------------------------------------------------
    def _simra_ds_request(
        self,
        pair: patterns.SimraAddressPair,
        pattern: Optional[DataPattern] = None,
        victims: Optional[Sequence[int]] = None,
        act_to_pre_ns: float = patterns.SIMRA_ACT_TO_PRE_NS,
        pre_to_act_ns: float = patterns.SIMRA_PRE_TO_ACT_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        max_victims: int = 3,
    ) -> Optional[_ProbeRequest]:
        all_victims = pair.sandwiched_victims()
        if victims is None:
            chosen = list(all_victims[:max_victims])
            sentinel = self.module.model.sentinel_row(Mechanism.SIMRA, self.bank)
            if sentinel in all_victims and sentinel not in chosen:
                # keep the scaled victim subset representative of the full
                # sweep, which would always cover the weakest row
                chosen[-1] = sentinel
            victims = tuple(chosen)
        if not victims:
            return None
        program = patterns.simra_hammer(
            self.module, pair, COUNT, bank=self.bank,
            act_to_pre_ns=act_to_pre_ns, pre_to_act_ns=pre_to_act_ns,
            t_agg_on_ns=t_agg_on_ns,
        )
        return _ProbeRequest(
            tuple(victims), tuple(pair.group), program,
            Mechanism.SIMRA, pattern,
            dict(n_rows=pair.count, act_to_pre_ns=act_to_pre_ns,
                 pre_to_act_ns=pre_to_act_ns, t_agg_on_ns=t_agg_on_ns,
                 sided="double"),
        )

    def measure_simra_ds(
        self,
        pairs: Sequence[patterns.SimraAddressPair],
        pattern: Optional[DataPattern] = None,
        victims: Optional[Sequence[Optional[Sequence[int]]]] = None,
        act_to_pre_ns: float = patterns.SIMRA_ACT_TO_PRE_NS,
        pre_to_act_ns: float = patterns.SIMRA_PRE_TO_ACT_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        max_victims: int = 3,
    ) -> list[list[Measurement]]:
        """Double-sided SiMRA: HC_first of the sandwiched victims per group.

        ``victims`` optionally pins the measured victims per group
        (parallel to ``pairs``; None entries take up to ``max_victims`` of
        the sandwiched rows).  A group with no victim yields an empty list
        in its slot.
        """
        pairs = list(pairs)
        if victims is None:
            victims = [None] * len(pairs)
        return self._measure_requests([
            self._simra_ds_request(
                pair, pattern, chosen, act_to_pre_ns, pre_to_act_ns,
                t_agg_on_ns, max_victims,
            )
            for pair, chosen in zip(pairs, victims)
        ])

    def measure_simra_ss(
        self, pairs: Sequence[patterns.SimraAddressPair]
    ) -> list[list[Measurement]]:
        """Single-sided SiMRA at the nominal violated delays: per group,
        the victims bordering it.

        A group with no measurable edge victim yields an empty list in its
        slot.
        """
        geometry = self.module.geometry
        requests: list[Optional[_ProbeRequest]] = []
        for pair in pairs:
            low, high = min(pair.group), max(pair.group)
            edge_victims = tuple(
                candidate for candidate in (low - 1, high + 1)
                if 0 <= candidate < geometry.rows_per_bank
                and geometry.same_subarray(candidate, low)
                and candidate not in pair.group
            )
            if not edge_victims:
                requests.append(None)
                continue
            requests.append(_ProbeRequest(
                edge_victims, tuple(pair.group),
                patterns.simra_hammer(self.module, pair, COUNT, bank=self.bank),
                Mechanism.SIMRA, None,
                dict(n_rows=pair.count, sided="single",
                     act_to_pre_ns=patterns.SIMRA_ACT_TO_PRE_NS,
                     pre_to_act_ns=patterns.SIMRA_PRE_TO_ACT_NS),
            ))
        return self._measure_requests(requests)

    # -- §6 combined patterns ----------------------------------------------
    def _pair_sandwiching(
        self, victim: int
    ) -> Optional[patterns.SimraAddressPair]:
        """A SiMRA-2 pair whose activated rows sandwich ``victim``."""
        return patterns.simra_pair_sandwiching(self.module, victim, 2, self.bank)

    def combined_victims(self) -> list[int]:
        """Candidate victims usable for every §6 phase (RH, CoMRA, SiMRA-2).

        SiMRA-2 pairs require the victim's neighbors to differ in address
        bit 1 within one 32-row block, i.e. victims at offset 1 (mod 4).
        """
        return [
            victim
            for victim in self.candidate_victims()
            if self._pair_sandwiching(victim) is not None
        ]

    def measure_combined(
        self,
        victims: Sequence[int],
        comra_fraction: float = 0.0,
        simra_fraction: float = 0.0,
    ) -> list[Optional[CombinedResult]]:
        """§6 procedure: pre-hammer with CoMRA/SiMRA, finish with RowHammer.

        Every phase writes each victim's RowHammer WCDP.  Stage-decomposed:
        all RowHammer-alone searches run as one batch, then the CoMRA /
        SiMRA characterization phases over the victims that survive each
        stage's found-guard, then the combined searches.  A victim's slot
        is None when a needed phase has no measurable HC_first.
        """
        victims = list(victims)
        resolved = dict(zip(
            victims, self._wcdps([(v, Mechanism.ROWHAMMER) for v in victims])
        ))
        results: dict[int, Optional[CombinedResult]] = {v: None for v in victims}

        rh_requests = [
            self._rowhammer_ds_request(v, pattern=resolved[v]) for v in victims
        ]
        measured = self._measure_requests(rh_requests)
        rh = {v: group[0] for v, group in zip(victims, measured)}
        alive = [v for v in victims if rh[v].found]

        comra_hc: dict[int, float] = {}
        if comra_fraction > 0 and alive:
            requests = [
                self._comra_ds_request(v, pattern=resolved[v]) for v in alive
            ]
            measured = self._measure_requests(requests)
            survivors = []
            for v, group in zip(alive, measured):
                if group[0].found:
                    comra_hc[v] = group[0].hc_first
                    survivors.append(v)
            alive = survivors

        simra_hc: dict[int, float] = {}
        simra_pairs: dict[int, patterns.SimraAddressPair] = {}
        if simra_fraction > 0 and alive:
            with_pair = []
            requests = []
            for v in alive:
                pair = self._pair_sandwiching(v)
                if pair is None:
                    continue
                request = self._simra_ds_request(
                    pair, pattern=resolved[v], victims=(v,)
                )
                if request is None:
                    continue
                simra_pairs[v] = pair
                with_pair.append(v)
                requests.append(request)
            measured = self._measure_requests(requests)
            alive = []
            for v, group in zip(with_pair, measured):
                if group and group[0].found:
                    simra_hc[v] = group[0].hc_first
                    alive.append(v)

        final_requests = []
        final_meta = []
        for v in alive:
            program = TestProgram(name="combined")
            fractions: dict[str, float] = {}
            if comra_fraction > 0:
                count = max(1, int(comra_fraction * comra_hc[v] * 0.999))
                program.instructions += patterns.double_sided_comra(
                    self.module, v, count, bank=self.bank
                ).instructions
                fractions["comra"] = comra_fraction
            if simra_fraction > 0:
                count = max(1, int(simra_fraction * simra_hc[v] * 0.999))
                program.instructions += patterns.simra_hammer(
                    self.module, simra_pairs[v], count, bank=self.bank
                ).instructions
                fractions["simra"] = simra_fraction
            program.instructions += patterns.double_sided_rowhammer(
                self.module, v, COUNT, bank=self.bank
            ).instructions
            final_requests.append(_ProbeRequest(
                (v,), (v - 1, v + 1), program,
                Mechanism.ROWHAMMER, resolved[v], {},
            ))
            final_meta.append((v, fractions))
        measured = self._measure_requests(final_requests)
        for (v, fractions), group in zip(final_meta, measured):
            outcome = group[0]
            if outcome.found:
                results[v] = CombinedResult(
                    victim=v,
                    hc_rowhammer=float(rh[v].hc_first),
                    hc_combined=float(outcome.hc_first),
                    prefix_fractions=fractions,
                )
        return [results[v] for v in victims]
