"""Event-driven memory-system simulator for the §8.2 evaluation.

A deliberately Ramulator-shaped model: trace-driven cores issue requests
into per-bank queues; an FR-FCFS+Cap scheduler serves them with DDR5-like
service times; a PuD "core" injects SiMRA-32 + CoMRA operation pairs; PRAC
counters observe every row activation and assert back-off, which stalls
the channel while the RFM's preventive refreshes run.

The run loop is a single global event heap -- core-ready, bank-free,
PuD-arrival, and stall-release events -- so idle banks and MLP-blocked
cores are never scanned.  It runs in C (``eventloop.c``, built and
loaded by :mod:`.kernel`); this module fills its inputs and reads its
results.  The loop visits exactly the time points the original scan
loop visited and runs the same phase order within each -- inject cores
in id order, deliver PuD arrivals, schedule free banks in index order
under one snapshotted issue floor, then retire due completions -- so
fixed-seed ``SimResult``s are bit-identical to it (see
``tests/memsys/golden_simresults.json``).  The scan loop and the Python
event loop the kernel was ported from live on in ``tests/memsys`` as
differential oracles.  Three facts keep the per-request work small:

* **Trace tapes.**  Cores read packed :class:`TraceTape` records through
  private cursors, so the Fig. 25 sweep generates each mix's four
  ``(profile, seed)`` streams once and replays them in all of the mix's
  runs (:func:`mix_tapes`).  The kernel reads each tape's buffer in
  place and hands back to Python to :meth:`TraceTape.grow` it.
* **FIFO bank queues.**  The scan loop picks by ``min()`` over
  ``(issue_ns, seq)``.  Every request enters its bank queue at the visit
  time ``now``: CPU requests are issued at ``now``, and a PuD arrival is
  issued at ``pud_next``, which equals ``now`` whenever one is issued
  because each arrival time is itself a PuD heap event.  ``now`` never
  decreases and ``seq`` grows with insertion, so insertion order *is*
  ``(issue_ns, seq)`` order: each bank keeps one FIFO queue, and the
  FR-FCFS pick is the first open-row hit, else the head.
* **Completions ride the bank-free event.**  A CPU request finishes at
  its bank's ``busy_until``, where a bank-free event is already queued,
  and a bank serves one request at a time; the read in service is
  stashed on the bank and delivered when that event pops.  Delivery
  order within a visit cannot matter: every delivery decrements its
  core's ``outstanding``, and the first one to a blocked core clears
  ``blocked`` and either pushes the core's ready event or sets its
  revive bit -- the same end state whichever of a core's reads comes
  first.  Heap entries are totally ordered ``(time, kind, payload)``
  tuples, so pops do not depend on push order either.

The simulator is event-driven at request granularity rather than
cycle-by-cycle: service times fold the relevant DDR timings (row hit /
miss / conflict) into per-request latencies.  That preserves exactly the
effects Fig. 25 measures -- queueing, bank blocking from PuD ops and
counter updates, and channel stalls from back-off.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from time import perf_counter
from typing import Optional, Sequence

from . import kernel
from ..mitigations.prac import OpClass, PracConfig
from ..obs import NULL_OBS
from ..workloads.fast_traces import TraceTape
from ..workloads.mixes import PudWorkloadConfig, WorkloadMix
from ..workloads.profiles import WorkloadProfile
from ..workloads.traces import ROWS_PER_BANK


@dataclass
class MemSysConfig:
    """Service-time and system parameters (DDR5-4800-flavored)."""

    banks: int = 8
    #: row-buffer hit service (CL + burst), ns
    t_hit_ns: float = 17.0
    #: closed-bank service (RCD + CL + burst), ns
    t_miss_ns: float = 31.0
    #: row-conflict service (RP + RCD + CL + burst), ns
    t_conflict_ns: float = 45.0
    #: one SiMRA op occupies the bank about one tRC
    t_simra_ns: float = 48.0
    #: one CoMRA copy cycle: two activations' worth
    t_comra_ns: float = 96.0
    #: channel-wide stall when back-off forces an RFM (ABO + targeted
    #: refreshes of the tripping rows' victims)
    t_backoff_ns: float = 900.0
    #: in-order core with this peak IPC (instructions per ns)
    peak_ipc: float = 4.0
    #: max outstanding reads per core
    mlp: int = 4
    #: FR-FCFS row-hit streak cap
    frfcfs_cap: int = 4
    #: simulated time horizon, ns
    horizon_ns: float = 300_000.0


@dataclass
class SimResult:
    """Outcome of one memory-system simulation."""

    ipc_per_core: list[float]
    pud_ops_completed: int
    backoffs: int
    elapsed_ns: float
    requests_served: int

    def weighted_speedup(self, alone_ipc: list[float]) -> float:
        total = 0.0
        for shared, alone in zip(self.ipc_per_core, alone_ipc):
            if alone > 0:
                total += shared / alone
        return total


def mix_tapes(mix: WorkloadMix, seed: int = 0) -> list[TraceTape]:
    """One trace tape per core of ``mix``, as ``MemorySystem(seed=seed)``
    reads them (core ``i`` replays stream ``seed * 101 + i``)."""
    return [
        TraceTape(profile, seed=seed * 101 + i)
        for i, profile in enumerate(mix.profiles)
    ]


class MemorySystem:
    """The five-core shared memory system of Fig. 25.

    ``tapes`` lets several systems over the same mix and seed replay one
    set of trace tapes (see :func:`mix_tapes`); without it the system
    records private ones.
    """

    def __init__(
        self,
        mix: WorkloadMix,
        pud: Optional[PudWorkloadConfig],
        prac: Optional[PracConfig],
        config: Optional[MemSysConfig] = None,
        seed: int = 0,
        obs=None,
        tapes: Optional[Sequence[TraceTape]] = None,
    ) -> None:
        self.config = config or MemSysConfig()
        self.mix = mix
        self.pud = pud
        self.prac = prac
        #: metrics registry; the simulator records one span plus its final
        #: counters per :meth:`run` -- never anything inside the event loop
        self.obs = obs if obs is not None else NULL_OBS
        if tapes is None:
            tapes = mix_tapes(mix, seed)
        elif [(tape.profile, tape.seed) for tape in tapes] != [
            (profile, seed * 101 + i) for i, profile in enumerate(mix.profiles)
        ]:
            raise ValueError("tapes do not record this mix's trace streams")
        self.tapes = list(tapes)
        banks = self.config.banks
        if not 1 <= banks <= kernel.MAX_UNITS:
            raise ValueError(f"banks must be 1..{kernel.MAX_UNITS}, not {banks}")
        if len(self.tapes) > kernel.MAX_UNITS:
            raise ValueError(
                f"at most {kernel.MAX_UNITS} cores, not {len(self.tapes)}"
            )
        if pud is not None and not (
            0 <= pud.target_bank < banks and pud.period_ns > 0
            and 0 <= pud.simra_rows <= ROWS_PER_BANK
        ):
            raise ValueError(
                f"PuD ops need a bank below {banks}, a positive period and "
                f"0..{ROWS_PER_BANK} SiMRA rows"
            )
        self.stats = {"backoffs": 0, "pud_ops": 0, "requests": 0}

    def run(self) -> SimResult:
        t_wall = perf_counter() if self.obs.enabled else 0.0
        config = self.config
        pud = self.pud
        prac = self.prac
        sim = kernel.Sim(
            horizon_ns=config.horizon_ns,
            peak_ipc=config.peak_ipc,
            t_hit_ns=config.t_hit_ns,
            t_miss_ns=config.t_miss_ns,
            t_conflict_ns=config.t_conflict_ns,
            t_backoff_ns=config.t_backoff_ns,
            t_pud_ns=config.t_simra_ns + config.t_comra_ns,
            mlp=config.mlp,
            frfcfs_cap=config.frfcfs_cap,
            n_banks=config.banks,
            n_cores=len(self.tapes),
            counter_rows=ROWS_PER_BANK,
        )
        if pud is not None:
            sim.has_pud = 1
            sim.pud_period_ns = pud.period_ns
            sim.pud_bank = pud.target_bank
            sim.pud_rows = pud.simra_rows
        if prac is not None:
            sim.has_prac = 1
            sim.rdt = prac.rdt
            sim.act_weight = prac.weight_for(OpClass.ACT)
            sim.simra_weight = prac.weight_for(OpClass.SIMRA)
            sim.comra_weight = prac.weight_for(OpClass.COMRA)
            if pud is not None:
                sim.simra_latency_ns = prac.update_latency_ns(pud.simra_rows)
                # the CoMRA half activates two rows (COMRA_ROWS in the C)
                sim.comra_latency_ns = prac.update_latency_ns(2)
        kernel.simulate(sim, self.tapes)
        stats = self.stats
        stats["requests"] = sim.requests
        stats["pud_ops"] = sim.pud_ops
        stats["backoffs"] = sim.backoffs
        obs = self.obs
        if obs.enabled:
            obs.observe_s("memsys.run_s", perf_counter() - t_wall)
            obs.inc("memsys.requests", sim.requests)
            obs.inc("memsys.requests_served", sim.served)
            obs.inc("memsys.pud_ops", sim.pud_ops)
            obs.inc("memsys.backoffs", sim.backoffs)
        elapsed = max(config.horizon_ns, 1.0)
        return SimResult(
            ipc_per_core=[
                sim.retired[i] / elapsed for i in range(len(self.tapes))
            ],
            pud_ops_completed=sim.pud_ops,
            backoffs=sim.backoffs,
            elapsed_ns=elapsed,
            requests_served=sim.served,
        )


#: shared alone-IPC results, keyed (profile, config fields, seed);
#: also used by Fig25Evaluation, which previously kept its own copy
_ALONE_IPC_CACHE: dict[tuple, float] = {}


def alone_ipc(
    profile: WorkloadProfile,
    config: Optional[MemSysConfig] = None,
    seed: int = 0,
) -> float:
    """IPC of one workload running alone, no PuD traffic, no mitigation."""
    config = config or MemSysConfig()
    key = (profile, astuple(config), seed)
    cached = _ALONE_IPC_CACHE.get(key)
    if cached is None:
        mix = WorkloadMix(mix_id=-1, profiles=(profile,))
        system = MemorySystem(mix, pud=None, prac=None, config=config, seed=seed)
        cached = system.run().ipc_per_core[0]
        _ALONE_IPC_CACHE[key] = cached
    return cached
