"""Event-driven memory-system simulator for the §8.2 evaluation.

A deliberately Ramulator-shaped model: trace-driven cores issue requests
into per-bank queues; an FR-FCFS+Cap scheduler serves them with DDR5-like
service times; a PuD "core" injects SiMRA-32 + CoMRA operation pairs; PRAC
counters observe every row activation and assert back-off, which stalls
the channel while the RFM's preventive refreshes run.

The run loop is a single global event heap -- core-ready, bank-free,
PuD-arrival, and stall-release events -- so idle banks and MLP-blocked
cores are never scanned.  The event engine visits exactly the time
points the original scan loop visited (kept in :mod:`.reference` as
``ScanLoopMemorySystem``) and runs the same phase order within each --
inject cores in id order, deliver PuD arrivals, schedule free banks in
index order under one snapshotted issue floor, then retire due
completions -- so fixed-seed ``SimResult``s are bit-identical (see
``tests/memsys/golden_simresults.json``).  Three facts keep the
per-request work small:

* **Trace tapes.**  Cores read packed :class:`TraceTape` records through
  private cursors, so the Fig. 25 sweep generates each mix's four
  ``(profile, seed)`` streams once and replays them in all of the mix's
  runs (:func:`mix_tapes`).
* **FIFO bank queues.**  The scan loop picks by ``min()`` over
  ``(issue_ns, seq)``.  Every request enters its bank queue at the visit
  time ``now``: CPU requests are issued at ``now``, and a PuD arrival is
  issued at ``pud_next``, which equals ``now`` whenever one is issued
  because each arrival time is itself a PuD heap event.  ``now`` never
  decreases and ``seq`` grows with insertion, so insertion order *is*
  ``(issue_ns, seq)`` order: each bank keeps one ``deque`` of plain
  tuples, and the FR-FCFS pick is the first open-row hit, else the head.
* **Completions ride the bank-free event.**  A CPU request finishes at
  its bank's ``busy_until``, where a bank-free event is already queued,
  and a bank serves one request at a time; the read in service is
  stashed on the bank and delivered when that event pops.  Delivery
  order within a visit cannot matter: every delivery decrements its
  core's ``outstanding``, and the first one to a blocked core clears
  ``blocked`` and either pushes the core's ready event or sets its
  revive bit -- the same end state whichever of a core's reads comes
  first.  Heap entries are totally ordered tuples, so pops do not depend
  on push order either.

The simulator is event-driven at request granularity rather than
cycle-by-cycle: service times fold the relevant DDR timings (row hit /
miss / conflict) into per-request latencies.  That preserves exactly the
effects Fig. 25 measures -- queueing, bank blocking from PuD ops and
counter updates, and channel stalls from back-off -- at a cost Python can
afford.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import astuple, dataclass
from time import perf_counter
from typing import Optional, Sequence

from ..mitigations.prac import OpClass, PracConfig, PracCounters
from ..obs import NULL_OBS
from ..workloads.fast_traces import (
    BANK_MASK,
    BANK_SHIFT,
    GAP_SHIFT,
    ROW_MASK,
    ROW_SHIFT,
    TraceTape,
)
from ..workloads.mixes import PudWorkloadConfig, WorkloadMix
from ..workloads.profiles import WorkloadProfile


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


class _Core:
    """In-order trace-driven core with bounded memory-level parallelism.

    The core reads its trace from a :class:`TraceTape` through its own
    cursor ``pos``.
    """

    __slots__ = (
        "core_id", "tape", "pos", "outstanding", "next_ready_ns",
        "retired_instructions", "blocked",
    )

    def __init__(self, core_id: int, tape: TraceTape) -> None:
        self.core_id = core_id
        self.tape = tape
        self.pos = 0
        self.outstanding = 0
        self.next_ready_ns = 0.0
        self.retired_instructions = 0.0
        self.blocked = False


def _make_counters(
    prac: Optional[PracConfig], banks: int
) -> Optional[list[PracCounters]]:
    if prac is None:
        return None
    return [PracCounters(i, prac, warm_start=True) for i in range(banks)]


#: the queue entry of a PuD operation pair: (core, row, is_write, is_pud)
_PUD_REQUEST = (-1, -1, True, True)


class _Bank:
    """One bank: open-row state, FIFO request queue, busy window.

    ``queue`` holds ``(core, row, is_write, is_pud)`` tuples in arrival
    order, which is also ``(issue_ns, seq)`` order (see the module
    docstring), so the FR-FCFS pick is the first open-row hit, else the
    head.  ``inflight`` is the core id of the CPU read in service, or -1;
    it is delivered when the bank-free event at ``busy_until`` pops.
    """

    __slots__ = ("index", "open_row", "busy_until", "hit_streak", "queue",
                 "inflight")

    def __init__(self, index: int) -> None:
        self.index = index
        self.open_row: Optional[int] = None
        self.busy_until = 0.0
        self.hit_streak = 0
        self.queue: deque[tuple[int, int, bool, bool]] = deque()
        self.inflight = -1


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


#: event kinds on the global heap (the int doubles as a same-time
#: tiebreaker for heap entries; visits pop all entries at one time point
#: before running the phases, so the order among kinds is irrelevant)
_EV_CORE = 0
_EV_PUD = 1
_EV_BANK = 2
_EV_STALL = 3


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
        #: metrics registry; the simulator records one span plus its final
        #: counters per :meth:`run` -- never anything inside the event loop
        self.obs = obs if obs is not None else NULL_OBS
        if tapes is None:
            tapes = mix_tapes(mix, seed)
        elif [(tape.profile, tape.seed) for tape in tapes] != [
            (profile, seed * 101 + i) for i, profile in enumerate(mix.profiles)
        ]:
            raise ValueError("tapes do not record this mix's trace streams")
        self.cores = [_Core(i, tape) for i, tape in enumerate(tapes)]
        self.banks = [_Bank(i) for i in range(self.config.banks)]
        self.counters = _make_counters(prac, self.config.banks)
        self.channel_stall_until = 0.0
        self.stats = {"backoffs": 0, "pud_ops": 0, "requests": 0}
        self._heap: list[tuple[float, int, int]] = []

    # ------------------------------------------------------------------
    def _record_activation(
        self, bank: int, rows: list[int], op: OpClass, now_ns: float
    ) -> float:
        """Update PRAC counters; returns extra blocking latency."""
        if self.counters is None:
            return 0.0
        counters = self.counters[bank]
        extra = counters.record(rows, op)
        if counters.back_off_pending is not None:
            # Back-off stalls the whole channel while the RFM's preventive
            # refreshes run (DDR5 ABO semantics).
            release = now_ns + self.config.t_backoff_ns
            if release > self.channel_stall_until:
                self.channel_stall_until = release
                heapq.heappush(self._heap, (release, _EV_STALL, 0))
            counters.serve_rfm()
            self.stats["backoffs"] += 1
        return extra

    def _serve_pud_op(self, bank: _Bank, now_ns: float) -> float:
        """One SiMRA-32 + one CoMRA pair on the PuD bank."""
        config = self.config
        assert self.pud is not None
        simra_rows = list(range(self.pud.simra_rows))
        comra_rows = [40, 42]
        extra = self._record_activation(bank.index, simra_rows, OpClass.SIMRA, now_ns)
        extra += self._record_activation(bank.index, comra_rows, OpClass.COMRA, now_ns)
        bank.open_row = None  # SiMRA is destructive; bank precharged after
        bank.hit_streak = 0
        self.stats["pud_ops"] += 1
        return config.t_simra_ns + config.t_comra_ns + extra

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        # The loop body is deliberately inlined and alias-heavy: it is the
        # hot path of the Fig. 25 sweep (hundreds of runs), and attribute
        # lookups / tiny method calls dominate otherwise.  Visit sets are
        # int bitmasks (cores and banks are single-digit counts), walked
        # lowest-bit-first, which yields id order for free.
        t_wall = perf_counter() if self.obs.enabled else 0.0
        config = self.config
        horizon = config.horizon_ns
        frfcfs_cap = config.frfcfs_cap
        peak_ipc = config.peak_ipc
        mlp = config.mlp
        n_banks = config.banks
        t_hit = config.t_hit_ns
        t_miss = config.t_miss_ns
        t_conflict = config.t_conflict_ns
        t_backoff = config.t_backoff_ns
        counters = self.counters
        cores = self.cores
        banks = self.banks
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        served = 0
        requests = 0
        pud = self.pud
        pud_next = 0.0 if pud is not None else float("inf")
        pud_queue = 0
        #: core ids of CPU reads whose bank freed at `now` (phase 4 input)
        done: list[int] = []
        #: banks known free with queued requests, scheduled next visit
        ready_mask = 0
        #: cores MLP-unblocked mid-visit; they inject at the *next* visit
        revived_mask = 0

        for core in cores:
            heappush(heap, (0.0, _EV_CORE, core.core_id))
        if pud is not None:
            heappush(heap, (0.0, _EV_PUD, 0))

        while heap and heap[0][0] < horizon:
            now = heap[0][0]
            inject_mask = 0
            visit = False
            while heap and heap[0][0] == now:
                _, kind, payload = heappop(heap)
                if kind == _EV_CORE:
                    inject_mask |= 1 << payload
                elif kind == _EV_BANK:
                    # the bank's one in-flight service finishes now
                    bank = banks[payload]
                    if bank.inflight >= 0:
                        done.append(bank.inflight)
                        bank.inflight = -1
                    if bank.queue:
                        ready_mask |= 1 << payload
                elif kind == _EV_STALL and now != self.channel_stall_until:
                    # superseded by a later back-off; not a real event
                    continue
                visit = True
            if not visit:
                continue
            if revived_mask:
                inject_mask |= revived_mask
                revived_mask = 0

            # 1) cores inject requests that are ready at `now`
            while inject_mask:
                bit = inject_mask & -inject_mask
                inject_mask ^= bit
                core_id = bit.bit_length() - 1
                core = cores[core_id]
                entries = core.tape.entries
                pos = core.pos
                outstanding = core.outstanding
                next_ready = core.next_ready_ns
                retired = core.retired_instructions
                while outstanding < mlp and next_ready <= now:
                    try:
                        word = entries[pos]
                    except IndexError:
                        core.tape.grow()
                        word = entries[pos]
                    pos += 1
                    gap = word >> GAP_SHIFT
                    next_ready = (
                        next_ready if next_ready > now else now
                    ) + gap / peak_ipc
                    retired += gap
                    is_write = word & 1
                    if not is_write:
                        outstanding += 1
                    requests += 1
                    bank_id = ((word >> BANK_SHIFT) & BANK_MASK) % n_banks
                    bank = banks[bank_id]
                    bank.queue.append(
                        (core_id, (word >> ROW_SHIFT) & ROW_MASK, is_write,
                         False)
                    )
                    if bank.busy_until <= now:
                        ready_mask |= 1 << bank_id
                core.pos = pos
                core.outstanding = outstanding
                core.next_ready_ns = next_ready
                core.retired_instructions = retired
                if outstanding >= mlp:
                    core.blocked = True
                else:
                    heappush(heap, (next_ready, _EV_CORE, core_id))

            # 2) PuD op arrivals: the accelerator attempts one op pair per
            # period but self-throttles (bounded backlog) when the bank
            # cannot keep up -- it competes in the bank queue like any
            # other agent rather than starving CPU traffic outright.
            if pud_next <= now:
                while pud_next <= now:
                    if pud_queue < 4:
                        pud_queue += 1
                        bank = banks[pud.target_bank]
                        bank.queue.append(_PUD_REQUEST)
                        if bank.busy_until <= now:
                            ready_mask |= 1 << pud.target_bank
                    pud_next += pud.period_ns
                heappush(heap, (pud_next, _EV_PUD, 0))

            # 3) schedule free banks (one FR-FCFS pick per bank per visit;
            # the issue floor is snapshotted once so a back-off raised by
            # one bank only stalls *later* visits, as in the scan loop)
            if ready_mask:
                stall = self.channel_stall_until
                issue_floor = now if now >= stall else stall
                while ready_mask:
                    bit = ready_mask & -ready_mask
                    ready_mask ^= bit
                    bank_index = bit.bit_length() - 1
                    bank = banks[bank_index]
                    queue = bank.queue
                    if not queue:
                        continue
                    # FR-FCFS pick: the oldest open-row hit under the streak
                    # cap, else the oldest request (a PuD op's row is -1,
                    # never an open row)
                    request = None
                    open_row = bank.open_row
                    if bank.hit_streak < frfcfs_cap and open_row is not None:
                        i = 0
                        for queued in queue:
                            if queued[1] == open_row:
                                request = queued
                                del queue[i]
                                break
                            i += 1
                    if request is None:
                        request = queue.popleft()
                    core_id, row, is_write, is_pud = request
                    if is_pud:
                        duration = self._serve_pud_op(bank, issue_floor)
                        bank.busy_until = issue_floor + duration
                        pud_queue -= 1
                    else:
                        if bank.open_row == row:
                            bank.hit_streak += 1
                            duration = t_hit
                        else:
                            bank.hit_streak = 0
                            if counters is not None:
                                # single-row ACT: counter-update latency is
                                # always zero, so only the back-off matters
                                ctr = counters[bank_index]
                                ctr.record_act(row)
                                if ctr._pending_backoff is not None:
                                    release = issue_floor + t_backoff
                                    if release > self.channel_stall_until:
                                        self.channel_stall_until = release
                                        heappush(
                                            heap, (release, _EV_STALL, 0)
                                        )
                                    ctr.serve_rfm()
                                    self.stats["backoffs"] += 1
                            duration = (
                                t_miss if bank.open_row is None else t_conflict
                            )
                            bank.open_row = row
                        bank.busy_until = issue_floor + duration
                        if not is_write:
                            bank.inflight = core_id
                        served += 1
                    heappush(heap, (bank.busy_until, _EV_BANK, bank_index))

            # 4) deliver the reads whose bank freed at `now`; the order is
            # immaterial (see the module docstring)
            if done:
                for core_id in done:
                    core = cores[core_id]
                    core.outstanding -= 1
                    if core.blocked:
                        core.blocked = False
                        if core.next_ready_ns > now:
                            heappush(
                                heap, (core.next_ready_ns, _EV_CORE, core_id)
                            )
                        else:
                            revived_mask |= 1 << core_id
                done.clear()

        self.stats["requests"] = requests
        obs = self.obs
        if obs.enabled:
            obs.observe_s("memsys.run_s", perf_counter() - t_wall)
            obs.inc("memsys.requests", requests)
            obs.inc("memsys.requests_served", served)
            obs.inc("memsys.pud_ops", self.stats["pud_ops"])
            obs.inc("memsys.backoffs", self.stats["backoffs"])
        elapsed = max(horizon, 1.0)
        return SimResult(
            ipc_per_core=[
                core.retired_instructions / elapsed for core in self.cores
            ],
            pud_ops_completed=self.stats["pud_ops"],
            backoffs=self.stats["backoffs"],
            elapsed_ns=elapsed,
            requests_served=served,
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
