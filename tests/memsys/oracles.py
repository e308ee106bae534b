"""Python oracles for the memory-system kernel (``repro.memsys``).

Two reference engines, each run against the C kernel behind
``MemorySystem`` by the golden and differential tests:

* :class:`EventLoopMemorySystem` -- the Python event loop the kernel was
  ported from, statement for statement: one global event heap of
  ``(time, kind, payload)`` tuples, FIFO bank deques, reads
  delivered on their bank-free event, PRAC through
  :class:`~repro.mitigations.prac.PracCounters`.
* :class:`ScanLoopMemorySystem` -- the original ``MemorySystem.run``: at
  every visited time step it re-scans every core for ready requests,
  every bank for scheduling opportunities, and computes the next time
  step as a ``min()`` over all candidate event sources; FR-FCFS picks are
  ``min()``/``remove()`` over a flat per-bank request list.  The golden
  fixtures in ``golden_simresults.json`` were recorded from this code.

``benchmarks/bench_hotpath.py``'s ``fig25_mix_sweep`` cell times the
kernel against the scan loop.  Do not "optimize" this module.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Iterator, Optional, Sequence

from repro.memsys.system import MemSysConfig, SimResult, mix_tapes
from repro.mitigations.prac import OpClass, PracConfig, PracCounters
from repro.workloads.fast_traces import (
    BANK_MASK,
    BANK_SHIFT,
    GAP_SHIFT,
    ROW_MASK,
    ROW_SHIFT,
    TraceTape,
)
from repro.workloads.mixes import PudWorkloadConfig, WorkloadMix
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.traces import TraceEntry, TraceGenerator


def _make_counters(
    prac: Optional[PracConfig], banks: int
) -> Optional[list[PracCounters]]:
    if prac is None:
        return None
    return [PracCounters(i, prac, warm_start=True) for i in range(banks)]


#: the queue entry of a PuD operation pair: (core, row, is_write, is_pud)
_PUD_REQUEST = (-1, -1, True, True)


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


class _Bank:
    """One bank: open-row state, FIFO request queue, busy window.

    ``queue`` holds ``(core, row, is_write, is_pud)`` tuples in arrival
    order, which is also ``(issue_ns, seq)`` order (see
    ``repro.memsys.system``'s module docstring), so the FR-FCFS pick is the first open-row hit, else the
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


#: event kinds on the global heap (the int doubles as a same-time
#: tiebreaker for heap entries; visits pop all entries at one time point
#: before running the phases, so the order among kinds is irrelevant)
_EV_CORE = 0
_EV_PUD = 1
_EV_BANK = 2
_EV_STALL = 3


class EventLoopMemorySystem:
    """The Python event loop of ``MemorySystem.run`` (see module doc)."""

    def __init__(
        self,
        mix: WorkloadMix,
        pud: Optional[PudWorkloadConfig],
        prac: Optional[PracConfig],
        config: Optional[MemSysConfig] = None,
        seed: int = 0,
        tapes: Optional[Sequence[TraceTape]] = None,
    ) -> None:
        self.config = config or MemSysConfig()
        self.mix = mix
        self.pud = pud
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
        # The loop body is inlined and alias-heavy, as it was while it was
        # the production loop.  Visit sets are int bitmasks, walked
        # lowest-bit-first, which yields id order for free.
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
                                ctr.record([row], OpClass.ACT)
                                if ctr.back_off_pending is not None:
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
            # immaterial (see repro.memsys.system's module docstring)
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


class _Request:
    """One memory request, ordered by ``(issue_ns, seq)``."""

    __slots__ = (
        "issue_ns", "seq", "core", "bank", "row", "is_write",
        "gap_instructions", "is_pud",
    )

    def __init__(
        self,
        issue_ns: float,
        seq: int,
        core: int,
        bank: int,
        row: int,
        is_write: bool,
        gap_instructions: int,
        is_pud: bool = False,
    ) -> None:
        self.issue_ns = issue_ns
        self.seq = seq
        self.core = core
        self.bank = bank
        self.row = row
        self.is_write = is_write
        self.gap_instructions = gap_instructions
        #: PuD operation pair (SiMRA-32 + CoMRA) rather than a CPU access
        self.is_pud = is_pud

    def __lt__(self, other: "_Request") -> bool:
        return (self.issue_ns, self.seq) < (other.issue_ns, other.seq)


class _ScanCore:
    """In-order core with scalar per-entry trace generation."""

    def __init__(
        self,
        core_id: int,
        profile: WorkloadProfile,
        config: MemSysConfig,
        seed: int,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.trace: Iterator[TraceEntry] = TraceGenerator(profile, seed=seed)
        self.outstanding = 0
        self.next_ready_ns = 0.0
        self.retired_instructions = 0.0
        self.blocked = False

    def try_generate(self, now_ns: float) -> Optional[TraceEntry]:
        """Produce the next request if the core is ready and not MLP-bound."""
        if self.outstanding >= self.config.mlp:
            self.blocked = True
            return None
        if now_ns < self.next_ready_ns:
            return None
        entry = next(self.trace)
        compute_time = entry.gap_instructions / self.config.peak_ipc
        self.next_ready_ns = max(self.next_ready_ns, now_ns) + compute_time
        self.retired_instructions += entry.gap_instructions
        if not entry.is_write:
            self.outstanding += 1
        return entry

    def complete(self, request: _Request) -> None:
        if not request.is_write:
            self.outstanding -= 1
            self.blocked = False


class _ScanBank:
    """One bank: open-row state, flat request queue, busy window."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.open_row: Optional[int] = None
        self.queue: list[_Request] = []
        self.busy_until = 0.0
        self.hit_streak = 0

    def pick(self, cap: int) -> Optional[_Request]:
        """FR-FCFS with a row-hit streak cap (O(n) scan + remove)."""
        if not self.queue:
            return None
        if self.hit_streak < cap and self.open_row is not None:
            hits = [r for r in self.queue if r.row == self.open_row and not r.is_pud]
            if hits:
                request = min(hits)
                self.queue.remove(request)
                return request
        request = min(self.queue)
        self.queue.remove(request)
        return request


class ScanLoopMemorySystem:
    """The pre-event-queue five-core shared memory system of Fig. 25."""

    def __init__(
        self,
        mix: WorkloadMix,
        pud: Optional[PudWorkloadConfig],
        prac: Optional[PracConfig],
        config: Optional[MemSysConfig] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or MemSysConfig()
        self.mix = mix
        self.pud = pud
        self.cores = [
            _ScanCore(i, profile, self.config, seed=seed * 101 + i)
            for i, profile in enumerate(mix.profiles)
        ]
        self.banks = [_ScanBank(i) for i in range(self.config.banks)]
        self.counters = _make_counters(prac, self.config.banks)
        self._seq = itertools.count()
        self.channel_stall_until = 0.0
        self.stats = {"backoffs": 0, "pud_ops": 0, "requests": 0}

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
            self.channel_stall_until = max(
                self.channel_stall_until, now_ns + self.config.t_backoff_ns
            )
            counters.serve_rfm()
            self.stats["backoffs"] += 1
        return extra

    def _service_time(self, bank: _ScanBank, request: _Request, now_ns: float) -> float:
        config = self.config
        if bank.open_row == request.row:
            bank.hit_streak += 1
            return config.t_hit_ns
        bank.hit_streak = 0
        extra = self._record_activation(
            bank.index, [request.row], OpClass.ACT, now_ns
        )
        if bank.open_row is None:
            bank.open_row = request.row
            return config.t_miss_ns + extra
        bank.open_row = request.row
        return config.t_conflict_ns + extra

    def _serve_pud_op(self, bank: _ScanBank, now_ns: float) -> float:
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
        config = self.config
        now = 0.0
        horizon = config.horizon_ns
        served = 0
        pud_next = 0.0 if self.pud is not None else float("inf")
        pud_queue = 0
        completions: list[tuple[float, _Request]] = []

        while now < horizon:
            # 1) cores inject requests that are ready at `now`
            for core in self.cores:
                while True:
                    entry = core.try_generate(now)
                    if entry is None:
                        break
                    request = _Request(
                        issue_ns=now,
                        seq=next(self._seq),
                        core=core.core_id,
                        bank=entry.bank % config.banks,
                        row=entry.row,
                        is_write=entry.is_write,
                        gap_instructions=entry.gap_instructions,
                    )
                    self.banks[request.bank].queue.append(request)
                    self.stats["requests"] += 1

            # 2) PuD op arrivals: the accelerator attempts one op pair per
            # period but self-throttles (bounded backlog) when the bank
            # cannot keep up -- it competes in the bank queue like any
            # other agent rather than starving CPU traffic outright.
            while pud_next <= now:
                if pud_queue < 4:
                    pud_queue += 1
                    self.banks[self.pud.target_bank].queue.append(  # type: ignore[union-attr]
                        _Request(
                            issue_ns=pud_next,
                            seq=next(self._seq),
                            core=-1,
                            bank=self.pud.target_bank,  # type: ignore[union-attr]
                            row=-1,
                            is_write=True,
                            gap_instructions=0,
                            is_pud=True,
                        )
                    )
                pud_next += self.pud.period_ns  # type: ignore[union-attr]

            # 3) schedule idle banks
            issue_floor = max(now, self.channel_stall_until)
            for bank in self.banks:
                if bank.busy_until > now:
                    continue
                request = bank.pick(config.frfcfs_cap)
                if request is None:
                    continue
                if request.is_pud:
                    duration = self._serve_pud_op(bank, issue_floor)
                    bank.busy_until = max(issue_floor, bank.busy_until) + duration
                    pud_queue -= 1
                    continue
                duration = self._service_time(bank, request, issue_floor)
                finish = max(issue_floor, bank.busy_until) + duration
                bank.busy_until = finish
                heapq.heappush(completions, (finish, request))
                served += 1

            # 4) deliver completions due by `now`
            while completions and completions[0][0] <= now:
                _, request = heapq.heappop(completions)
                self.cores[request.core].complete(request)

            # 5) advance time to the next interesting event
            candidates = [horizon]
            if completions:
                candidates.append(completions[0][0])
            candidates.extend(
                bank.busy_until for bank in self.banks if bank.busy_until > now
            )
            candidates.extend(
                core.next_ready_ns
                for core in self.cores
                if not core.blocked and core.next_ready_ns > now
            )
            if pud_next > now:
                candidates.append(pud_next)
            if self.channel_stall_until > now:
                candidates.append(self.channel_stall_until)
            next_time = min(c for c in candidates if c > now)
            now = next_time

        # flush remaining completions for accounting
        while completions:
            _, request = heapq.heappop(completions)
            self.cores[request.core].complete(request)

        elapsed = max(now, 1.0)
        return SimResult(
            ipc_per_core=[
                core.retired_instructions / elapsed for core in self.cores
            ],
            pud_ops_completed=self.stats["pud_ops"],
            backoffs=self.stats["backoffs"],
            elapsed_ns=elapsed,
            requests_served=served,
        )
