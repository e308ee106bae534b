"""Reference scan-loop memory-system simulator.

This is the original ``MemorySystem.run`` implementation: at every visited
time step it re-scans every core for ready requests, every bank for
scheduling opportunities, and computes the next time step as a ``min()``
over all candidate event sources; FR-FCFS picks are ``min()``/``remove()``
over a flat per-bank request list.

It is kept (1) as the baseline side of the ``fig25_mix_sweep`` hot-path
benchmark and (2) as executable documentation of the semantics the
event-queue engine in :mod:`.system` must reproduce bit-for-bit -- the
golden fixtures in ``tests/memsys/golden_simresults.json`` were recorded
from this code, and the equivalence tests compare both engines directly.
Do not "optimize" this module.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, Optional

from ..mitigations.prac import OpClass, PracConfig
from ..workloads.mixes import PudWorkloadConfig, WorkloadMix
from ..workloads.profiles import WorkloadProfile
from ..workloads.traces import TraceEntry, TraceGenerator
from .system import MemSysConfig, SimResult, _make_counters


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
    """Pre-PR in-order core: scalar per-entry trace generation."""

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
