"""Bank-level DDR4 command engine with PuD analog semantics.

A :class:`Bank` consumes timed DDR4 commands (ACT/PRE/RD/WR/REF) and:

* maintains open-row state and per-row stored data,
* classifies timing-violating sequences into the analog behaviors real
  chips exhibit -- CoMRA in-DRAM copy (PRE -> ACT below ``tRP``) and SiMRA
  simultaneous multi-row activation (ACT -> PRE -> ACT within ~6 ns),
* folds completed activation sessions into
  :class:`~repro.dram.commands.ActivationEvent` objects and feeds them to
  the module's :class:`~repro.disturbance.model.DisturbanceModel`,
* realizes read-disturbance bitflips and retention decay whenever a row's
  charge is restored (activation or refresh), mirroring physics: a cell
  that crossed its disturbance threshold has already flipped, and the
  restore latches the flipped value.

The bank does not own a clock; callers (the DRAM Bender host, the TRR
experiment driver) pass absolute nanosecond timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from ..disturbance.calibration import DataPattern
from ..disturbance.model import DisturbanceModel, classify_pattern
from ..disturbance.retention import RetentionModel
from ..native import replay_kernel
from .commands import ActivationEvent
from .errors import TimingError
from .organization import ModuleGeometry
from .timing import TimingParams


class TrrHook(Protocol):
    """Interface an in-DRAM TRR mechanism exposes to the bank.

    Hooks may optionally define ``on_event(bank, event, times)``; the bank
    then feeds them every completed
    :class:`~repro.dram.commands.ActivationEvent`, exposing the actual
    activated row group (which the command bus hides for SiMRA).  Hooks
    that can act between REFs (PRAC back-off) also define
    ``period_increments`` and ``quiet_periods``, which the host uses to
    split a compiled stream where such an action can fire.
    """

    def on_act(self, bank: int, row: int, now_ns: float) -> None:
        """Observe an ACT command (the sampler sees only command traffic)."""

    def on_act_stream(self, bank: int, rows, times: int = 1) -> None:
        """Observe ``times`` repetitions of the ACT sequence ``rows`` at once,
        exactly as that many sequential :meth:`on_act` calls would."""

    def on_ref(self, bank: int, now_ns: float) -> list[int]:
        """Observe a REF; return aggressor rows whose victims to refresh."""


#: Rows within a subarray that can be co-activated share this aligned block.
SIMRA_BLOCK_BITS = 5
SIMRA_BLOCK = 1 << SIMRA_BLOCK_BITS

#: Opcodes of the compiled command-stream representation consumed by
#: :meth:`Bank.execute_stream`.  They live here (not in the bender
#: compiler) so the dram layer never imports from bender.
STREAM_ACT = 0
STREAM_PRE = 1


@dataclass
class _OpenSession:
    """State of the currently-open row (or SiMRA row group)."""

    rows: tuple[int, ...]
    t_open_ns: float
    pre_to_act_ns: Optional[float]
    simra_act_to_pre_ns: Optional[float] = None
    is_simra: bool = False
    #: rows that failed to fully activate (partial SiMRA activation)
    partial_rows: frozenset[int] = frozenset()
    #: CoMRA pairing: the source row whose copy created this session
    comra_src: Optional[int] = None


@dataclass
class _PendingClose:
    """A session that was closed by PRE but whose event emission is held
    back one command, so a following timing-violated ACT can claim it as a
    CoMRA source or SiMRA trigger.

    ``times`` snapshots the loop-scaling multiplier at close time: the
    event is emitted one command later, possibly after the host has already
    changed the multiplier for the next loop pass.
    """

    session: _OpenSession
    t_close_ns: float
    t_agg_off: dict[int, float] = field(default_factory=dict)
    times: float = 1.0


@dataclass
class RowSnapshot:
    """Copy-on-write images of a probe's row set (see ``Bank.snapshot_rows``).

    ``rows`` fixes the restore order (the insertion order of the source
    ``row_data`` dict, matching the order a host ``write_rows`` call would
    write them); ``versions`` records, per row, the bank data version the
    image was last materialized at, so an unchanged row costs a dict lookup
    instead of a row-sized copy on the next restore.
    """

    rows: tuple[int, ...]
    images: dict[int, np.ndarray]
    versions: dict[int, int] = field(default_factory=dict)


class Bank:
    """One DRAM bank of a simulated module."""

    def __init__(
        self,
        index: int,
        geometry: ModuleGeometry,
        timing: TimingParams,
        model: DisturbanceModel,
        retention: RetentionModel,
        supports_comra: bool = True,
    ) -> None:
        self.index = index
        self.geometry = geometry
        self.timing = timing
        self.model = model
        self.retention = retention
        self.supports_comra = supports_comra

        self.temperature_c = 80.0
        #: damage multiplier applied to emitted events (loop scaling)
        self.event_times = 1

        self._data: dict[int, np.ndarray] = {}
        self._data_version: dict[int, int] = {}
        self._pattern_cache: dict[int, tuple[int, Optional[DataPattern]]] = {}
        self._last_restore: dict[int, float] = {}
        self._last_close: dict[int, float] = {}
        self._open: Optional[_OpenSession] = None
        self._pending: Optional[_PendingClose] = None
        self._last_pre_ns: Optional[float] = None
        self._refresh_cursor = 0
        self._refresh_accumulator = 0.0
        #: rotor rows per REF: the bank refreshes every row once per tREFW
        self._refresh_step = geometry.rows_per_bank / max(
            1, round(timing.tREFW / timing.tREFI)
        )
        self._tie_counter = 0
        self._comra_context: Optional[_PendingClose] = None
        #: rows whose cells sit at ~VDD/2 (FracDRAM fractional values)
        self._frac: set[int] = set()
        self.trr: Optional[TrrHook] = None
        #: when True, ACTs skip the per-command ``trr.on_act`` callback;
        #: the caller owes the hook one batched ``on_act_stream`` instead
        self.trr_act_suppressed = False
        #: capture hook for trace replay: when set, receives every charge
        #: restoration, CoMRA copy, SiMRA group sensing, emitted event and
        #: fractional-row marking in application order (see
        #: ``repro.dram.replay``)
        self.probe_tap = None
        self.stats = {"acts": 0, "pres": 0, "refs": 0, "comra_copies": 0,
                      "simra_ops": 0, "reads": 0, "writes": 0}

    # ------------------------------------------------------------------
    # Data plumbing
    # ------------------------------------------------------------------
    def _row_data(self, row: int) -> np.ndarray:
        data = self._data.get(row)
        if data is None:
            data = np.zeros(self.geometry.row_bytes, dtype=np.uint8)
            self._data[row] = data
            self._data_version[row] = 0
        return data

    def _bump_version(self, row: int) -> None:
        self._data_version[row] = self._data_version.get(row, 0) + 1

    def _copy_row(self, src: int, dst: int) -> None:
        """In-DRAM copy: ``dst`` takes ``src``'s bytes."""
        self._row_data(dst)[:] = self._row_data(src)
        self._bump_version(dst)

    def _write_image(self, row: int, image: np.ndarray) -> int:
        """Overwrite ``row`` with ``image``; returns its new data version."""
        self._row_data(row)[:] = image
        self._bump_version(row)
        return self._data_version[row]

    def pattern_of(self, row: int) -> Optional[DataPattern]:
        """Cached classification of a row's data as a standard pattern."""
        version = self._data_version.get(row, 0)
        cached = self._pattern_cache.get(row)
        if cached is not None and cached[0] == version:
            return cached[1]
        pattern = classify_pattern(self._row_data(row))
        self._pattern_cache[row] = (version, pattern)
        return pattern

    def backdoor_read(self, row: int) -> np.ndarray:
        """Test/analysis hook: current stored bytes without charge restore."""
        return self._row_data(row).copy()

    def backdoor_write(self, row: int, data: np.ndarray, now_ns: float = 0.0) -> None:
        """Test/analysis hook: set stored bytes, resetting the row state."""
        buf = self._row_data(row)
        buf[:] = np.resize(np.asarray(data, dtype=np.uint8), buf.shape)
        self._bump_version(row)
        self._last_restore[row] = now_ns
        self._frac.discard(row)
        self.model.restore_row(self.index, row)

    def probe_row(self, row: int, now_ns: float) -> np.ndarray:
        """Analysis hook: what the *next nominal read* of ``row`` would see.

        Unlike :meth:`backdoor_read` this materializes pending disturbance
        flips and retention decay first (an activation restores charge, so
        accumulated damage resolves into concrete bitflips at that point),
        then returns the bytes -- without issuing commands, advancing
        stats, or feeding the TRR.  The corruption oracle checkpoints
        through this hook so that flips damaged-but-not-yet-realized by a
        PuD kernel are observed exactly as a victim's owner would observe
        them.
        """
        self._restore_row(row, now_ns)
        return self._row_data(row).copy()

    # ------------------------------------------------------------------
    # Charge restoration: flips materialize, damage clears
    # ------------------------------------------------------------------
    def _restore_row(self, row: int, now_ns: float) -> None:
        """Restore ``row``'s charge at ``now_ns``.

        Taps the touch, decays the cells retention lost since the last
        restore, realizes the flips the accumulated damage earned
        (:meth:`DisturbanceModel.realize_flips`), clears the row's damage
        and records the restore; a row whose bytes changed gets a new data
        version.  Runs in the compiled kernel (``dram/replay.c``), which
        calls back into Python only for the tap, a row with no data yet,
        cache misses and ``RetentionModel.apply_decay`` past the row's
        retention time.
        """
        replay_kernel().restore_row(self, row, now_ns)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def act(self, row: int, now_ns: float) -> None:
        """Activate a row, possibly triggering CoMRA or SiMRA semantics."""
        self.geometry.check_row(row)
        self.stats["acts"] += 1
        if self.trr is not None and not self.trr_act_suppressed:
            self.trr.on_act(self.index, row, now_ns)
        if self._open is not None:
            raise TimingError(
                f"ACT r{row} while bank {self.index} has open row(s) "
                f"{self._open.rows}; issue PRE first"
            )

        pre_to_act = None if self._last_pre_ns is None else now_ns - self._last_pre_ns
        pending = self._pending

        act_to_pre = (
            None
            if pending is None
            else pending.t_close_ns - pending.session.t_open_ns
        )
        if (
            pending is not None
            and pre_to_act is not None
            and act_to_pre is not None
            and self.timing.is_simra_window(act_to_pre, pre_to_act)
            and self.model.supports_simra
            and len(pending.session.rows) == 1
        ):
            self._open_simra(pending, row, pre_to_act, now_ns, copy_src=None)
            return
        if (
            pending is not None
            and pre_to_act is not None
            and act_to_pre is not None
            and act_to_pre >= 0.9 * self.timing.tRAS
            and 0.0 < pre_to_act <= 6.0
            and self.model.supports_simra
            and len(pending.session.rows) == 1
        ):
            # Multi-row copy (Yuksel et al. DSN'24): the source row was
            # fully sensed, so the group activation latches the bitlines'
            # (source) data into every activated row.
            self._open_simra(
                pending, row, pre_to_act, now_ns,
                copy_src=pending.session.rows[0],
            )
            return

        # Not a SiMRA trigger: flush any held-back session first.
        comra_src = self._flush_pending_for_comra(row, pre_to_act, now_ns)
        self._open_single(row, pre_to_act, now_ns, comra_src)

    def _open_single(
        self,
        row: int,
        pre_to_act: Optional[float],
        now_ns: float,
        comra_src: Optional[int],
    ) -> None:
        self._restore_row(row, now_ns)
        if row in self._frac:
            # A lone activation of a fractional row senses thermal noise:
            # every bitline starts at VDD/2 (the D-RaNGe-style entropy
            # source FracDRAM enables).
            self._tie_counter += 1
            rng = np.random.default_rng(
                (self.model.serial * 0x9E3779B1 + self._tie_counter) & 0xFFFFFFFF
            )
            self._row_data(row)[:] = rng.integers(
                0, 256, self.geometry.row_bytes, dtype=np.uint8
            )
            self._bump_version(row)
            self._frac.discard(row)
        self._open = _OpenSession(
            rows=(row,),
            t_open_ns=now_ns,
            pre_to_act_ns=pre_to_act,
            comra_src=comra_src,
        )
        if comra_src is not None and self.geometry.same_subarray(comra_src, row):
            # Functional in-DRAM copy: the bitlines still hold src's data.
            self._copy_row(comra_src, row)
            self.stats["comra_copies"] += 1
            if self.probe_tap is not None:
                self.probe_tap(("copy", comra_src, row))

    def _open_simra(
        self,
        pending: _PendingClose,
        second_row: int,
        pre_to_act: float,
        now_ns: float,
        copy_src: Optional[int] = None,
    ) -> None:
        first_row = pending.session.rows[0]
        act_to_pre = pending.t_close_ns - pending.session.t_open_ns
        group = self.simra_group(first_row, second_row)
        if group is None:
            # Rows too far apart for the decoder to merge: behaves like a
            # rapid (but ordinary) reactivation of the second row.
            self._pending = pending
            self._flush_pending_event(now_ns)
            self._open_single(second_row, pre_to_act, now_ns, None)
            return

        self._pending = None  # the first session is absorbed into the group
        partial_rows = self._partial_rows(group, act_to_pre)
        for row in group:
            self._restore_row(row, now_ns)
        if self.probe_tap is not None:
            self.probe_tap(("sense", group, partial_rows, copy_src, act_to_pre))
        self._sense_group(group, partial_rows, copy_src)
        self._open = _OpenSession(
            rows=group,
            t_open_ns=now_ns,
            pre_to_act_ns=pre_to_act,
            simra_act_to_pre_ns=act_to_pre,
            is_simra=True,
            partial_rows=partial_rows,
        )
        self.stats["simra_ops"] += 1

    def _partial_rows(
        self, group: tuple[int, ...], act_to_pre: float
    ) -> frozenset[int]:
        """Rows of ``group`` an ACT->PRE of ``act_to_pre`` ns leaves only
        partially activated (Obs. 20: susceptible rows at <= 1.6 ns)."""
        if act_to_pre > 1.6:
            return frozenset()
        profile = self.model.profile
        return frozenset(
            row for row in group
            if profile(self.index, row).partial_susceptible
        )

    def simra_group(self, row_a: int, row_b: int) -> Optional[tuple[int, ...]]:
        """Rows the decoder simultaneously drives for an ACT-PRE-ACT pair.

        Prior work (QUAC-TRNG, Yuksel et al. DSN'24) shows the decoder
        merges the two addresses: every row matching both addresses on the
        bit positions where they agree (within an aligned 32-row block of
        one subarray) activates.  Addresses differing in k low bits thus
        activate 2^k rows -- 2, 4, 8, 16, or 32.
        """
        if not self.geometry.same_subarray(row_a, row_b):
            return None
        if row_a == row_b:
            return (row_a,)
        if (row_a >> SIMRA_BLOCK_BITS) != (row_b >> SIMRA_BLOCK_BITS):
            return None
        diff = (row_a ^ row_b) & (SIMRA_BLOCK - 1)
        base = row_a & ~(SIMRA_BLOCK - 1)
        free_bits = [bit for bit in range(SIMRA_BLOCK_BITS) if diff & (1 << bit)]
        anchored = row_a & (SIMRA_BLOCK - 1) & ~diff
        rows = []
        for combo in range(1 << len(free_bits)):
            offset = anchored
            for position, bit in enumerate(free_bits):
                if combo & (1 << position):
                    offset |= 1 << bit
            rows.append(base + offset)
        rows.sort()
        max_row = self.geometry.rows_per_bank
        if rows[-1] >= max_row:
            return None
        return tuple(rows)

    def _sense_group(
        self,
        group: tuple[int, ...],
        partial_rows: frozenset[int],
        copy_src: Optional[int],
    ) -> None:
        """Sense an opened SiMRA group: charge-sharing MAJ or multi-row copy.

        Only the fully activated (non-partial) rows take part.  With
        ``copy_src`` set (multi-row copy, Yuksel et al. DSN'24) the source
        row was fully sensed, so the bitlines latch its data into every
        activated row.  Otherwise each bitline averages the charges of the
        co-activated cells; the sense amplifier resolves the result to the
        bitwise majority of the activated rows' contents, which then
        overwrites all of them (Ambit/ComputeDRAM principle).  Ties (even N,
        split charge) resolve from thermal noise -- the entropy source
        QUAC-TRNG harvests.

        Identity shortcut: when no active row is fractional and every
        active row already holds the bytes the sensing would write (the
        source's for a copy, each other's for MAJ -- with N equal rows a
        bitline's ones count is 0 or N, so it has a strict majority and
        never ties), the method returns without touching anything.  That
        is exact: the bytes are unchanged, no tie is taken, the
        ``_frac.discard`` is a no-op by the precondition, and skipping the
        version bump is unobservable because every ``_data_version``
        reader caches on bytes that did not change -- ``pattern_of``'s
        cache and the probe engine's copy-on-write restore, event version
        guards and ``flips_by_version`` read-back.  It also
        keeps replayed SiMRA events on the engine's version-hit path.
        """
        active = [row for row in group if row not in partial_rows]
        if not active:
            return
        row_data = self._row_data
        frac = self._frac
        source = row_data(active[0] if copy_src is None else copy_src)
        source_bytes = source.tobytes()
        if frac.isdisjoint(active) and all(
            row_data(row).tobytes() == source_bytes for row in active
        ):
            return
        if copy_src is not None:
            source_data = source.copy()
            for row in active:
                row_data(row)[:] = source_data
                self._bump_version(row)
                frac.discard(row)
            return
        frac_rows = [row for row in active if row in self._frac]
        full_rows = [row for row in active if row not in self._frac]
        if full_rows:
            stack = np.stack([np.unpackbits(self._row_data(row)) for row in full_rows])
            ones = stack.sum(axis=0).astype(np.float64)
        else:
            ones = np.zeros(self.geometry.columns, dtype=np.float64)
        # Fractional rows hold ~VDD/2 on every cell and contribute half a
        # charge unit per bitline (FracDRAM), shifting the MAJ threshold.
        ones += 0.5 * len(frac_rows)
        majority = np.where(ones * 2 > len(active), 1, 0).astype(np.uint8)
        ties = ones * 2 == len(active)
        if ties.any():
            self._tie_counter += 1
            rng = np.random.default_rng(
                (self.model.serial * 0x9E3779B1 + self._tie_counter) & 0xFFFFFFFF
            )
            majority[ties] = rng.integers(0, 2, int(ties.sum()), dtype=np.uint8)
        packed = np.packbits(majority)
        for row in active:
            self._row_data(row)[:] = packed
            self._bump_version(row)
            self._frac.discard(row)

    #: ACT -> PRE window (ns) that interrupts charge restoration midway,
    #: leaving cells near VDD/2 (FracDRAM's fractional-value write).
    FRAC_WINDOW_NS = (7.0, 16.0)

    def pre(self, now_ns: float) -> None:
        """Precharge: close the open session, holding the event one command."""
        self.stats["pres"] += 1
        self._flush_pending_event(now_ns)
        if self._open is not None:
            session = self._open
            open_time = now_ns - session.t_open_ns
            if (
                not session.is_simra
                and len(session.rows) == 1
                and self.FRAC_WINDOW_NS[0] <= open_time <= self.FRAC_WINDOW_NS[1]
            ):
                self._frac.add(session.rows[0])
                if self.probe_tap is not None:
                    self.probe_tap(("frac", session.rows[0]))
            self._open = None
            # tAggOff = how long the row sat closed before this activation
            # (previous close -> this session's open)
            t_agg_off = {
                row: session.t_open_ns - self._last_close[row]
                for row in session.rows
                if row in self._last_close
            }
            self._pending = _PendingClose(
                session, now_ns, t_agg_off, times=self.event_times
            )
            for row in session.rows:
                self._last_close[row] = now_ns
        self._last_pre_ns = now_ns

    def rd(self, row: int, now_ns: float) -> np.ndarray:
        """Read the open row (or any member of an open SiMRA group)."""
        self.stats["reads"] += 1
        if self._open is None or row not in self._open.rows:
            raise TimingError(
                f"RD r{row} with open row(s) "
                f"{None if self._open is None else self._open.rows}"
            )
        return self._row_data(row).copy()

    def wr(self, row: int, data: np.ndarray, now_ns: float) -> None:
        """Write the open row; an open SiMRA group takes the data on every
        activated row (the reverse-engineering trick of prior work)."""
        self.stats["writes"] += 1
        if self._open is None:
            raise TimingError(f"WR r{row} with no open row")
        if row not in self._open.rows:
            raise TimingError(f"WR r{row} but open row(s) are {self._open.rows}")
        payload = np.resize(np.asarray(data, dtype=np.uint8), self.geometry.row_bytes)
        targets = (
            [r for r in self._open.rows if r not in self._open.partial_rows]
            if self._open.is_simra
            else [row]
        )
        for target in targets:
            self._row_data(target)[:] = payload
            self._bump_version(target)
            self._last_restore[target] = now_ns
            self._frac.discard(target)
            self.model.restore_row(self.index, target)

    def targeted_refresh(self, aggressors: Sequence[int], now_ns: float) -> None:
        """Preventively refresh the distance-1/2 neighborhoods of rows.

        This is the victim set both a TRR targeted refresh and a PRAC RFM
        cover; mitigation hooks call it directly when they must act between
        REF commands (e.g. PRAC back-off serviced mid-tREFI).
        """
        for aggressor in aggressors:
            for distance in (1, 2):
                for victim in self.geometry.neighbors(aggressor, distance):
                    self._restore_row(victim, now_ns)

    def ref(self, now_ns: float) -> None:
        """Periodic refresh: TRR hook first, then the regular rotor."""
        self.stats["refs"] += 1
        if self._open is not None:
            raise TimingError("REF with open row; precharge first")
        self._flush_pending_event(now_ns)
        if self.trr is not None:
            self.targeted_refresh(self.trr.on_ref(self.index, now_ns), now_ns)
        self._refresh_accumulator += self._refresh_step
        while self._refresh_accumulator >= 1.0:
            self._refresh_accumulator -= 1.0
            row = self._refresh_cursor % self.geometry.rows_per_bank
            self._refresh_cursor += 1
            self._restore_row(row, now_ns)

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def _flush_pending_for_comra(
        self, next_row: int, pre_to_act: Optional[float], now_ns: float
    ) -> Optional[int]:
        """Emit or convert the held-back session; return a CoMRA src row."""
        pending = self._pending
        if pending is None:
            return None
        session_open_ns = pending.t_close_ns - pending.session.t_open_ns
        if (
            pre_to_act is not None
            and self.supports_comra
            and self.timing.is_comra_window(pre_to_act)
            and len(pending.session.rows) == 1
            and not pending.session.is_simra
            # the copy only works if the source was fully sensed: the
            # bitlines must hold its data when the destination opens
            and session_open_ns >= 0.5 * self.timing.tRAS
        ):
            # The held session becomes the copy source.  Its event will be
            # emitted as part of the pair when the destination closes.
            self._pending = None
            self._comra_context = pending
            return pending.session.rows[0]
        self._flush_pending_event(now_ns)
        return None

    def _flush_pending_event(self, now_ns: float) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        self._emit_session(pending)

    def _emit_session(self, pending: _PendingClose) -> None:
        session = pending.session
        if session.is_simra:
            event = ActivationEvent(
                rows=session.rows,
                kind=ActivationEvent.Kind.SIMRA,
                bank=self.index,
                t_open_ns=session.t_open_ns,
                t_close_ns=pending.t_close_ns,
                pre_to_act_ns=session.pre_to_act_ns,
                simra_act_to_pre_ns=session.simra_act_to_pre_ns,
                t_agg_off_ns=pending.t_agg_off,
                partial=bool(session.partial_rows),
            )
        elif session.comra_src is not None:
            context = self._comra_context
            t_agg_off = dict(pending.t_agg_off)
            if context is not None:
                t_agg_off.update(context.t_agg_off)
                self._comra_context = None
            event = ActivationEvent(
                rows=(session.comra_src, session.rows[0]),
                kind=ActivationEvent.Kind.COMRA_PAIR,
                bank=self.index,
                t_open_ns=session.t_open_ns,
                t_close_ns=pending.t_close_ns,
                pre_to_act_ns=session.pre_to_act_ns,
                t_agg_off_ns=t_agg_off,
            )
        else:
            event = ActivationEvent(
                rows=session.rows,
                kind=ActivationEvent.Kind.SINGLE,
                bank=self.index,
                t_open_ns=session.t_open_ns,
                t_close_ns=pending.t_close_ns,
                pre_to_act_ns=session.pre_to_act_ns,
                t_agg_off_ns=pending.t_agg_off,
            )
        aggressor_pattern = self.pattern_of(event.rows[0])
        if self.probe_tap is not None:
            self.probe_tap(("event", event, aggressor_pattern, pending.times))
        self.model.apply_event(
            event,
            temperature_c=self.temperature_c,
            aggressor_pattern=aggressor_pattern,
            times=pending.times,
        )
        # Event-level mitigation hook: counters that must see the *actual*
        # activated row group (a SiMRA op shows only two ACT commands on
        # the bus but activates up to 32 rows) subscribe here.
        if self.trr is not None:
            on_event = getattr(self.trr, "on_event", None)
            if on_event is not None:
                on_event(self.index, event, pending.times)

    def flush(self, now_ns: float) -> None:
        """End-of-program: emit any session still held back."""
        if self._open is not None:
            self.pre(now_ns)
        self._flush_pending_event(now_ns)

    # ------------------------------------------------------------------
    # Batched command-stream entry points (see repro.bender.compiler)
    # ------------------------------------------------------------------
    def execute_stream(
        self,
        ops: Sequence[int],
        rows: Sequence[int],
        offsets: Sequence[float],
        base_ns: float = 0.0,
    ) -> None:
        """Replay a compiled ACT/PRE command stream.

        ``ops`` holds :data:`STREAM_ACT` / :data:`STREAM_PRE` opcodes,
        ``rows`` the physical row per ACT (ignored for PRE), ``offsets``
        the cumulative nanosecond offset of each command from ``base_ns``
        (NOP delays are folded into the offsets at compile time).  The
        semantics are exactly a sequence of :meth:`act` / :meth:`pre`
        calls; only the per-command dataclass dispatch is gone.
        """
        act = self.act
        pre = self.pre
        for op, row, offset in zip(ops, rows, offsets):
            if op == STREAM_ACT:
                act(row, base_ns + offset)
            else:
                pre(base_ns + offset)

    # ------------------------------------------------------------------
    def read_row_direct(self, row: int, now_ns: float) -> np.ndarray:
        """Convenience ACT -> RD -> PRE at nominal timing (restores charge)."""
        self.act(row, now_ns)
        data = self.rd(row, now_ns + self.timing.tRCD)
        self.pre(now_ns + self.timing.tRAS)
        return data

    def write_row_direct(self, row: int, data: np.ndarray, now_ns: float) -> None:
        """Convenience ACT -> WR -> PRE at nominal timing."""
        self.act(row, now_ns)
        self.wr(row, data, now_ns + self.timing.tRCD)
        self.pre(now_ns + self.timing.tRAS)

    # ------------------------------------------------------------------
    # Copy-on-write row snapshot (batched probe engine)
    # ------------------------------------------------------------------
    def snapshot_rows(self, row_data: dict[int, np.ndarray]) -> RowSnapshot:
        """Row-sized images of ``row_data`` for the batched probe engine,
        which re-initializes them before every probe (copying a row only
        when its data version moved since its image was last written)."""
        images = {
            row: np.resize(
                np.asarray(data, dtype=np.uint8), self.geometry.row_bytes
            )
            for row, data in row_data.items()
        }
        return RowSnapshot(rows=tuple(row_data), images=images)
