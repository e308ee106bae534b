"""Sampling-based Target Row Refresh (TRR), as uncovered by U-TRR.

§7 finds the tested SK Hynix module uses a *sampling-based* TRR: the chip
probabilistically samples one aggressor row address from the last 450 ACT
commands preceding a TRR-capable REF, and preventively refreshes that row's
victims when the REF arrives.  Only a subset of REFs are TRR-capable.

The mechanism sees nothing but the command bus -- which is precisely why
SiMRA bypasses it: one SiMRA operation simultaneously activates up to 32
rows while issuing only two ACT commands (Obs. 26).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..disturbance.calibration import (
    TRR_CAPABLE_REF_PERIOD,
    TRR_SAMPLER_WINDOW,
)
from ..disturbance.distributions import rng_for


class SamplingTrr:
    """In-DRAM TRR model implementing :class:`~repro.dram.bank.TrrHook`."""

    def __init__(
        self,
        window: int = TRR_SAMPLER_WINDOW,
        capable_ref_period: int = TRR_CAPABLE_REF_PERIOD,
        seed: int = 0,
    ) -> None:
        if window < 1:
            raise ValueError("sampler window must be positive")
        if capable_ref_period < 1:
            raise ValueError("capable REF period must be positive")
        self.window = window
        self.capable_ref_period = capable_ref_period
        self._buffers: dict[int, deque[int]] = {}
        self._ref_counter: dict[int, int] = {}
        self._rng: np.random.Generator = rng_for("sampling-trr", seed)
        # plain int counters: dict increments per ACT are measurable
        # overhead in the hammer hot loop
        self.acts_seen = 0
        self.refs_seen = 0
        self.targeted_refreshes = 0

    @property
    def stats(self) -> dict:
        """Counter snapshot, dict-shaped for report/gauntlet consumers."""
        return {
            "acts_seen": self.acts_seen,
            "refs_seen": self.refs_seen,
            "targeted_refreshes": self.targeted_refreshes,
        }

    def _buffer(self, bank: int) -> deque[int]:
        buf = self._buffers.get(bank)
        if buf is None:
            buf = deque(maxlen=self.window)
            self._buffers[bank] = buf
        return buf

    # ------------------------------------------------------------------
    # TrrHook interface
    # ------------------------------------------------------------------
    def on_act(self, bank: int, row: int, now_ns: float) -> None:
        self.acts_seen += 1
        self._buffer(bank).append(row)

    def on_act_stream(self, bank: int, rows, times: int = 1) -> None:
        """Observe ``times`` repetitions of the ACT sequence ``rows``.

        Exactly equivalent to ``len(rows) * times`` sequential
        :meth:`on_act` calls: the bounded FIFO's final content is the last
        ``window`` elements of the repeated sequence, which this builds
        directly (a rotation of ``rows``) instead of appending one by one.
        The batched host path calls this once per compiled chunk, between
        REFs, so the buffer a TRR-capable REF samples from is
        bit-identical to the unrolled execution's.
        """
        # one bulk conversion; per-element int() calls dominate otherwise
        seq = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
        times = int(times)
        n = len(seq)
        total = n * times
        if total == 0:
            return
        self.acts_seen += total
        buf = self._buffer(bank)
        window = self.window
        if total < window:
            buf.extend(seq * times)
            return
        # only the tail survives the FIFO: it starts at element
        # total - window of the repeated sequence, i.e. at that offset
        # (mod n) into ``seq``
        start = (total - window) % n
        rotated = seq[start:] + seq[:start]
        buf.clear()
        buf.extend((rotated * (window // n + 1))[:window])

    def on_ref(self, bank: int, now_ns: float) -> list[int]:
        self.refs_seen += 1
        count = self._ref_counter.get(bank, 0) + 1
        self._ref_counter[bank] = count
        # One in `capable_ref_period` REFs performs a targeted refresh, at
        # unpredictable positions (U-TRR finds no fixed phase): a fixed
        # phase would let an attacker park the dummy flood exactly on the
        # capable REFs and starve the sampler deterministically.
        if self._rng.random() >= 1.0 / self.capable_ref_period:
            return []
        buffer = self._buffer(bank)
        if not buffer:
            return []
        index = int(self._rng.integers(0, len(buffer)))
        sampled = buffer[index]
        buffer.clear()
        self.targeted_refreshes += 1
        return [sampled]
