"""Batched, bit-identical replacement for :class:`TraceGenerator`.

``TraceGenerator.__next__`` makes three to four scalar calls on a numpy
``Generator`` per trace entry (geometric gap, Lemire-bounded bank/row
integers, locality/write uniforms), and the §8.2 memory-system simulator
consumes tens of thousands of entries per run.  Scalar ``Generator``
calls are ~1--3 microseconds each, almost all dispatch overhead.

:class:`BatchedTraceGenerator` produces the *same entry stream, bit for
bit*, by pulling raw 64-bit words from the underlying PCG64 in bulk
(``bit_generator.random_raw``) and replaying numpy's own scalar
algorithms in plain Python arithmetic:

* ``random()``      -> ``(word >> 11) * 2**-53``
* ``integers(0,n)`` -> Lemire multiply-shift on 32-bit halves, low half
  first, with the spare half buffered across calls exactly like
  PCG64's internal ``next_uint32`` buffer (power-of-two ``n`` only, so
  the rejection loop never triggers)
* ``geometric(p)``  -> ``ceil(-E / log1p(-p))`` where ``E`` replays the
  256-layer ziggurat of ``random_standard_exponential`` using the
  tables in :mod:`._ziggurat` (inversion path only, i.e. ``p < 1/3``)

Because this mirrors numpy internals, it could silently diverge on a
numpy build with different tables or bounded-integer algorithms.  Guard:
the first construction runs :func:`emulation_matches`, which compares a
few thousand emulated entries against the scalar ``TraceGenerator``, and
raises on a mismatch; a profile outside the emulatable envelope raises
too.  Every shipped profile is inside it.

:class:`TraceTape` records one generator's stream, packed one ``int64``
per entry, so a stream is generated once and replayed many times: the
Fig. 25 sweep runs every mix 15 times over the same four
``(profile, seed)`` streams, and each run walks the mix's shared tapes
with its own cursors, extending a tape only past the furthest point any
earlier run reached.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Iterable, Optional

from ._ziggurat import FE_DOUBLE, KE_DOUBLE, WE_DOUBLE, ZIGGURAT_EXP_R
from .profiles import WorkloadProfile
from .traces import ROWS_PER_BANK, TraceGenerator

import math

_TWO53 = 2.0 ** -53
#: raw words fetched per refill; one trace entry consumes ~3.5 words
_BLOCK_WORDS = 4096
#: entries precomputed per refill
_BLOCK_ENTRIES = _BLOCK_WORDS // 4
#: entries compared against the scalar path by the one-time self-check
_SELFCHECK_ENTRIES = 2048

_emulation_ok: Optional[bool] = None


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class BatchedTraceGenerator:
    """``TraceGenerator``'s identical entry stream, generated in bulk.

    Entries come in blocks of plain ``(gap, bank, row, is_write)``
    tuples from :meth:`next_block` (what :class:`TraceTape` records).
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        rows_per_bank: int = ROWS_PER_BANK,
        working_set_rows: int = 512,
    ) -> None:
        self.profile = profile
        self.rows_per_bank = rows_per_bank
        self.working_set_rows = min(working_set_rows, rows_per_bank)
        mean_gap = 1000.0 / profile.mpki
        p = 1.0 / max(1.0, mean_gap)
        if not (
            p < 0.333333  # numpy switches geometric to its search path
            and _is_pow2(profile.bank_spread)
            and _is_pow2(self.working_set_rows)
        ):
            raise ValueError(
                f"profile {profile.name!r} is outside the emulation "
                "envelope (mpki below 333.3, power-of-two bank_spread and "
                "working_set_rows)"
            )
        if not emulation_matches():
            raise RuntimeError(
                "the trace emulation no longer matches this numpy build's "
                "TraceGenerator stream"
            )
        scalar = TraceGenerator(
            profile, seed=seed, rows_per_bank=rows_per_bank,
            working_set_rows=working_set_rows,
        )
        self._bitgen = scalar._rng.bit_generator
        self._p_denom = math.log1p(-p)
        self._words: list[int] = []
        self._pos = 0
        self._half: Optional[int] = None
        self._last: dict[int, int] = {}

    # ------------------------------------------------------------------
    def next_block(self) -> list[tuple[int, int, int, bool]]:
        """The next ``_BLOCK_ENTRIES`` entries, from bulk raw words.

        Replays the exact per-entry draw sequence of
        ``TraceGenerator.__next__``: geometric gap, bank, an optional
        locality uniform, an optional row draw, then the write uniform.
        """
        profile = self.profile
        spread = profile.bank_spread
        working_set = self.working_set_rows
        locality = profile.row_locality
        read_fraction = profile.read_fraction
        denom = self._p_denom
        last = self._last
        half = self._half
        words = self._words
        pos = self._pos
        n_words = len(words)
        bitgen = self._bitgen
        we, ke, fe = WE_DOUBLE, KE_DOUBLE, FE_DOUBLE
        log1p, exp, ceil = math.log1p, math.exp, math.ceil
        out = []
        for _ in range(_BLOCK_ENTRIES):
            # geometric gap via the ziggurat standard exponential
            while True:
                if pos >= n_words:
                    words = bitgen.random_raw(_BLOCK_WORDS).tolist()
                    pos, n_words = 0, _BLOCK_WORDS
                ri = words[pos] >> 3
                pos += 1
                idx = ri & 0xFF
                ri >>= 8
                x = ri * we[idx]
                if ri < ke[idx]:
                    break
                if pos >= n_words:
                    words = bitgen.random_raw(_BLOCK_WORDS).tolist()
                    pos, n_words = 0, _BLOCK_WORDS
                u = (words[pos] >> 11) * _TWO53
                pos += 1
                if idx == 0:
                    x = ZIGGURAT_EXP_R - log1p(-u)
                    break
                if (fe[idx - 1] - fe[idx]) * u + fe[idx] < exp(-x):
                    break
            gap = ceil(-x / denom)
            # bank: Lemire-bounded 32-bit draw, low half first
            if half is None:
                if pos >= n_words:
                    words = bitgen.random_raw(_BLOCK_WORDS).tolist()
                    pos, n_words = 0, _BLOCK_WORDS
                w = words[pos]
                pos += 1
                bank = ((w & 0xFFFFFFFF) * spread) >> 32
                half = w >> 32
            else:
                bank = (half * spread) >> 32
                half = None
            # row: locality uniform only once the bank has history
            last_row = last.get(bank)
            row = -1
            if last_row is not None:
                if pos >= n_words:
                    words = bitgen.random_raw(_BLOCK_WORDS).tolist()
                    pos, n_words = 0, _BLOCK_WORDS
                if (words[pos] >> 11) * _TWO53 < locality:
                    row = last_row
                pos += 1
            if row < 0:
                if half is None:
                    if pos >= n_words:
                        words = bitgen.random_raw(_BLOCK_WORDS).tolist()
                        pos, n_words = 0, _BLOCK_WORDS
                    w = words[pos]
                    pos += 1
                    row = ((w & 0xFFFFFFFF) * working_set) >> 32
                    half = w >> 32
                else:
                    row = (half * working_set) >> 32
                    half = None
            last[bank] = row
            # read/write split
            if pos >= n_words:
                words = bitgen.random_raw(_BLOCK_WORDS).tolist()
                pos, n_words = 0, _BLOCK_WORDS
            is_write = (words[pos] >> 11) * _TWO53 > read_fraction
            pos += 1
            out.append((gap, bank, row, is_write))
        self._words = words
        self._pos = pos
        self._half = half
        return out


#: bit layout of one packed tape entry, low to high: is_write (1 bit),
#: row (16), bank (8), gap (38); memsys/eventloop.c reads the same layout
ROW_SHIFT = 1
BANK_SHIFT = 17
GAP_SHIFT = 25
ROW_MASK = (1 << (BANK_SHIFT - ROW_SHIFT)) - 1
BANK_MASK = (1 << (GAP_SHIFT - BANK_SHIFT)) - 1
_GAP_LIMIT = 1 << (63 - GAP_SHIFT)


def unpack_entry(word: int) -> tuple[int, int, int, bool]:
    """A packed tape entry as a ``(gap, bank, row, is_write)`` tuple."""
    return (
        word >> GAP_SHIFT,
        (word >> BANK_SHIFT) & BANK_MASK,
        (word >> ROW_SHIFT) & ROW_MASK,
        bool(word & 1),
    )


class TraceTape:
    """Append-only packed record of one ``(profile, seed)`` trace stream.

    ``entries`` is an ``array('q')`` holding one packed int per entry
    (layout above); readers keep their own cursor and call :meth:`grow`
    when it reaches the end.  ``grow`` extends the array in place, so a
    reader's alias of ``entries`` stays valid.
    """

    __slots__ = ("profile", "seed", "entries", "_source")

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self.entries = array("q")
        self._source = BatchedTraceGenerator(profile, seed=seed)

    def grow(self) -> None:
        """Record the generator's next block of entries."""
        self.extend(self._source.next_block())

    def extend(self, block: Iterable[tuple[int, int, int, bool]]) -> None:
        """Pack and append ``(gap, bank, row, is_write)`` entries.

        Raises ``OverflowError`` for a field outside its packed width
        rather than letting it spill into a neighbouring field; a
        rejected block appends nothing.
        """
        packed = []
        for gap, bank, row, is_write in block:
            if not (0 <= gap < _GAP_LIMIT and 0 <= bank <= BANK_MASK
                    and 0 <= row <= ROW_MASK):
                raise OverflowError(
                    f"trace entry {(gap, bank, row, is_write)} exceeds the "
                    "packed tape layout"
                )
            packed.append(
                gap << GAP_SHIFT | bank << BANK_SHIFT | row << ROW_SHIFT
                | bool(is_write)
            )
        self.entries.extend(packed)


def emulation_matches() -> bool:
    """One-time check that the word-level emulation matches numpy.

    Compares a few thousand entries from ``BatchedTraceGenerator``
    against the scalar ``TraceGenerator`` for a probe profile chosen to
    exercise every draw path (locality hits and misses, reads and
    writes, ziggurat overflow layers).  Cached after the first call.
    """
    global _emulation_ok
    if _emulation_ok is None:
        probe = WorkloadProfile(
            "fast-trace-selfcheck", "internal", mpki=30.0,
            row_locality=0.5, bank_spread=4, read_fraction=0.67,
        )
        scalar = TraceGenerator(probe, seed=12345)
        batched = BatchedTraceGenerator.__new__(BatchedTraceGenerator)
        batched.profile = probe
        batched.rows_per_bank = ROWS_PER_BANK
        batched.working_set_rows = 512
        batched._bitgen = TraceGenerator(probe, seed=12345)._rng.bit_generator
        batched._p_denom = math.log1p(-probe.mpki / 1000.0)
        batched._words = []
        batched._pos = 0
        batched._half = None
        batched._last = {}
        try:
            emulated: list[tuple[int, int, int, bool]] = []
            while len(emulated) < _SELFCHECK_ENTRIES:
                emulated.extend(batched.next_block())
            _emulation_ok = emulated[:_SELFCHECK_ENTRIES] == [
                (e.gap_instructions, e.bank, e.row, e.is_write)
                for e in itertools.islice(scalar, _SELFCHECK_ENTRIES)
            ]
        except Exception:
            _emulation_ok = False
    return _emulation_ok
