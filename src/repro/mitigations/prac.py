"""Per Row Activation Counting (PRAC) adapted to PuD operations (§8.2).

PRAC (JEDEC DDR5, April 2024) keeps an activation counter per DRAM row;
when a counter crosses the read-disturbance threshold (RDT) the chip
asserts a *back-off* signal, forcing the memory controller to issue an RFM
command during which the chip preventively refreshes potential victims.

PuD breaks PRAC's one-ACT-one-counter assumption: a SiMRA operation
activates up to 32 rows with two ACT commands.  Following the paper we
place counters in a dedicated mat (Panopticon) -- counters co-located with
the data rows would be destroyed by SiMRA's overwriting (§8.2 footnote 8)
-- and model two counter-update organizations with one
:class:`PracConfig` flag, ``sequential_updates``:

* PRAC-AO (area-optimized, ``sequential_updates=True``) -- one
  incrementer: an op touching N rows blocks the bank for (N - 1) x tRC
  more (a SiMRA-32 op ~1.5 us, see :meth:`PracConfig.update_latency_ns`).
* PRAC-PO (performance-optimized, the default) -- N incrementers, all
  counters update within tRC.

Either may use *weighted counting*: instead of lowering the RDT to
SiMRA's worst-case HC_first (~20), each operation type adds its
equivalent RowHammer damage: SiMRA counts as 4K/20 = 200 hammers, CoMRA
as 4K/400 = 10 (§8.2).  The evaluated variants are
:meth:`PracConfig.po_naive` (PRAC-PO-Naive: parallel, unweighted, RDT
20), :meth:`PracConfig.po_weighted` (PRAC-PO-WC) and
:meth:`PracConfig.ao_weighted` (PRAC-AO-WC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence


class OpClass(str, Enum):
    """Row-activation classes PRAC must account for."""

    ACT = "act"
    COMRA = "comra"
    SIMRA = "simra"


#: Lowest HC_first values the paper's characterization feeds into the
#: weighted-counting optimization (§8.2): RowHammer ~4K, CoMRA ~400,
#: SiMRA ~20.
LOWEST_HC_ROWHAMMER = 4096
LOWEST_HC_COMRA = 400
LOWEST_HC_SIMRA = 20

#: Weighted-counting weights: lowest RowHammer HC_first divided by the
#: operation's lowest HC_first (SiMRA = 200, CoMRA = 10).
WEIGHT_SIMRA = LOWEST_HC_ROWHAMMER // LOWEST_HC_SIMRA
WEIGHT_COMRA = LOWEST_HC_ROWHAMMER // LOWEST_HC_COMRA


@dataclass(frozen=True)
class PracConfig:
    """One PRAC variant's parameters."""

    name: str
    #: read-disturbance threshold at which back-off asserts
    rdt: int
    #: per-op counter increments
    weights: dict = field(default_factory=lambda: {OpClass.ACT: 1})
    #: counter-update latency model: extra bank-blocking nanoseconds per
    #: op as a function of the number of simultaneously updated counters
    sequential_updates: bool = False
    #: tRC used for sequential counter updates (ns)
    t_rc_ns: float = 48.0

    def weight_for(self, op: OpClass) -> int:
        return int(self.weights.get(op, 1))

    def update_latency_ns(self, rows_touched: int) -> float:
        """Bank-blocking time spent updating counters for one operation."""
        if not self.sequential_updates or rows_touched <= 1:
            return 0.0
        return self.t_rc_ns * (rows_touched - 1)

    @classmethod
    def po_naive(cls) -> "PracConfig":
        """PRAC-PO-Naive: parallel updates, RDT lowered to SiMRA's worst
        case (20) so plain counting stays secure."""
        return cls(
            name="PRAC-PO-Naive",
            rdt=LOWEST_HC_SIMRA,
            weights={OpClass.ACT: 1, OpClass.COMRA: 1, OpClass.SIMRA: 1},
        )

    @classmethod
    def po_weighted(cls) -> "PracConfig":
        """PRAC-PO-WC: parallel updates with weighted contributions."""
        return cls(
            name="PRAC-PO-WC",
            rdt=LOWEST_HC_ROWHAMMER,
            weights={
                OpClass.ACT: 1,
                OpClass.COMRA: WEIGHT_COMRA,
                OpClass.SIMRA: WEIGHT_SIMRA,
            },
        )

    @classmethod
    def ao_weighted(cls) -> "PracConfig":
        """PRAC-AO with weighted counting: correct but serializes counter
        updates (the §8.2 area-optimized strawman)."""
        return cls(
            name="PRAC-AO-WC",
            rdt=LOWEST_HC_ROWHAMMER,
            weights={
                OpClass.ACT: 1,
                OpClass.COMRA: WEIGHT_COMRA,
                OpClass.SIMRA: WEIGHT_SIMRA,
            },
            sequential_updates=True,
        )


@dataclass
class BackOffEvent:
    """The chip's demand for an RFM, surfaced to the memory controller."""

    bank: int
    hottest_row: int
    counter_value: int


class PracCounters:
    """Panopticon-style per-row activation counters for one bank.

    The counter mat is separate from data rows, so SiMRA cannot destroy
    counter state; the cost surfaces purely as update latency
    (:meth:`PracConfig.update_latency_ns`).

    ``warm_start`` initializes each row's counter to a deterministic
    pseudo-random phase in [0, 0.9 * RDT): the simulation models a slice of
    a long-running system whose counters are mid-way to their thresholds,
    so back-off rates reach steady state immediately instead of after a
    full RDT's worth of warm-up traffic.
    """

    def __init__(self, bank: int, config: PracConfig, warm_start: bool = False) -> None:
        self.bank = bank
        self.config = config
        self.warm_start = warm_start
        self._counters: dict[int, int] = {}
        self._pending_backoff: Optional[BackOffEvent] = None
        self.stats = {"updates": 0, "backoffs": 0, "rfms": 0}

    def _initial(self, row: int) -> int:
        if not self.warm_start:
            return 0
        # stable per-(bank, row) phase; memsys/eventloop.c computes the
        # same value for the memory-system kernel
        phase = ((row * 0x9E3779B1 + self.bank * 0x85EBCA77) >> 7) & 0xFFFF
        return int(phase / 0x10000 * 0.9 * self.config.rdt)

    def counter(self, row: int) -> int:
        value = self._counters.get(row)
        if value is None:
            value = self._initial(row)
            self._counters[row] = value
        return value

    @property
    def back_off_pending(self) -> Optional[BackOffEvent]:
        return self._pending_backoff

    def record(self, rows: Sequence[int], op: OpClass, times: int = 1) -> float:
        """Account ``times`` repetitions of one operation touching ``rows``.

        Returns the extra bank-blocking latency of the counter updates
        (zero for parallel organizations), ``times`` updates' worth: the
        totals equal ``times`` separate calls exactly, because the sums
        are integer-valued.
        """
        config = self.config
        reps = max(1, int(times))
        weight = config.weight_for(op) * reps
        counters = self._counters
        get = counters.get
        initial = self._initial
        hottest_row = -1
        hottest = -1
        for row in rows:
            value = get(row)
            if value is None:
                value = initial(row)
            value += weight
            counters[row] = value
            if value > hottest:
                hottest, hottest_row = value, row
        self.stats["updates"] += len(rows) * reps
        if hottest >= config.rdt and self._pending_backoff is None:
            self._pending_backoff = BackOffEvent(self.bank, hottest_row, hottest)
            self.stats["backoffs"] += 1
        return config.update_latency_ns(len(rows)) * reps

    def increments(self, run) -> Optional[dict[int, int]]:
        """Per-row counter increments made while ``run()`` executes.

        None when an RFM served meanwhile reset counters, which hides the
        increments.
        """
        before = dict(self._counters)
        rfms = self.stats["rfms"]
        run()
        if self.stats["rfms"] != rfms:
            return None
        out: dict[int, int] = {}
        for row, value in self._counters.items():
            old = before.get(row)
            if old is None:
                old = self._initial(row)
            if value != old:
                out[row] = value - old
        return out

    def serve_rfm(self) -> list[int]:
        """The controller issued RFM: refresh victims, clear hot counters.

        Returns the rows whose counters were reset (the refreshed
        aggressors' neighborhoods are implicitly covered by the chip).
        """
        self.stats["rfms"] += 1
        self._pending_backoff = None
        hot = [
            row
            for row, value in self._counters.items()
            if value >= self.config.rdt
        ]
        for row in hot:
            self._counters[row] = 0
        return hot
