"""HC_first measurement: the bisection algorithm of §4.2.

The paper finds the minimum hammer count inducing the first bitflip with a
bisection search, terminating when consecutive estimates differ by no more
than 1%, repeating the search five times per row and reporting the minimum.

The probe primitive initializes aggressor and victim rows, runs a hammer
program for ``count`` iterations, reads the victims back and counts flips.
Everything flows through the DRAM Bender host, so a measurement exercises
the exact command path a real experiment would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

import numpy as np

from ..bender.host import DramBenderHost
from ..bender.program import TestProgram
from ..disturbance.calibration import DataPattern
from ..dram.module import DramModule
from .metrics import count_flips

#: Search gives up beyond this hammer count (no bitflip observable within a
#: refresh window on the weakest tested configuration needs ~5M hammers).
DEFAULT_MAX_HAMMERS = 8_000_000

#: Relative convergence threshold (§4.2: 1%).
CONVERGENCE = 0.01

#: First upper bound each search probes before widening.
FIRST_GUESS = 1024


@dataclass
class ProbeSetup:
    """Everything needed to run one hammer-count probe.

    ``program`` is the hammer program as a template, run as
    ``program.bind(count)``; ``row_data`` maps *physical* rows to their
    initialization bytes; ``victims`` are the physical rows checked for
    flips.
    """

    module: DramModule
    program: TestProgram
    row_data: dict[int, np.ndarray]
    victims: Sequence[int]
    bank: int = 0

    def victim_expected(self, victim: int) -> np.ndarray:
        try:
            return self.row_data[victim]
        except KeyError:
            raise KeyError(f"victim {victim} missing from row_data") from None


@dataclass
class ProbeResult:
    count: int
    flips: int
    flipped_victims: tuple[int, ...] = ()


@dataclass
class HcFirstResult:
    """Outcome of an HC_first search for one victim (set)."""

    hc_first: Optional[float]
    converged: bool
    probes: int
    history: list[ProbeResult] = field(default_factory=list)
    #: probes answered from the memo instead of running the command path
    cache_hits: int = 0

    @property
    def found(self) -> bool:
        return self.hc_first is not None and math.isfinite(self.hc_first)


def run_probe(setup: ProbeSetup, count: int, host: Optional[DramBenderHost] = None) -> ProbeResult:
    """Initialize rows, hammer ``count`` times, and count victim bitflips."""
    host = host or DramBenderHost(setup.module)
    logical = {
        setup.module.to_logical(row): data for row, data in setup.row_data.items()
    }
    host.write_rows(setup.bank, logical)
    if count > 0:
        host.run(setup.program.bind(count))
    read_back = host.read_rows(
        setup.bank, [setup.module.to_logical(v) for v in setup.victims]
    )
    flips = 0
    flipped = []
    for victim in setup.victims:
        data = read_back[setup.module.to_logical(victim)]
        expected = setup.victim_expected(victim)
        n = count_flips(data, expected)
        if n:
            flipped.append(victim)
        flips += n
    return ProbeResult(count, flips, tuple(flipped))


def hc_first_search(
    repeats: int = 5, max_hammers: int = DEFAULT_MAX_HAMMERS
) -> Generator[int, ProbeResult, HcFirstResult]:
    """The §4.2 HC_first search as a coroutine over probe outcomes.

    Each repeat quadruples an upper bound from :data:`FIRST_GUESS` until a
    probe flips (or the cap is hit), then bisects between the highest
    flip-free count and the lowest flipping count until consecutive
    estimates agree within :data:`CONVERGENCE`.  The best of ``repeats``
    searches is returned (§4.2 reports the minimum of five).

    The generator yields every count whose outcome it does not yet know
    and expects that probe's :class:`ProbeResult` back through ``send``.
    A probe reinitializes every aggressor and victim row before
    hammering, so its outcome depends only on the count: results are
    memoized across repeats, and each repeat is warm-started with the
    bracket the previous ones established, so on a deterministic chip
    repeats after the first yield nothing.
    """
    cache: dict[int, ProbeResult] = {}
    bracket: Optional[tuple[int, int]] = None
    best: Optional[HcFirstResult] = None
    for _ in range(max(1, repeats)):
        if bracket is None:
            low, high = 0, FIRST_GUESS
        else:
            high = max(2, bracket[1])
            low = min(bracket[0], high - 1)
        history: list[ProbeResult] = []
        cache_hits = 0
        bisecting = False
        # bisection stops once the bracket shrinks within the convergence
        # threshold: successive estimates then differ by no more than 1%
        # of the previous estimate, the paper's stopping rule
        while not bisecting or (
            high - low > 1 and high - low > CONVERGENCE * high
        ):
            count = (low + high) // 2 if bisecting else high
            probe = cache.get(count)
            if probe is None:
                probe = cache[count] = yield count
            else:
                cache_hits += 1
            history.append(probe)
            if bisecting:
                if probe.flips:
                    high = count
                else:
                    low = count
            elif probe.flips:
                bisecting = True
            elif high >= max_hammers:
                break
            else:
                low, high = high, min(max_hammers, high * 4)
        result = HcFirstResult(
            float(high) if bisecting else None, bisecting, len(history),
            history, cache_hits,
        )
        if result.found:
            # Tighten, never widen: a warm-started repeat's history may
            # hold only the single (cached) confirming probe, which says
            # nothing about the flip-free bound established earlier.
            flip_free = [
                probe.count for probe in history
                if probe.flips == 0 and probe.count < high
            ]
            if bracket is not None:
                flip_free.append(bracket[0])
            bracket = (max(flip_free, default=0), high)
        if best is None or result.found and (
            not best.found or result.hc_first < best.hc_first
        ):
            best = result
    assert best is not None
    return best


def find_hc_first_repeated(
    setup: ProbeSetup,
    repeats: int = 5,
    max_hammers: int = DEFAULT_MAX_HAMMERS,
) -> HcFirstResult:
    """Run :func:`hc_first_search` on ``setup`` through the command path.

    The simulated chip is deterministic, so repeats agree exactly; the knob
    is kept for methodological fidelity and for future stochastic models.
    """
    search = hc_first_search(repeats, max_hammers)
    try:
        count = next(search)
        while True:
            count = search.send(run_probe(setup, count))
    except StopIteration as stop:
        return stop.value


def standard_row_data(
    module: DramModule,
    aggressors: Sequence[int],
    victims: Sequence[int],
    aggressor_pattern: DataPattern,
) -> dict[int, np.ndarray]:
    """§4.2 initialization: aggressors hold the pattern, victims its negation."""
    nbytes = module.geometry.row_bytes
    data: dict[int, np.ndarray] = {}
    for row in aggressors:
        data[row] = aggressor_pattern.fill(nbytes)
    for row in victims:
        data[row] = aggressor_pattern.negated.fill(nbytes)
    return data
