"""The §4.2 search policy on its own, against a synthetic threshold chip.

:func:`hc_first_search` is driven by hand with an oracle that flips a
probe iff its count reaches a threshold ``T``, so the policy (bracketing,
1% convergence, memoization across repeats, best-of-repeats) is pinned
without any device model or probe engine underneath.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.hcfirst import (
    CONVERGENCE,
    DEFAULT_MAX_HAMMERS,
    FIRST_GUESS,
    ProbeResult,
    hc_first_search,
)


def drive(threshold, repeats=1, max_hammers=DEFAULT_MAX_HAMMERS):
    """Run the search on the threshold oracle; returns (yielded, result)."""
    search = hc_first_search(repeats, max_hammers)
    yielded = []
    try:
        count = next(search)
        while True:
            yielded.append(count)
            flips = int(count >= threshold)
            count = search.send(ProbeResult(count, flips))
    except StopIteration as stop:
        return yielded, stop.value


@st.composite
def searches(draw):
    # the first probe is FIRST_GUESS whatever the cap, so a cap below it
    # can report a flip above the cap; draw caps the search can honour
    max_hammers = draw(st.integers(FIRST_GUESS, 10 * DEFAULT_MAX_HAMMERS))
    threshold = draw(st.integers(1, 2 * max_hammers))
    repeats = draw(st.integers(1, 5))
    return threshold, repeats, max_hammers


@given(searches())
def test_search_policy(case):
    threshold, repeats, max_hammers = case
    yielded, result = drive(threshold, repeats, max_hammers)
    assert result.found == (threshold <= max_hammers)
    assert result.probes == len(result.history)
    assert len(set(yielded)) == len(yielded)
    # repeats after the first are answered from the memo and converge on
    # the first repeat's answer
    assert drive(threshold, 1, max_hammers) == (yielded, result)
    if not result.found:
        assert result.history[-1].count == max_hammers
        assert all(probe.flips == 0 for probe in result.history)
        return
    high = result.hc_first
    low = max(
        (probe.count for probe in result.history if probe.flips == 0),
        default=0,
    )
    assert low < threshold <= high
    assert high == min(p.count for p in result.history if p.flips)
    assert high - low <= 1 or high - low <= CONVERGENCE * high


def test_threshold_one_bisects_to_one():
    yielded, result = drive(1)
    assert yielded == [1024, 512, 256, 128, 64, 32, 16, 8, 4, 2, 1]
    assert result.hc_first == 1


def test_threshold_at_first_guess():
    yielded, result = drive(1024)
    assert yielded == [1024, 512, 768, 896, 960, 992, 1008, 1016]
    assert result.hc_first == 1024


def test_threshold_above_first_guess_widens_then_bisects():
    yielded, result = drive(5000)
    assert yielded == [
        1024, 4096, 16384, 10240, 7168, 5632, 4864, 5248, 5056, 4960, 5008,
    ]
    assert result.hc_first == 5008


def test_threshold_above_cap_is_not_found():
    yielded, result = drive(DEFAULT_MAX_HAMMERS + 1, repeats=5)
    assert yielded == [
        1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 8000000,
    ]
    assert not result.found
    assert not result.converged
    assert result.cache_hits == 0
