"""Differential fuzz: the host's stream path against pure interpretation.

Hypothesis draws a random ``Loop`` program on one module: one to four
loop segments, each double- or single-sided RowHammer/RowPress, CoMRA,
SiMRA-4 or a dummy-row flood, with random extra slack before its first
ACT and a random count.  A segment is a plain streamable ``Loop``, a
``Loop`` nested inside an outer one with a NOP (the outer body does not
stream, the inner one does), or an unstreamable body (an RD, a REF or a
second bank inside it).  REFs and NOPs may sit between segments, and no
hook, a sampling TRR, a weighted TRR or one of the three PRAC variants
is attached.  The same program runs on two fresh modules, once with
``compile_streams=True`` and once with ``compile_streams=False`` (the
reference).  Row data, reads and flips must agree exactly, as must the
bank counters, the clock, every targeted refresh (rows and timestamp)
and which rows hold which damage pools.

Damage *values* are not compared on the random draws: the two-pass
stream is known to leave unrolled in three ways, which
:data:`KNOWN_DIVERGENCES` pins as strict expected failures (damage to
rel 1e-12 there): the scaled residue on activated rows and the
unflushed synergy window, either of which would fail most draws, and
the scaled pass's session absorbed into a multi-row activation right
after a loop, which the draws avoid by starting every loop period at
tRP or later.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_module
from repro.attack.mitigations import PracHook, WeightedSamplingTrr
from repro.bender.host import DramBenderHost
from repro.bender.program import ProgramBuilder
from repro.core import patterns
from repro.disturbance.calibration import ALL_PATTERNS
from repro.mitigations.prac import PracConfig
from repro.obs import Obs
from repro.trr import SamplingTrr

CONFIG = "hynix-a-8gb"
#: a victim with a same-subarray sandwich; its SiMRA-4 group sits below it
VICTIM = 2 * 96 + 40
DUMMY = VICTIM + 30

#: a short draw per tier-1 run; ``HYPOTHESIS_PROFILE=ci`` soaks with that
#: profile's larger budget (registered in tests/conftest.py)
EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 10
)

MECHANISMS = ("double", "single", "comra", "simra", "dummy")
WRAPS = ("plain", "nested", "rd", "ref", "two_banks")
HOOKS = (None, "trr", "weighted", "prac-po-naive", "prac-po-wc", "prac-ao-wc")
PRAC = {
    "prac-po-naive": PracConfig.po_naive,
    "prac-po-wc": PracConfig.po_weighted,
    "prac-ao-wc": PracConfig.ao_weighted,
}


segments = st.fixed_dictionaries(dict(
    mechanism=st.sampled_from(MECHANISMS),
    wrap=st.sampled_from(WRAPS),
    count=st.integers(1, 300),
    outer=st.integers(1, 3),
    slack_ns=st.sampled_from((0.0, 1.5, 3.0, 30.0)),
    t_agg_on_ns=st.sampled_from((36.0, 72.0, 336.0)),
    comra_delay_ns=st.sampled_from((7.5, 9.0, 10.5)),
    ref_after=st.booleans(),
    nop_after_ns=st.sampled_from((0.0, 1.5, 700.0)),
))


@st.composite
def cases(draw):
    return dict(
        segments=draw(st.lists(segments, min_size=1, max_size=4)),
        hook=draw(st.sampled_from(HOOKS)),
        seed=draw(st.integers(0, 2**16)),
        pattern=draw(st.sampled_from(ALL_PATTERNS)),
    )


def _simra_pair(module):
    return patterns.simra_pair_for(module, (VICTIM // 32) * 32, 4)


def _body(module, segment) -> ProgramBuilder:
    """One period of the segment's mechanism, on bank 0."""
    timing = module.timing
    trp, tras = timing.tRP, timing.tRAS
    first = trp + segment["slack_ns"]
    on = segment["t_agg_on_ns"]
    logical = module.to_logical
    body = ProgramBuilder()
    mechanism = segment["mechanism"]
    if mechanism == "double":
        body.act(0, logical(VICTIM - 1), first).pre(0, on)
        body.act(0, logical(VICTIM + 1), trp).pre(0, on)
    elif mechanism == "single":
        body.act(0, logical(VICTIM - 1), first).pre(0, on)
    elif mechanism == "comra":
        body.act(0, logical(VICTIM - 1), first).pre(0, tras)
        body.act(0, logical(VICTIM + 1), segment["comra_delay_ns"]).pre(0, on)
    elif mechanism == "simra":
        pair = _simra_pair(module)
        body.act(0, logical(pair.row_a), first)
        body.pre(0, patterns.SIMRA_ACT_TO_PRE_NS)
        body.act(0, logical(pair.row_b), patterns.SIMRA_PRE_TO_ACT_NS)
        body.pre(0, on)
    else:  # dummy
        body.act(0, logical(DUMMY), first).pre(0, tras)
    return body


def build_program(module, case):
    builder = ProgramBuilder("fuzz")
    for segment in case["segments"]:
        body = _body(module, segment)
        wrap = segment["wrap"]
        if wrap == "nested":
            outer = ProgramBuilder().loop(segment["count"], body).nop(3.0)
            builder.loop(segment["outer"], outer)
            continue
        if wrap == "rd":
            row = module.to_logical(VICTIM - 1)
            body.act(0, row, module.timing.tRP).rd(0, row, 15.0).pre(0, 36.0)
        elif wrap == "ref":
            body.ref()
        elif wrap == "two_banks":
            body.act(1, 7, module.timing.tRP).pre(1, 36.0)
        builder.loop(segment["count"], body)
        if segment["nop_after_ns"]:
            builder.nop(segment["nop_after_ns"])
        if segment["ref_after"]:
            builder.ref()
    return builder.build()


def _rows(module, case) -> dict:
    """Initial images of every row the programs touch, or sandwich."""
    nbytes = module.geometry.row_bytes
    pattern = case["pattern"]
    rows = {
        row: pattern.negated.fill(nbytes) if (row - VICTIM) % 2 == 0
        else pattern.fill(nbytes)
        for row in range(VICTIM - 4, VICTIM + 5)
    }
    for row in _simra_pair(module).group:
        rows[row] = pattern.fill(nbytes)
    for row in (DUMMY - 1, DUMMY, DUMMY + 1):
        rows[row] = pattern.fill(nbytes)
    return rows


def _hook(module, case):
    name = case["hook"]
    if name is None:
        return None
    if name == "trr":
        return SamplingTrr(seed=case["seed"])
    if name == "weighted":
        return WeightedSamplingTrr(seed=case["seed"])
    return PracHook(module, PRAC[name](), warm_start=True)


def execute(case, compile_streams: bool) -> dict:
    module = make_module(CONFIG)
    module.attach_trr(_hook(module, case))
    bank = module.banks[0]
    refreshes = []
    refresh = bank.targeted_refresh

    def logged_refresh(aggressors, now_ns):
        refreshes.append((tuple(aggressors), now_ns))
        refresh(aggressors, now_ns)

    bank.targeted_refresh = logged_refresh
    obs = Obs()
    host = DramBenderHost(module, compile_streams=compile_streams, obs=obs)
    rows = _rows(module, case)
    host.write_rows(0, {module.to_logical(r): d for r, d in rows.items()})
    result = host.run(build_program(module, case))
    ledger = module.ledger
    damage = {
        ledger.key_of(slot): module.model.damage_fraction(
            *ledger.key_of(slot)
        )
        for slot in range(ledger.size)
    }
    stats = [dict(b.stats) for b in module.banks]
    now_ns = host.now_ns
    read_back = host.read_rows(0, [module.to_logical(r) for r in rows])
    flips = set()
    for logical, data in read_back.items():
        expected = rows[module.to_physical(logical)]
        diff = np.unpackbits(data) != np.unpackbits(expected)
        flips.update((logical, int(bit)) for bit in np.flatnonzero(diff))
    return dict(
        data={row: data.tobytes() for row, data in read_back.items()},
        reads=[(r.logical_row, r.data.tobytes(), r.at_ns)
               for r in result.reads],
        flips=flips,
        damage=damage,
        stats=stats,
        now_ns=now_ns,
        refreshes=refreshes,
        loops=obs.by_label("host.loops", "path"),
    )


def _case(**changes):
    segment = dict(
        mechanism="double", wrap="plain", count=300, outer=1, slack_ns=0.0,
        t_agg_on_ns=36.0, comra_delay_ns=7.5, ref_after=True,
        nop_after_ns=0.0,
    )
    case = dict(segments=[segment], hook=None, seed=0,
                pattern=ALL_PATTERNS[0])
    for key, value in changes.items():
        if key in segment:
            segment[key] = value
        else:
            case[key] = value
    return case


def assert_same(got, ref, damage: bool) -> None:
    """Exact agreement of everything but the damage values; those to rel
    1e-12 when ``damage`` is set."""
    for key in ("data", "reads", "flips", "stats", "now_ns", "refreshes"):
        assert got[key] == ref[key], key
    # the same rows hold the same damage pools
    assert {row: pools.keys() for row, pools in got["damage"].items()} == {
        row: pools.keys() for row, pools in ref["damage"].items()
    }
    if damage:
        for row, pools in ref["damage"].items():
            for pool, value in pools.items():
                assert got["damage"][row][pool] == pytest.approx(
                    value, rel=1e-12, abs=0.0
                ), (row, pool)


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases())
# a PRAC back-off inside a nested loop's inner stream, a TRR sampler
# across REFs inside an unstreamable body, and a CoMRA stream
@example(_case(wrap="nested", outer=3, hook="prac-po-naive"))
@example(_case(wrap="ref", count=40, hook="trr"))
@example(_case(mechanism="comra", hook="weighted", count=200))
def test_stream_matches_unrolled(case):
    got = execute(case, compile_streams=True)
    ref = execute(case, compile_streams=False)
    assert_same(got, ref, damage=False)
    # the reference interprets every loop; the fast host streams every
    # loop whose body compiles and interprets only the others
    assert set(ref["loops"]) == {"unrolled"}
    if any(s["wrap"] in ("plain", "nested") for s in case["segments"]):
        assert got["loops"].get("stream", 0) > 0, got["loops"]


def _joint_case():
    """A dummy flood of 3, then one dummy ACT 3 ns after its last PRE."""
    case = _case(mechanism="dummy", count=3, ref_after=False)
    joint = dict(case["segments"][0], count=1, slack_ns=3.0 - 13.5)
    case["segments"].append(joint)
    return case


#: the ways the two-pass stream is known to leave unrolled, each with no
#: hook and the first data pattern:
#:
#: * a row the period activates keeps the damage its partner deposits
#:   after its restore, and the scaled pass deposits that ``count - 1``
#:   times (row ``VICTIM - 1`` at count 3);
#: * a victim whose other neighbor was written just before the loop sees
#:   that hit inside the single-sided synergy window through both passes,
#:   where unrolled leaves the window after three periods (row ``VICTIM``
#:   under single-sided hammering: about 2.9x the damage, and at 300,000
#:   hammers bit flips the unrolled run does not have);
#: * the joint case: a dummy flood of 3 and one dummy ACT inside the
#:   multi-row window right after it.  Its last PRE is exact (see
#:   :func:`test_last_pre_after_a_scaled_loop`), so it opens the same
#:   multi-row activation both ways and departs in damage only: the
#:   session the ACT absorbs into the activation is the scaled pass's,
#:   which carries ``count - 1`` periods of damage, so the stream drops
#:   two hammers of the dummy's neighbors where unrolled drops one (rows
#:   ``DUMMY - 1`` and ``DUMMY + 1`` keep 75% and 58% of the unrolled
#:   damage).
#:
#: The random draws above therefore compare no damage values and start
#: every loop period at tRP or later.
KNOWN_DIVERGENCES = {
    "aggressor-residue": _case(count=3, ref_after=False),
    "synergy-window": _case(mechanism="single", count=300, ref_after=False),
    "copy-window-joint": _joint_case(),
}


def _known(name: str, reason: str):
    return pytest.param(name, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True, reason=reason,
    ))


@pytest.mark.parametrize("name", [
    _known("aggressor-residue", "scaled residue on activated rows"),
    _known("copy-window-joint", "damage only: the absorbed session "
           "carries the scaled pass's count - 1 periods"),
    _known("synergy-window", "an unflushed synergy window"),
])
def test_known_divergences(name):
    case = KNOWN_DIVERGENCES[name]
    assert_same(
        execute(case, compile_streams=True),
        execute(case, compile_streams=False),
        damage=True,
    )


def test_last_pre_after_a_scaled_loop():
    """After a loop of count 3, the stream path's last PRE is the last
    period's, as unrolled: a dummy ACT 3 ns after it opens the multi-row
    activation on both paths, and everything but damage agrees."""
    case = _joint_case()
    got = execute(case, compile_streams=True)
    ref = execute(case, compile_streams=False)
    assert got["stats"][0]["simra_ops"] == ref["stats"][0]["simra_ops"] == 1
    assert_same(got, ref, damage=False)
