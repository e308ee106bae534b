"""Compiled stream execution must be indistinguishable from unrolled.

Every case runs the same program twice on freshly instantiated modules:
once on the reference host (``compile_streams=False``, pure
per-instruction interpretation) and once on the default fast host.
Victim bytes must be byte-identical, flip sets identical, TRR stats
(including ``targeted_refreshes``, which depends on bit-exact sampler
buffer state at every capable REF) identical, and the clock must land on
the same nanosecond.  Every targeted refresh (TRR at a REF, PRAC back-off
mid-stream) must hit the same rows at the same timestamp.
"""

import numpy as np
import pytest

from repro.attack.mitigations import PracHook, WeightedSamplingTrr
from repro.bender.host import DramBenderHost
from repro.core import patterns
from repro.disturbance import Mechanism
from repro.dram import make_module
from repro.mitigations.prac import PracConfig
from repro.obs import Obs
from repro.trr import SamplingTrr

from ..trr_rounds import trr_round

CONFIG = "hynix-a-8gb"
VICTIM = 2 * 96 + 40


def _flip_bits(read_back: dict, expected: np.ndarray) -> set:
    flips = set()
    for row, data in read_back.items():
        diff = np.flatnonzero(np.unpackbits(data) != np.unpackbits(expected))
        flips.update((row, int(bit)) for bit in diff)
    return flips


def _execute(build_program, setup_rows, victims, hook_factory, fast, rounds=1):
    """One side of an equivalence comparison, on a fresh module."""
    module = make_module(CONFIG)
    hook = hook_factory(module) if hook_factory else None
    module.attach_trr(hook)
    bank = module.banks[0]
    refreshes = []
    refresh = bank.targeted_refresh

    def logged_refresh(aggressors, now_ns):
        refreshes.append((tuple(aggressors), now_ns))
        refresh(aggressors, now_ns)

    bank.targeted_refresh = logged_refresh
    obs = Obs()
    host = DramBenderHost(module, compile_streams=fast, obs=obs)
    rows, expected = setup_rows(module)
    host.write_rows(0, {module.to_logical(r): d for r, d in rows.items()})
    program = build_program(module)
    for _ in range(rounds):
        host.run(program)
    read_back = host.read_rows(0, [module.to_logical(v) for v in victims])
    return {
        "data": read_back,
        "flips": _flip_bits(read_back, expected),
        "trr": dict(hook.stats) if hook is not None else None,
        "bank": dict(bank.stats),
        "refreshes": refreshes,
        "now_ns": host.now_ns,
        "loops": obs.by_label("host.loops", "path"),
    }


def _assert_equivalent(fast, ref):
    assert fast["now_ns"] == ref["now_ns"]
    assert fast["trr"] == ref["trr"]
    assert fast["bank"] == ref["bank"]
    assert fast["refreshes"] == ref["refreshes"]
    assert fast["flips"] == ref["flips"]
    for row in ref["data"]:
        assert (fast["data"][row] == ref["data"][row]).all()


def _hammer_setup(aggressor_offsets, victims=(VICTIM,), base=VICTIM):
    def setup(module):
        pattern = module.model.worst_case_pattern(0, base, Mechanism.ROWHAMMER)
        nbytes = module.geometry.row_bytes
        rows = {base + off: pattern.fill(nbytes) for off in aggressor_offsets}
        expected = pattern.negated.fill(nbytes)
        for victim in victims:
            rows[victim] = expected.copy()
        return rows, expected

    return setup


def _compare(build_program, setup_rows, victims, hook_factory, rounds=1):
    fast = _execute(build_program, setup_rows, victims, hook_factory, True, rounds)
    ref = _execute(build_program, setup_rows, victims, hook_factory, False, rounds)
    _assert_equivalent(fast, ref)
    if hook_factory in PRAC_HOOKS.values():
        # back-offs fired, and the fast host never fell back to interpreting
        assert fast["trr"]["rfms"] > 0
        assert fast["loops"].get("stream", 0) > 0
        assert "unrolled" not in fast["loops"]
    return fast


SAMPLING = lambda module: SamplingTrr(seed=0)  # noqa: E731
WEIGHTED = lambda module: WeightedSamplingTrr(seed=0)  # noqa: E731


def _prac(config):
    # warm counters reach the RDT within a short program
    return lambda module: PracHook(module, config(), warm_start=True)


PRAC_HOOKS = {
    "prac-po-naive": _prac(PracConfig.po_naive),
    "prac-po-wc": _prac(PracConfig.po_weighted),
    "prac-ao-wc": _prac(PracConfig.ao_weighted),
}
#: PRAC refreshes the victims before HC_first, so PRAC cases hammer only
#: this long: far enough to serve RFMs, short enough for the reference
PRAC_HAMMERS = 6000


def _hammers(oracle, hook_factory):
    """Past HC_first so the comparison covers real flips (PRAC: capped)."""
    count = int(oracle * 1.25)
    if hook_factory in PRAC_HOOKS.values():
        return min(count, PRAC_HAMMERS)
    return count


def _assert_flips(fast, hook_factory):
    if hook_factory not in PRAC_HOOKS.values():
        assert fast["flips"]  # the comparison must cover real bitflips


@pytest.mark.parametrize(
    "hook_factory",
    [None, SAMPLING, *PRAC_HOOKS.values()],
    ids=["no-trr", "trr", *PRAC_HOOKS],
)
class TestLoopBodies:
    """Classical RowHammer / RowPress / CoMRA / SiMRA loop programs."""

    def test_rowhammer(self, hook_factory):
        oracle = make_module(CONFIG).model.reference_hcfirst(
            0, VICTIM, Mechanism.ROWHAMMER
        )
        count = _hammers(oracle, hook_factory)
        fast = _compare(
            lambda m: patterns.double_sided_rowhammer(m, VICTIM, count),
            _hammer_setup((-1, 1)),
            (VICTIM,),
            hook_factory,
        )
        _assert_flips(fast, hook_factory)

    def test_rowpress(self, hook_factory):
        _compare(
            lambda m: patterns.double_sided_rowhammer(
                m, VICTIM, 4000, t_agg_on_ns=336.0
            ),
            _hammer_setup((-1, 1)),
            (VICTIM,),
            hook_factory,
        )

    def test_comra(self, hook_factory):
        fast = _compare(
            lambda m: patterns.double_sided_comra(m, VICTIM, 3000),
            _hammer_setup((-1, 1)),
            (VICTIM,),
            hook_factory,
        )
        assert fast["bank"]["comra_copies"] > 0

    def test_simra(self, hook_factory):
        module = make_module(CONFIG)
        block_base = (VICTIM // 32) * 32
        pair = patterns.simra_pair_for(module, block_base, 4)
        victim = pair.sandwiched_victims()[0]
        oracle = module.model.reference_hcfirst(0, victim, Mechanism.SIMRA)
        count = _hammers(oracle, hook_factory)
        fast = _compare(
            lambda m: patterns.simra_hammer(m, pair, count),
            _hammer_setup(
                tuple(r - victim for r in pair.group), (victim,), victim
            ),
            (victim,),
            hook_factory,
        )
        assert fast["bank"]["simra_ops"] > 0
        _assert_flips(fast, hook_factory)


class TestFlatTrrPrograms:
    """§7 patterns: one ACT/PRE ``Loop`` per tREFI window, REFs between
    them, TRR attached.

    These exercise the window streams *and* the batched
    ``on_act_stream``: targeted-refresh equality requires the sampler's
    buffer (content and emptiness) to match the unrolled run at every
    TRR-capable REF, i.e. the RNG draw sequences must be bit-identical.
    """

    def test_n_sided(self):
        fast = _compare(
            lambda m: trr_round(
                m, "rowhammer", (VICTIM - 1, VICTIM + 1), VICTIM + 30,
                hammer_windows=2, dummy_windows=2,
            ),
            _hammer_setup((-1, 1, 30)),
            (VICTIM,),
            SAMPLING,
            rounds=12,
        )
        assert fast["trr"]["targeted_refreshes"] > 0

    def test_comra_pattern(self):
        fast = _compare(
            lambda m: trr_round(
                m, "comra", (VICTIM - 1, VICTIM + 1), VICTIM + 30,
                dummy_windows=2,
            ),
            _hammer_setup((-1, 1, 30)),
            (VICTIM,),
            SAMPLING,
            rounds=8,
        )
        assert fast["bank"]["comra_copies"] > 0

    def test_simra_pattern(self):
        module = make_module(CONFIG)
        block_base = (VICTIM // 32) * 32
        pair = patterns.simra_pair_for(module, block_base, 4)
        victim = pair.sandwiched_victims()[0]
        fast = _compare(
            lambda m: trr_round(
                m, "simra", (pair.row_a, pair.row_b), victim + 40,
                dummy_windows=2,
            ),
            _hammer_setup(
                tuple(r - victim for r in pair.group) + (40,), (victim,), victim
            ),
            (victim,),
            SAMPLING,
            rounds=8,
        )
        assert fast["bank"]["simra_ops"] > 0

    def test_weighted_trr(self):
        fast = _compare(
            lambda m: trr_round(
                m, "rowhammer", (VICTIM - 1, VICTIM + 1), VICTIM + 30,
                hammer_windows=2, dummy_windows=2,
            ),
            _hammer_setup((-1, 1, 30)),
            (VICTIM,),
            WEIGHTED,
            rounds=12,
        )
        assert fast["trr"]["targeted_refreshes"] > 0

    @pytest.mark.parametrize("pattern", ["n-sided", "comra", "simra"])
    @pytest.mark.parametrize("mitigation", PRAC_HOOKS)
    def test_prac(self, mitigation, pattern):
        """§8.2 PRAC over the same patterns: window streams replay in
        segments, and every back-off lands where unrolled puts it."""
        if pattern == "n-sided":
            program = lambda m: trr_round(  # noqa: E731
                m, "rowhammer", (VICTIM - 1, VICTIM + 1), VICTIM + 30,
                hammer_windows=2, dummy_windows=1,
            )
            setup, victims = _hammer_setup((-1, 1, 30)), (VICTIM,)
        elif pattern == "comra":
            program = lambda m: trr_round(  # noqa: E731
                m, "comra", (VICTIM - 1, VICTIM + 1), VICTIM + 30,
                dummy_windows=1,
            )
            setup, victims = _hammer_setup((-1, 1, 30)), (VICTIM,)
        else:
            pair = patterns.simra_pair_for(
                make_module(CONFIG), (VICTIM // 32) * 32, 4
            )
            victim = pair.sandwiched_victims()[0]
            program = lambda m: trr_round(  # noqa: E731
                m, "simra", (pair.row_a, pair.row_b), victim + 40,
                dummy_windows=1,
            )
            setup = _hammer_setup(
                tuple(r - victim for r in pair.group) + (40,), (victim,), victim
            )
            victims = (victim,)
        fast = _compare(program, setup, victims, PRAC_HOOKS[mitigation], rounds=6)
        assert fast["loops"]["stream"] > 0

