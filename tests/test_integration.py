"""Cross-package integration: the full attack-study workflow.

Replays the paper's pipeline end to end on one simulated module: reverse
engineer the chip, characterize HC_first for RowHammer vs CoMRA vs SiMRA,
demonstrate the TRR bypass, and check a mitigation closes it.
"""

import numpy as np
import pytest

from repro import (
    CharacterizationSession,
    DataPattern,
    ExperimentScale,
    Mechanism,
    make_module,
)
from repro.bender.host import DramBenderHost
from repro.core import patterns
from repro.mitigations import OpClass, PracConfig, PracCounters
from repro.pud import PudEngine
from repro.reveng import boundary_scan, discover_group
from repro.trr import SamplingTrr

from .trr_rounds import trr_round


@pytest.fixture(scope="module")
def module():
    return make_module("hynix-a-8gb")


class TestFullWorkflow:
    def test_reveng_then_characterize_then_attack(self, module):
        # 1) reverse engineer: subarray boundaries + a SiMRA group
        small = make_module("hynix-a-8gb", subarrays_per_bank=2,
                            rows_per_subarray=32)
        assert boundary_scan(small) == [0, 32]
        group = discover_group(module, 64, 70)
        assert len(group) == 4

        # 2) characterize: SiMRA must beat CoMRA must beat RowHammer on
        # the module's weakest rows
        session = CharacterizationSession(module, ExperimentScale.small())
        victims = session.candidate_victims()
        rh_min = min(
            m.hc_first for m in session.measure_rowhammer_ds(victims) if m.found
        )
        comra_min = min(
            m.hc_first for m in session.measure_comra_ds(victims) if m.found
        )
        simra_values = [
            m.hc_first
            for group in session.measure_simra_ds(
                session.sample_simra_pairs(4), max_victims=2
            )
            for m in group
            if m.found
        ]
        simra_min = min(simra_values)
        assert simra_min < comra_min < rh_min
        assert simra_min <= 40  # the 26-hammer headline

        # 3) the SiMRA attack crosses the threshold within ~2 us of ops
        ops_needed = simra_min
        op_time_ns = ops_needed * (13.5 + 3.0 + 3.0 + 36.0)
        assert op_time_ns < 2_000

    def test_trr_bypass_and_weighted_prac_closes_it(self):
        module = make_module("hynix-a-8gb")
        module.attach_trr(SamplingTrr(seed=0))
        host = DramBenderHost(module)
        # Sandwich the SiMRA sentinel (the Table 2 minimum row) so the
        # scaled-down module reproduces the headline bypass regardless of
        # how the surrounding population samples.
        sentinel = module.model.sentinel_row(Mechanism.SIMRA)
        block = (sentinel // 32) * 32
        pair = patterns.simra_pair_for(
            module, block, 4, anchor_offset=sentinel % 32 - 1
        )
        victims = pair.sandwiched_victims()
        nbytes = module.geometry.row_bytes
        rows = {module.to_logical(r): DataPattern.ALL_ZEROS.fill(nbytes)
                for r in pair.group}
        expected = DataPattern.ALL_ONES.fill(nbytes)
        for v in victims:
            rows[module.to_logical(v)] = expected
        host.write_rows(0, rows)

        # hammer with REFs flowing (TRR active the whole time)
        program = trr_round(
            module, "simra", (pair.row_a, pair.row_b), dummy=150,
            dummy_windows=3,
        )
        for _ in range(60):
            host.run(program)
        flips = 0
        for v in victims:
            data = host.read_rows(0, [module.to_logical(v)])[module.to_logical(v)]
            flips += int((np.unpackbits(data) != np.unpackbits(expected)).sum())
        assert flips > 0, "SiMRA should bypass TRR"

        # weighted PRAC counters would have demanded RFMs long before
        counters = PracCounters(0, PracConfig.po_weighted())
        counters.record(list(pair.group), OpClass.SIMRA)
        for _ in range(25):
            if counters.back_off_pending:
                break
            counters.record(list(pair.group), OpClass.SIMRA)
        assert counters.back_off_pending is not None

    def test_pud_compute_still_works_under_characterized_limits(self, module):
        """A PuD user staying below HC_first computes correctly."""
        engine = PudEngine(module)
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, module.geometry.columns, dtype=np.uint8)
        b = rng.integers(0, 2, module.geometry.columns, dtype=np.uint8)
        engine.write_bits(3, a)
        engine.write_bits(5, b)
        result = np.unpackbits(engine.and_(3, 5))
        assert np.array_equal(result, a & b)
