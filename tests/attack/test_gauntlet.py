"""Gauntlet harness: the acceptance matrix, determinism, blocked cells."""

from functools import partialmethod

import pytest

from repro.attack import run_cell, run_gauntlet, synthesize_attacks
from repro.bender.host import DramBenderHost
from repro.core.scale import ExperimentScale
from repro.dram.vendors import make_module

SMOKE_BUDGET = ExperimentScale.smoke().attack_acts
#: enough for a RowHammer aggressor to cross PRAC-WC's RDT of 4096
PRAC_BUDGET = 9_000


@pytest.fixture(scope="module")
def hynix_specs():
    return {s.name: s for s in synthesize_attacks(make_module("hynix-a-8gb"))}


class TestAcceptanceMatrix:
    """The PR's headline security claim, cell by cell."""

    def test_sync_comra_bypasses_sampling_trr(self, hynix_specs):
        cell = run_cell(
            "hynix-a-8gb", hynix_specs["sync-comra"], "sampling-trr", SMOKE_BUDGET
        )
        assert cell.flips > 0
        assert cell.first_flip_hammers is not None
        assert cell.first_flip_hammers <= SMOKE_BUDGET // 2

    def test_naive_rowhammer_is_mitigated_at_same_budget(self, hynix_specs):
        cell = run_cell(
            "hynix-a-8gb", hynix_specs["naive-rowhammer"], "sampling-trr",
            SMOKE_BUDGET,
        )
        assert cell.flips == 0
        assert cell.first_flip_hammers is None
        # the TRR was actively defending, not absent
        assert cell.targeted_refreshes > 0

    def test_prac_po_wc_blocks_sync_comra(self, hynix_specs):
        cell = run_cell(
            "hynix-a-8gb", hynix_specs["sync-comra"], "prac-po-wc", SMOKE_BUDGET
        )
        assert cell.flips == 0
        assert cell.rfms > 0  # blocked by serviced back-offs, not by luck
        assert cell.stall_ns > 0

    def test_weighted_trr_blocks_comra_but_not_in_window_simra(self, hynix_specs):
        # weighted counts defeat accumulation attacks: CoMRA's dummy flood
        # can dilute but never evict the aggressors' weights
        comra = run_cell(
            "hynix-a-8gb", hynix_specs["sync-comra"], "weighted-trr",
            SMOKE_BUDGET,
        )
        assert comra.flips == 0
        # but SiMRA's HC_first (~26) is below one window's 78 hammers: the
        # first flip lands before any REF, so a REF-time mitigation --
        # however well it weighs -- cannot intervene (PRAC's immediate
        # back-off, tested above, is what closes this)
        simra = run_cell(
            "hynix-a-8gb", hynix_specs["sync-simra16"], "weighted-trr",
            SMOKE_BUDGET,
        )
        assert simra.flips > 0
        assert simra.first_flip_ns is not None
        assert simra.first_flip_ns <= 7800.0  # inside the first tREFI

    def test_prac_po_wc_blocks_in_window_simra(self, hynix_specs):
        # the §8.2 contrast to the weighted TRR: back-off serviced the
        # moment the weighted counter crosses the RDT (at ~20.1 SiMRA ops,
        # before SiMRA's ~26-op HC_first) stops the within-window flip
        cell = run_cell(
            "hynix-a-8gb", hynix_specs["sync-simra16"], "prac-po-wc",
            SMOKE_BUDGET,
        )
        assert cell.flips == 0
        assert cell.rfms > 0

    def test_compute_region_blocks_at_admission(self, hynix_specs):
        cell = run_cell(
            "hynix-a-8gb", hynix_specs["sync-comra"], "compute-region",
            SMOKE_BUDGET,
        )
        assert cell.blocked and cell.blocked_reason
        assert cell.acts_issued == 0 and cell.rounds_run == 0


class TestHarness:
    def test_cell_is_deterministic(self, hynix_specs):
        spec = hynix_specs["sync-comra"]
        a = run_cell("hynix-a-8gb", spec, "sampling-trr", SMOKE_BUDGET)
        b = run_cell("hynix-a-8gb", spec, "sampling-trr", SMOKE_BUDGET)
        assert a.to_row() == b.to_row()

    def test_early_exit_caps_cost_after_first_flip(self, hynix_specs):
        spec = hynix_specs["sync-comra"]
        cell = run_cell("hynix-a-8gb", spec, "none", SMOKE_BUDGET)
        assert cell.flips > 0
        assert cell.acts_issued < SMOKE_BUDGET  # stopped at the first flip

    def test_exploitability_metrics_consistent(self, hynix_specs):
        cell = run_cell(
            "hynix-a-8gb", hynix_specs["sync-comra"], "none", SMOKE_BUDGET
        )
        assert cell.exploited
        assert cell.flips_per_refresh_window > 0
        assert cell.acts_per_flip == cell.acts_issued / cell.flips
        row = cell.to_row()
        assert row["flips"] == cell.flips
        assert row["first_flip_hammers"] == cell.first_flip_hammers

    def test_config_mismatch_rejected(self, hynix_specs):
        with pytest.raises(ValueError):
            run_cell(
                "nanya-c-8gb", hynix_specs["sync-comra"], "none", SMOKE_BUDGET
            )

    def test_gauntlet_matrix_shape_and_filters(self):
        cells = run_gauntlet(
            "hynix-a-8gb", SMOKE_BUDGET,
            mitigations=("none", "sampling-trr"),
            attacks=("naive-rowhammer", "sync-comra"),
        )
        assert len(cells) == 4
        assert {(c.attack, c.mitigation) for c in cells} == {
            ("naive-rowhammer", "none"),
            ("naive-rowhammer", "sampling-trr"),
            ("sync-comra", "none"),
            ("sync-comra", "sampling-trr"),
        }

    @pytest.mark.parametrize(
        "mitigation", ["prac-po-naive", "prac-po-wc", "prac-ao-wc"]
    )
    def test_prac_cells_match_unrolled_host(
        self, hynix_specs, mitigation, monkeypatch
    ):
        """PRAC cells replay on compiled streams, split at back-offs; the
        reported row must equal the per-command interpreter's."""
        init = DramBenderHost.__init__
        for spec in hynix_specs.values():
            rows = []
            for compile_streams in (True, False):
                monkeypatch.setattr(
                    DramBenderHost, "__init__",
                    partialmethod(init, compile_streams=compile_streams),
                )
                rows.append(
                    run_cell("hynix-a-8gb", spec, mitigation, PRAC_BUDGET).to_row()
                )
            assert rows[0] == rows[1], spec.name
            assert rows[0]["rfms"] > 0, spec.name

    def test_unknown_names_fail_loudly(self):
        with pytest.raises(KeyError):
            run_gauntlet("hynix-a-8gb", 1000, attacks=("mystery-attack",))
        with pytest.raises(KeyError):
            run_gauntlet("hynix-a-8gb", 1000, mitigations=("magic-shield",))
