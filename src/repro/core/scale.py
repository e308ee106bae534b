"""Experiment scaling knobs.

Real PuDHammer runs took weeks of FPGA time over 316 chips.  Experiments in
this repository run the same pipelines over scaled instance counts; the
:class:`ExperimentScale` object carries every knob, with presets for quick
CI-grade runs (:meth:`small`), the default benchmark size
(:meth:`default`), and paper-scale (:meth:`paper`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ExperimentScale:
    """Instance counts and search parameters for characterization runs."""

    #: modules instantiated per Table 2 configuration
    modules_per_config: int = 1
    #: subarray indices tested in the bank (paper: two each from the
    #: beginning, middle and end of the bank)
    subarrays: tuple[int, ...] = (0, 2, 5)
    #: test every Nth candidate victim row within a subarray (paper: all)
    row_step: int = 11
    #: HC_first searches per row; the paper repeats 5x and takes the min
    repeats: int = 1
    #: SiMRA row groups tested per (subarray, N) (paper: 100 random groups)
    simra_groups: int = 4
    #: hammer-count cap for searches
    max_hammers: int = 8_000_000
    #: how WCDP is obtained: "oracle" consults the fault model directly,
    #: "measured" runs the paper's four-pattern search
    wcdp_mode: str = "oracle"
    #: hammers per §7 TRR test (paper: 500K per aggressor; the default
    #: targets the weakest victims, so a smaller budget shows the effect)
    trr_hammers: int = 120_000
    #: ACT-command budget per attack-gauntlet cell (the attacker's cost cap)
    attack_acts: int = 120_000
    #: mitigation matrix the attack gauntlet evaluates (names resolved by
    #: ``repro.attack.mitigations.build_hook``)
    attack_mitigations: tuple[str, ...] = (
        "none",
        "sampling-trr",
        "weighted-trr",
        "prac-po-naive",
        "prac-po-wc",
        "prac-ao-wc",
        "compute-region",
        "clustered-decoder",
    )
    #: sustained repetitions per reliability kernel (``pud_reliability``);
    #: crossing a victim's HC_first is what turns PuD traffic into
    #: corruption, so this knob sets how deep into Table 2's minima the
    #: workloads push
    reliability_reps: int = 36_000
    #: QUAC-TRNG harvest rounds per sustained entropy stream
    reliability_trng_rounds: int = 384
    #: defense matrix ``pud_reliability`` evaluates (names resolved by
    #: ``repro.reliability.build_defense``)
    reliability_defenses: tuple[str, ...] = (
        "none",
        "ecc-sec",
        "verify-retry",
        "guard-rows",
    )

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Single-cell-grade run for CI smoke checks: one subarray, a
        reduced mitigation matrix, and the smallest ACT budget at which the
        synthesized TRR-aware CoMRA attack still flips its sentinel victim
        with comfortable margin."""
        return cls(
            subarrays=(0,), row_step=37, simra_groups=1,
            trr_hammers=20_000, attack_acts=24_960,
            attack_mitigations=(
                "none", "sampling-trr", "prac-po-wc", "compute-region",
            ),
            reliability_reps=6_000, reliability_trng_rounds=64,
        )

    @classmethod
    def small(cls) -> "ExperimentScale":
        """Smallest meaningful run, used by unit/integration tests."""
        return cls(subarrays=(0, 2), row_step=23, simra_groups=2,
                   trr_hammers=40_000, attack_acts=60_000,
                   reliability_reps=12_000, reliability_trng_rounds=128)

    @classmethod
    def default(cls) -> "ExperimentScale":
        """Benchmark-harness default."""
        return cls()

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Paper-scale instance counts (table1 to fig23 take ~15-20 min
        on one core of a shared 2-vCPU container, fig25 ~3 min)."""
        return cls(
            modules_per_config=2,
            subarrays=(0, 1, 2, 3, 4, 5),
            row_step=1,
            repeats=5,
            simra_groups=100,
            wcdp_mode="measured",
            trr_hammers=500_000,
            attack_acts=500_000,
            reliability_reps=120_000,
            reliability_trng_rounds=2_000,
        )

    def with_overrides(self, **overrides) -> "ExperimentScale":
        return replace(self, **overrides)
