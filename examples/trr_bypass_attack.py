#!/usr/bin/env python3
"""§7 end to end: uncover the TRR mechanism, then bypass it with SiMRA.

1. U-TRR-style probing finds retention canaries and infers the sampling
   TRR's behavior.
2. A classic double-sided RowHammer runs under TRR: nearly no bitflips.
3. The two-ACT SiMRA trigger runs under the same TRR: bitflips galore.

Run:  python examples/trr_bypass_attack.py
"""

from repro import DataPattern, make_module
from repro.attack.synthesis import AttackSpec
from repro.bender.host import DramBenderHost
from repro.core import patterns
from repro.reveng import RetentionProfiler, TrrProber
from repro.trr import SamplingTrr


def run_attack(module, spec, hammers):
    """Initialize the spec's rows, repeat its §7 round (one hammer window,
    three dummy-flood windows) for ``hammers`` hammers, count victim flips."""
    host = DramBenderHost(module)
    spec.initialize_rows(host)
    program = spec.build_round(module)
    for _ in range(hammers // spec.hammers_per_round):
        host.run(program)
    return spec.victim_flips(host)


def main() -> None:
    module = make_module("hynix-a-8gb")
    module.attach_trr(SamplingTrr(seed=7))

    print("Step 1: probe the TRR mechanism (U-TRR methodology)")
    profiler = RetentionProfiler(module)
    canaries = profiler.find_canaries(range(3, 190, 5), limit=1)
    print(f"  retention canaries found: "
          f"{ {r: f'{t/1e9:.2f}s' for r, t in canaries.items()} }")
    findings = TrrProber(module).detect(canaries)
    print(f"  TRR detected: {findings.trr_detected}; "
          f"TRR-capable REF period <= {findings.capable_ref_period}; "
          f"sampler window ~ {findings.sampler_window_estimate}")

    hammers = 60_000

    print("\nStep 2: double-sided RowHammer under TRR")
    center = 96 + 33
    rowhammer = AttackSpec(
        name="rowhammer", technique="rowhammer", config_id=module.config_id,
        bank=0, aggressors=(center - 1, center + 1),
        activated=(center - 1, center + 1), victims=(center,),
        dummy=center + 60, data_pattern=DataPattern.CHECKER_AA,
        dummy_windows=3,
    )
    rh_flips = run_attack(module, rowhammer, hammers)
    print(f"  {hammers} hammers through the sampler -> {rh_flips} bitflips")

    print("\nStep 3: SiMRA under the same TRR (two ACTs per 16-row op)")
    pair = patterns.simra_pair_for(module, 96 + 32, 16)
    simra = AttackSpec(
        name="simra16", technique="simra", config_id=module.config_id,
        bank=0, aggressors=(pair.row_a, pair.row_b), activated=pair.group,
        victims=pair.sandwiched_victims(), dummy=pair.row_a + 60,
        data_pattern=DataPattern.ALL_ZEROS, dummy_windows=3, n_rows=16,
    )
    simra_flips = run_attack(module, simra, hammers)
    print(f"  {hammers} SiMRA ops through the sampler -> {simra_flips} bitflips")

    if rh_flips == 0:
        print(f"\nTRR stopped RowHammer cold; SiMRA induced {simra_flips} flips "
              "anyway (Obs. 25).")
    else:
        print(f"\nSiMRA/RowHammer flip ratio under TRR: "
              f"{simra_flips / rh_flips:.0f}x (paper: 11340x for SiMRA-32).")


if __name__ == "__main__":
    main()
