#!/usr/bin/env python3
"""Quickstart: characterize one simulated module in a minute.

Builds the SK Hynix 8Gb A-die module (the paper's most-studied chip),
measures HC_first for double-sided RowHammer, CoMRA, and SiMRA on a few
victim rows, and prints the per-row comparison -- the core result of
PuDHammer in miniature.

Run:  python examples/quickstart.py
"""

from repro import CharacterizationSession, ExperimentScale, make_module


def main() -> None:
    module = make_module("hynix-a-8gb")
    print(f"Module under test: {module}")
    print(f"  SiMRA-capable: {module.supports_simra}")
    print(f"  mapping scheme: {module.calibration.mapping_scheme}")

    session = CharacterizationSession(module, ExperimentScale.small())
    print(f"  chip temperature held at {session.temperature_c:.0f} degC\n")

    victims = session.candidate_victims()[:5]
    print(f"{'victim':>8} {'region':>18} {'RowHammer':>10} {'CoMRA':>10} {'gain':>7}")
    # each call measures the whole victim list in one batch
    for victim, rowhammer, comra in zip(
        victims,
        session.measure_rowhammer_ds(victims),
        session.measure_comra_ds(victims),
    ):
        if not (rowhammer.found and comra.found):
            continue
        gain = rowhammer.hc_first / comra.hc_first
        print(
            f"{victim:>8} {rowhammer.region.value:>18} "
            f"{rowhammer.hc_first:>10.0f} {comra.hc_first:>10.0f} {gain:>6.2f}x"
        )

    print("\nSiMRA (simultaneous 4-row activation), double-sided groups:")
    best = None
    pairs = session.sample_simra_pairs(4)[:4]
    for pair, group in zip(pairs, session.measure_simra_ds(pairs, max_victims=1)):
        for measurement in group:
            if measurement.found:
                print(
                    f"  group {pair.group}: victim {measurement.victim} "
                    f"flips after {measurement.hc_first:.0f} SiMRA ops"
                )
                if best is None or measurement.hc_first < best:
                    best = measurement.hc_first
    if best is not None:
        print(
            f"\nWeakest tested victim needs only {best:.0f} SiMRA operations "
            f"(~{best * 55.5 / 1000:.1f} us of hammering)."
        )


if __name__ == "__main__":
    main()
