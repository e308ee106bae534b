#!/usr/bin/env python3
"""A vendor-level mini characterization campaign (the §4 pipeline).

Sweeps data pattern and temperature for one module per vendor and prints
the observation-style summary the paper's §4.3 reports.

Run:  python examples/characterize_vendor.py
"""

from collections import defaultdict

import numpy as np

from repro import ALL_PATTERNS, CharacterizationSession, ExperimentScale, make_module

CONFIGS = ("hynix-a-8gb", "micron-f-16gb", "samsung-b-16gb", "nanya-c-8gb")


def main() -> None:
    scale = ExperimentScale.small()
    for config_id in CONFIGS:
        module = make_module(config_id)
        session = CharacterizationSession(module, scale)
        victims = session.candidate_victims()[:6]
        print(f"\n=== {module} ===")

        # data-pattern sweep (Fig. 5)
        by_pattern = defaultdict(list)
        for pattern in ALL_PATTERNS:
            for m in session.measure_comra_ds(victims, pattern=pattern):
                if m.found:
                    by_pattern[pattern.value].append(m.hc_first)
        print("  CoMRA HC_first by aggressor pattern (mean):")
        for pattern, values in sorted(by_pattern.items()):
            marker = " <= worst-case" if np.mean(values) == min(
                np.mean(v) for v in by_pattern.values()
            ) else ""
            print(f"    {pattern}: {np.mean(values):>10.0f}{marker}")

        # temperature sweep (Fig. 6)
        print("  CoMRA mean HC_first by temperature:")
        for temperature in (50.0, 80.0):
            session.set_temperature(temperature)
            values = [
                m.hc_first for m in session.measure_comra_ds(victims) if m.found
            ]
            print(f"    {temperature:.0f} degC: {np.mean(values):>10.0f}")
        session.set_temperature(80.0)


if __name__ == "__main__":
    main()
