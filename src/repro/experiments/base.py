"""Shared infrastructure for figure/table reproduction experiments.

Every experiment module exposes ``run(scale=None, ...) -> ExperimentResult``.
An :class:`ExperimentResult` carries the printable series (the same rows or
box statistics the paper's plot shows) plus a ``checks`` dict of headline
shape metrics that the benchmark harness asserts against the paper's bands.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.scale import ExperimentScale
from ..core.session import CharacterizationSession
from ..disturbance.calibration import Vendor
from ..dram.vendors import build_population

#: One representative module configuration per vendor, used by experiments
#: whose paper figure shows one subplot per manufacturer.
REPRESENTATIVE_CONFIGS = (
    "hynix-a-8gb",
    "micron-f-16gb",
    "samsung-b-16gb",
    "nanya-c-8gb",
)

#: The SiMRA-capable configurations (§5 tests SK Hynix only).
SIMRA_CONFIGS = ("hynix-a-8gb", "hynix-a-4gb", "hynix-c-16gb", "hynix-d-8gb")


@dataclass
class ExperimentResult:
    """Output of one reproduced table/figure."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    checks: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def format_table(self) -> str:
        """Render the series as an aligned text table."""
        out = io.StringIO()
        out.write(f"== {self.experiment_id}: {self.title} ==\n")
        if self.rows:
            keys = list(self.rows[0])
            widths = {
                key: max(len(key), *(len(_fmt(row.get(key))) for row in self.rows))
                for key in keys
            }
            header = "  ".join(key.ljust(widths[key]) for key in keys)
            out.write(header + "\n")
            out.write("-" * len(header) + "\n")
            for row in self.rows:
                out.write(
                    "  ".join(_fmt(row.get(key)).ljust(widths[key]) for key in keys)
                    + "\n"
                )
        if self.checks:
            out.write("checks:\n")
            for name, value in self.checks.items():
                out.write(f"  {name} = {value:.4g}\n")
        for note in self.notes:
            out.write(f"note: {note}\n")
        return out.getvalue()

    def print(self) -> None:
        print(self.format_table())

    def to_dict(self) -> dict:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": [dict(row) for row in self.rows],
            "checks": dict(self.checks),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. a store artifact)."""
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            rows=[dict(row) for row in payload.get("rows", [])],
            checks=dict(payload.get("checks", {})),
            notes=list(payload.get("notes", [])),
        )


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def population_sessions(
    scale: Optional[ExperimentScale] = None,
    config_ids: Optional[Sequence[str]] = None,
    vendors: Optional[Sequence[Vendor]] = None,
) -> list[CharacterizationSession]:
    """Build the module population and wrap each module in a session."""
    scale = scale or ExperimentScale.default()
    modules = build_population(
        vendors=vendors,
        modules_per_config=scale.modules_per_config,
        config_ids=config_ids,
    )
    return [CharacterizationSession(module, scale) for module in modules]


def representative_sessions(
    scale: Optional[ExperimentScale] = None,
    config_ids: Sequence[str] = REPRESENTATIVE_CONFIGS,
) -> list[CharacterizationSession]:
    """One session per representative vendor configuration."""
    return population_sessions(scale, config_ids=config_ids)


def simra_sessions(
    scale: Optional[ExperimentScale] = None,
    config_ids: Sequence[str] = ("hynix-a-8gb",),
) -> list[CharacterizationSession]:
    """Sessions on SiMRA-capable chips (§5 experiments)."""
    return population_sessions(scale, config_ids=config_ids)


def found_values(measurements) -> list[float]:
    """HC_first values of measurements that observed a bitflip."""
    return [m.hc_first for m in measurements if m.found]
