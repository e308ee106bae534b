"""PuDHammer reproduction: read disturbance of Processing-using-DRAM.

A full-stack reproduction of "PuDHammer: Experimental Analysis of Read
Disturbance Effects of Processing-using-DRAM in Real DRAM Chips" (Yüksel et
al., ISCA 2025) on a simulated DDR4 substrate.  See DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro import make_module, CharacterizationSession, ExperimentScale

    module = make_module("hynix-a-8gb")
    session = CharacterizationSession(module, ExperimentScale.small())
    victims = session.candidate_victims()[:3]
    print(session.measure_rowhammer_ds(victims))
    print(session.measure_comra_ds(victims))
"""

from .core import (
    CharacterizationSession,
    ChangeDistribution,
    CombinedResult,
    DistributionSummary,
    ExperimentScale,
    Measurement,
)
from .disturbance import (
    ALL_PATTERNS,
    DataPattern,
    FlipDirection,
    MODULE_CALIBRATIONS,
    Mechanism,
    SIMRA_COUNTS,
    Vendor,
)
from .dram import (
    DramModule,
    ModuleGeometry,
    build_population,
    make_module,
    scaled_geometry,
)
from .experiments import EXPERIMENTS, ExperimentResult, run_experiment
from .pud import PudEngine, QuacTrng
from .trr import SamplingTrr

__version__ = "1.0.0"

__all__ = [
    "ALL_PATTERNS",
    "CharacterizationSession",
    "ChangeDistribution",
    "CombinedResult",
    "DataPattern",
    "DistributionSummary",
    "DramModule",
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentScale",
    "FlipDirection",
    "MODULE_CALIBRATIONS",
    "Measurement",
    "Mechanism",
    "ModuleGeometry",
    "PudEngine",
    "QuacTrng",
    "SIMRA_COUNTS",
    "SamplingTrr",
    "Vendor",
    "build_population",
    "make_module",
    "run_experiment",
    "scaled_geometry",
    "__version__",
]
