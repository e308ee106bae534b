"""§7 round programs for tests, built through :class:`AttackSpec`."""

from repro.attack.synthesis import AttackSpec
from repro.bender.program import TestProgram
from repro.disturbance.calibration import DataPattern


def trr_round(module, technique, aggressors, dummy, **schedule) -> TestProgram:
    """One ``build_round`` program on bank 0.  ``aggressors`` are the
    physical rows the ACTs address (a SiMRA pair's two rows); ``schedule``
    sets the spec's ``hammer_windows``, ``dummy_windows`` or
    ``acts_per_trefi``."""
    spec = AttackSpec(
        name=f"trr-{technique}",
        technique=technique,
        config_id=module.config_id,
        bank=0,
        aggressors=tuple(aggressors),
        activated=tuple(aggressors),
        victims=(),
        dummy=dummy,
        data_pattern=DataPattern.CHECKER_AA,
        **schedule,
    )
    return spec.build_round(module)
