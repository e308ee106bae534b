"""Packed trace tapes replay the scalar ``TraceGenerator`` stream exactly."""

from __future__ import annotations

import itertools

import pytest

from repro.workloads import TraceGenerator, build_mixes
from repro.workloads import fast_traces
from repro.workloads.fast_traces import (
    BANK_MASK,
    GAP_SHIFT,
    ROW_MASK,
    TraceTape,
    unpack_entry,
)
from repro.workloads.profiles import (
    WorkloadProfile,
    all_profiles,
    profile_by_name,
)

#: several 1,024-entry refill blocks
ENTRIES = 20_000


def _fig25_seed(name: str) -> int:
    """The core seed (``mix_id * 101 + i``) of the first Fig. 25 mix
    slot that runs profile ``name``."""
    for mix in build_mixes(60):
        for i, profile in enumerate(mix.profiles):
            if profile.name == name:
                return mix.mix_id * 101 + i
    raise AssertionError(f"{name} is in no mix")


@pytest.mark.parametrize("name", [p.name for p in all_profiles()])
def test_tape_decodes_to_scalar_stream(name: str) -> None:
    profile = profile_by_name(name)
    for seed in (0, _fig25_seed(name)):
        tape = TraceTape(profile, seed=seed)
        while len(tape.entries) < ENTRIES:
            tape.grow()
        scalar = TraceGenerator(profile, seed=seed)
        expected = [
            (e.gap_instructions, e.bank, e.row, e.is_write)
            for e in itertools.islice(scalar, ENTRIES)
        ]
        decoded = [unpack_entry(word) for word in tape.entries[:ENTRIES]]
        assert decoded == expected, (name, seed)


def test_extend_round_trips_field_limits() -> None:
    tape = TraceTape(profile_by_name("mcf-like"))
    extremes = [
        (1, 0, 0, False),
        ((1 << (63 - GAP_SHIFT)) - 1, BANK_MASK, ROW_MASK, True),
    ]
    tape.extend(extremes)
    assert [unpack_entry(word) for word in tape.entries] == extremes


@pytest.mark.parametrize(
    "entry",
    [
        (1 << (63 - GAP_SHIFT), 0, 0, False),
        (-1, 0, 0, False),
        (1, BANK_MASK + 1, 0, False),
        (1, -1, 0, False),
        (1, 0, ROW_MASK + 1, True),
        (1, 0, -1, True),
    ],
)
def test_extend_rejects_fields_wider_than_their_slot(entry) -> None:
    tape = TraceTape(profile_by_name("mcf-like"))
    tape.extend([(5, 1, 2, True)])
    with pytest.raises(OverflowError):
        tape.extend([(7, 0, 3, False), entry])
    # a rejected block appends nothing
    assert [unpack_entry(word) for word in tape.entries] == [(5, 1, 2, True)]


def test_profile_outside_the_emulation_envelope_raises() -> None:
    """A non-power-of-two bank spread has no emulated stream, and no
    scalar one to fall back on."""
    profile = WorkloadProfile(
        "odd-spread", "test", mpki=20.0, row_locality=0.4, bank_spread=3,
    )
    with pytest.raises(ValueError, match="outside the emulation envelope"):
        TraceTape(profile, seed=4)


def test_emulation_matches_numpy() -> None:
    assert fast_traces.emulation_matches()


def test_failed_self_check_raises(monkeypatch) -> None:
    monkeypatch.setattr(fast_traces, "_emulation_ok", False)
    with pytest.raises(RuntimeError, match="no longer matches"):
        TraceTape(profile_by_name("mcf-like"))
