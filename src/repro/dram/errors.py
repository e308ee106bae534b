"""Exception hierarchy for the DRAM device model.

Errors raised by this package distinguish between *user* mistakes (malformed
addresses, out-of-range rows) and *device* behaviors that a real chip would
silently tolerate or reject (e.g. a timing-violating command sequence that a
given vendor's chips ignore).
"""

from __future__ import annotations


class DramError(Exception):
    """Base class for all errors raised by :mod:`repro.dram`."""


class AddressError(DramError):
    """An address component (bank, row, column) is out of range."""


class TimingError(DramError):
    """A command sequence violates a timing rule the model enforces strictly.

    Most timing *violations* are legal in this model (they are the entire
    point of PuD operations); this error is reserved for sequences that are
    ill-formed regardless of timing, such as activating a bank that was never
    precharged, or refreshing it with a row open.
    """


class UnsupportedOperationError(DramError):
    """The chip family does not support the requested analog operation.

    For example, simultaneous multiple-row activation (SiMRA) is only
    observable in SK Hynix chips; other vendors' chips ignore the
    heavily-violating command sequence (see PuDHammer §5.3, footnote 2).
    """


class CalibrationError(DramError):
    """A fault-model calibration table is inconsistent or incomplete."""
