"""Exception types shared across the package.

Every error raised on bad input derives from :class:`MbstatError`, so callers
(and the CLI exit-code mapping) can distinguish data problems from bugs.
"""


class MbstatError(Exception):
    """Base class for all input/validation errors raised by mbstat."""


class ParseError(MbstatError):
    """CSV text is structurally malformed (header, column count, bad cell)."""


class EmptyInput(MbstatError):
    """An operation received an empty sequence or an empty CSV body."""


class NonPositivePrice(MbstatError):
    """A trade price is zero or negative."""


class NonPositiveVolume(MbstatError):
    """A trade volume is zero or negative."""


class NonUniformSpacing(MbstatError):
    """Tick times are not strictly increasing with one constant spacing."""


class ValueMismatch(MbstatError):
    """A declared trade value deviates from price*volume beyond tolerance."""


class EmptyWindow(MbstatError):
    """The requested averaging interval contains no ticks."""


class LagNotOnGrid(MbstatError):
    """A lag, or a window's start or count, is not a whole (and, where
    required, positive) number of grid steps."""


class MissingHistory(MbstatError):
    """A lagged tick would fall before the start of the series."""


class LengthMismatch(MbstatError):
    """Two per-tick sequences that must align have different lengths."""


class NonPositiveInvestment(MbstatError):
    """A portfolio weight source (investment) is not finite and positive."""


class NonPositiveInput(MbstatError):
    """A weight-bearing sequence contains a zero or negative entry."""


class UnnormalizedWeights(MbstatError):
    """A weight vector does not sum to one within tolerance."""


class DegenerateDenominator(MbstatError):
    """A joint-moment denominator underflowed below any usable magnitude."""


class InvalidConfig(MbstatError):
    """A generator or request configuration violates its invariants."""


class ConsistencyError(MbstatError):
    """An internal cross-check between two algebraically equal forms failed.

    This never fires on valid data; it exists to surface implementation bugs
    instead of silently returning a wrong number.
    """
