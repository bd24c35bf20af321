"""Exception hierarchy.

Errors raised by this package derive from :class:`DivboundError`, so callers
(including the CLI) can tell domain errors from bugs; only ``MeasureId.parse``
(``KeyError``), file reads (``OSError``) and ``printed_mM`` raise others.
"""


class DivboundError(Exception):
    """Base class for all divbound errors."""


class InvalidArgument(DivboundError, ValueError):
    """An argument of the wrong type or outside its domain; also a ``ValueError``."""


class NonPositiveMass(DivboundError):
    """A probability mass is zero or below the positivity threshold."""

    def __init__(self, index: int, value: float, threshold: float):
        self.index = index
        self.value = value
        self.threshold = threshold
        super().__init__(
            f"mass at index {index} is {value!r}, not above the "
            f"positivity threshold {threshold!r}"
        )


class NotNormalized(DivboundError):
    """The masses do not sum to one within tolerance."""

    def __init__(self, total: float, tolerance: float):
        self.total = total
        self.tolerance = tolerance
        super().__init__(
            f"masses sum to {total!r}, deviating from 1 by more than {tolerance!r}"
        )


class TooShort(DivboundError):
    """Fewer than two masses were supplied."""


class LengthMismatch(DivboundError):
    """Two distributions do not have the same support size."""


class SamplingExhausted(DivboundError):
    """The rejection loop in the Dirichlet sampler hit its retry budget."""


class NonFiniteValue(DivboundError):
    """A computed value overflowed double precision to inf or NaN."""


class NonPositiveArgument(DivboundError):
    """A generating function was evaluated at x <= 0."""


class DegenerateDenominator(DivboundError):
    """The denominator generator has non-positive curvature on the interval."""


class RegionViolation(DivboundError):
    """(s, t) lies outside every closed-form validity region of the family."""


class ConfigInvalid(DivboundError):
    """A verification configuration field is out of range."""
