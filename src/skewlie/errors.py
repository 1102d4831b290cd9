"""Exception types shared across the package.

Every failure that a caller can meaningfully react to gets its own class;
generic ValueError is reserved for programming mistakes that should never
survive development.
"""


class SkewlieError(Exception):
    """Base class for all package-specific failures."""


class UnsupportedRing(SkewlieError):
    """A ring instance does not provide what the requested operation needs."""


class DimensionMismatch(SkewlieError):
    """Two objects (matrices, tuples of values, index sets) disagree on size."""


class IndexOutOfRange(SkewlieError):
    """A 1-based matrix index fell outside 1..n."""


class EqualIndices(SkewlieError):
    """An operation that needs distinct indices received equal ones."""


class ComplexWeight(SkewlieError):
    """A scalar that must be star-fixed was not."""


class NeedThreeIndices(SkewlieError):
    """The requested construction only exists for sizes of at least three."""


class NotSkewAdjoint(SkewlieError):
    """A matrix failed the x* == -x check where skew-adjointness is required."""


class Infeasible(SkewlieError):
    """A linear system admits no solution; carries no partial answer."""


class NonLinearHypothesis(SkewlieError):
    """A symbolic hypothesis or conclusion was not linear in the unknowns."""


class UnknownLemma(SkewlieError):
    """No certificate builder is registered under the requested identifier."""


class WitnessContractError(SkewlieError):
    """An oracle returned a witness that violates its stated contract."""


class ConfigError(SkewlieError):
    """A CLI invocation, config file or campaign call asked for something
    inconsistent (no trials, negative random checks, an unknown gauge)."""
