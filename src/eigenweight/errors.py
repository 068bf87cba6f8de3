"""Exception families raised across the package.

Every error derives from :class:`EigenweightError` so callers can catch the
whole family.  The CLI maps subfamilies to process exit codes.
"""


class EigenweightError(Exception):
    """Base class for all package errors."""


# --- grid -------------------------------------------------------------------

class InvalidSpec(EigenweightError):
    """Domain descriptor is malformed (non-positive extent, cell count < 2, ...)."""


class LengthMismatch(EigenweightError):
    """A cell field does not match the grid's cell count."""


class NonUniformGrid(EigenweightError):
    """Operation requires equal cell measures."""


# --- spectral ---------------------------------------------------------------

class ZeroWeightIntegral(EigenweightError):
    """The weight integrates to zero; the projection is undefined."""


class NotAdmissible(EigenweightError):
    """Weight has nonnegative integral; no positive principal eigenvalue."""


class NoPositivePart(EigenweightError):
    """Weight is nonpositive everywhere; there are no positive eigenvalues."""


class ConstantField(EigenweightError):
    """Rayleigh quotient evaluated at a constant field."""


class TooLarge(EigenweightError):
    """Grid exceeds the dense-solver cell threshold."""


class SingularSystem(EigenweightError):
    """Eigensolver returned an invalid principal pair; internal error."""


class IterationLimit(EigenweightError):
    """Iterative eigensolver hit its iteration cap."""


# --- rearrange / optimize ---------------------------------------------------

class MeasureMismatch(EigenweightError):
    """Rearrangement class total measure does not match the grid."""


class NotAdmissibleClass(EigenweightError):
    """Class has no positive value or nonnegative integral; minimization undefined."""


class IndivisibleStripes(EigenweightError):
    """Stripe count does not divide the first-axis cell count."""


# --- logistic ---------------------------------------------------------------

class NegativeInitial(EigenweightError):
    """Initial density has negative entries."""


class UnstableStep(EigenweightError):
    """The explicit-reaction stability guard cannot be met."""


# --- cli --------------------------------------------------------------------

class ParseError(EigenweightError):
    """Config document is not well formed or a required key is missing."""


class ValidationError(EigenweightError):
    """Config values violate a module precondition."""
