"""Exception families raised across the package.

Every error derives from :class:`EigenweightError` so callers can catch the
whole family.  The CLI maps the families to process exit codes: a bad input
(:class:`InputError`) exits 3, a solver failure (:class:`SolverError`)
exits 4, :class:`IterationLimit` exits 5 and :class:`ParseError` exits 2.
"""


class EigenweightError(Exception):
    """Base class for all package errors."""


class InputError(EigenweightError):
    """An input violates a named precondition (exit code 3)."""


class SolverError(EigenweightError):
    """A computation on valid input could not be carried out (exit code 4)."""


# --- grid -------------------------------------------------------------------

class InvalidSpec(InputError):
    """Domain descriptor is malformed (non-positive extent, cell count < 2, ...)."""


class LengthMismatch(InputError):
    """A cell field does not match the grid's cell count."""


# --- spectral ---------------------------------------------------------------

class ZeroWeightIntegral(SolverError):
    """The weight integrates to zero; the projection is undefined."""


class NotAdmissible(InputError):
    """Weight has nonnegative integral; no positive principal eigenvalue."""


class NoPositivePart(InputError):
    """Weight is nonpositive everywhere; there are no positive eigenvalues."""


class ConstantField(SolverError):
    """Rayleigh quotient evaluated at a constant field."""


class TooLarge(SolverError):
    """Grid exceeds the dense-solver cell threshold."""


class SingularSystem(SolverError):
    """Eigensolver returned an invalid principal pair; internal error."""


class IterationLimit(EigenweightError):
    """Iterative eigensolver hit its iteration cap (exit code 5)."""


# --- rearrange / optimize ---------------------------------------------------

class MeasureMismatch(InputError):
    """Rearrangement class total measure does not match the grid."""


class NotAdmissibleClass(InputError):
    """Class has no positive value or nonnegative integral; minimization undefined."""


class IndivisibleStripes(InputError):
    """Stripe count does not divide the first-axis cell count."""


# --- logistic ---------------------------------------------------------------

class NegativeInitial(InputError):
    """Initial density has negative entries."""


class UnstableStep(SolverError):
    """The explicit-reaction stability guard cannot be met."""


# --- cli --------------------------------------------------------------------

class ParseError(EigenweightError):
    """Config document is malformed or lacks a required key (exit code 2)."""


class ValidationError(InputError):
    """Config values violate a module precondition."""
