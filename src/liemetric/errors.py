"""Exception hierarchy shared by all liemetric modules, and the one display of a rejected value in a message."""


def _shown(value) -> str:
    """``repr(value)`` for a message, bounded: an integer of size 10^20 or more is named by that bound (str() of an
    int stops at 4300 digits), and a repr of more than 80 characters is cut there, with its length."""
    if isinstance(value, int) and abs(value) >= 10 ** 20:
        return "beyond 10^20" if value > 0 else "below -10^20"
    try:
        text = repr(value)
    except ValueError:  # an integer past the digit limit inside a container
        return f"a {type(value).__name__} holding an integer beyond 10^20"
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


class LieMetricError(Exception):
    """Base class for every error raised by this package; ``exit_code`` is its command-line exit status."""

    exit_code = 3  # a mathematical precondition fails; 2 for bad input, 4 for a failed certificate

    def __init__(self, message, **details):
        """Store each keyword detail (``residual``, ``residuals``, ``condition``) as an attribute."""
        super().__init__(message)
        self.__dict__.update(details)


class DimensionMismatchError(LieMetricError):
    """Vector or matrix dimensions do not match the expected algebra size."""


class DegenerateFormError(LieMetricError):
    """A symmetric bilinear form is singular below the rank cutoff."""


class JacobiError(LieMetricError):
    """Structure constants fail the Jacobi identity beyond tolerance; ``residual`` is the Jacobi residual."""


class InvalidSpecError(LieMetricError):
    """Double-extension data violates one of its defining constraints, the ``condition`` with its ``residual``."""


class CocycleError(LieMetricError):
    """A supplied cochain fails its cocycle condition."""


class CyclicityError(CocycleError):
    """A supplied cochain fails the cyclic symmetry required of it."""


class NonCommutingError(LieMetricError):
    """Derivations that must commute pairwise do not."""


class NotEinsteinError(LieMetricError):
    """An operation requires an Einstein input metric."""


class ZeroMuError(LieMetricError):
    """The imaginary part of the target eigenvalue must be nonzero."""


class NotTypeIError(LieMetricError):
    """Operation requires a Ricci operator with complex-pair minimal polynomial."""


class PreconditionError(LieMetricError):
    """A mathematical precondition of the operation is not met."""


class NotTypeIIError(PreconditionError):
    """Operation requires a nonzero square-zero Ricci operator."""


class WrongSignatureError(PreconditionError):
    """The metric signature does not match the operation's requirement."""


class VerificationError(LieMetricError):
    """A computed object fails one of its certified invariants; raised itself, ``residuals`` holds every residual."""

    exit_code = 4


class NullImageError(VerificationError):
    """The Ricci image vector fails to be null, contradicting classification; ``residual`` is its <v, v>."""


class StructureMismatchError(VerificationError):
    """Computed bracket data falls outside the expected structural pattern; ``residual`` is the failed check's."""


class UnknownNameError(LieMetricError):
    """Catalog name is not recognised."""


class BadParamsError(LieMetricError):
    """Catalog parameters are missing, of wrong type, or out of range."""


class ParseError(LieMetricError):
    """An input is malformed: an unreadable file, or entries that are not finite real numbers."""

    exit_code = 2


class ValidationError(LieMetricError, ValueError):
    """An input parses but fails mathematical validation; a ``ValueError`` too."""

    exit_code = 2
