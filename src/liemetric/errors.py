"""Exception hierarchy shared by all liemetric modules."""


class LieMetricError(Exception):
    """Base class for every error raised by this package; ``exit_code`` is its command-line exit status."""

    exit_code = 3  # a mathematical precondition fails; 2 for bad input, 4 for a failed certificate


class DimensionMismatchError(LieMetricError):
    """Vector or matrix dimensions do not match the expected algebra size."""


class DegenerateFormError(LieMetricError):
    """A symmetric bilinear form is singular below the rank cutoff."""


class JacobiError(LieMetricError):
    """Structure constants fail the Jacobi identity beyond tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidSpecError(LieMetricError):
    """Double-extension data violates one of its defining constraints."""

    def __init__(self, message, condition=None, residual=None):
        super().__init__(message)
        self.condition = condition
        self.residual = residual


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


class NullImageError(LieMetricError):
    """The Ricci image vector fails to be null, contradicting classification."""

    exit_code = 4


class PreconditionError(LieMetricError):
    """A mathematical precondition of the operation is not met."""


class NotTypeIIError(PreconditionError):
    """Operation requires a nonzero square-zero Ricci operator."""


class WrongSignatureError(PreconditionError):
    """The metric signature does not match the operation's requirement."""


class StructureMismatchError(LieMetricError):
    """Computed bracket data falls outside the expected structural pattern."""

    exit_code = 4

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class VerificationError(LieMetricError):
    """A constructed object fails one of its certified invariants."""

    exit_code = 4

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class UnknownNameError(LieMetricError):
    """Catalog name is not recognised."""


class BadParamsError(LieMetricError):
    """Catalog parameters are missing, of wrong type, or out of range."""


class ParseError(LieMetricError):
    """An input is malformed: an unreadable file, or entries that are not finite real numbers."""

    exit_code = 2


class ValidationError(LieMetricError):
    """An input file parses but fails mathematical validation."""

    exit_code = 2
