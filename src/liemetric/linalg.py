"""Dense real linear algebra for indefinite symmetric bilinear forms.

Everything downstream (brackets, connections, curvature) reduces to small
dense matrices, so this module fixes the numerical conventions once:
the tolerance policy (:data:`DEGREES`, :meth:`Tolerance.passes`), the
input checks, the rank cutoff, signatures, pseudo-orthonormal bases and
metric adjoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFormError, DimensionMismatchError, ParseError, ValidationError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Signature",
    "SymmetricForm",
    "signature",
    "pseudo_orthonormal_basis",
    "metric_adjoint",
    "operator_residual",
]


@dataclass(frozen=True)
class Tolerance:
    """Residual policy: a residual r at scale s passes iff r <= abs + rel*s.

    ``rank`` is the singular-value cutoff below which a form or subspace
    direction counts as degenerate, relative to the size of what is cut.
    """

    abs: float = 1e-9
    rel: float = 1e-9
    rank: float = 1e-8

    def __post_init__(self):
        if not all(0 < x < np.inf for x in (self.abs, self.rel, self.rank)):
            raise ValidationError("tolerance fields must be strictly positive and finite")

    def threshold(self, scale: float = 1.0) -> float:
        return self.abs + self.rel * scale

    def passes(self, residual: float, kind: str, exponents: tuple[int, int]) -> bool:
        """Whether ``residual`` is within tolerance at unit brackets and metric.

        With (a, b) = ``DEGREES[kind]`` and (k_C, k_g) = ``exponents``, the residual
        times 2**-(a*k_C + b*k_g) must be at most ``abs + rel``; NaN fails.
        """
        a, b = DEGREES[kind]
        try:
            return math.ldexp(residual, -(a * exponents[0] + b * exponents[1])) <= self.threshold(1.0)
        except OverflowError:  # beyond the double range at unit brackets and metric
            return False


DEFAULT_TOL = Tolerance()

# Degree (a, b) of each residual: it becomes s**a * t**b times itself when the
# brackets C become s*C and the metric g becomes t*g.  An input checked against
# its own size (theta, alpha, derivations, mu) passes its own exponent as k_C.
DEGREES = {
    "bracket": (1, 0),          # bracket components, antisymmetry, an input against itself
    "trace_ad": (1, 0),
    "connection": (1, 0),       # [J, nabla_i]
    "metric": (0, 1),           # Gram symmetry and reconstruction, <v, v>
    "unit_free": (0, 0),        # J^2 + 1, J* - J, c - 1, Ric^2 on Ric/|Ric|, mu^2/|Ric - lam|^2, type-II Gram
    "jacobi": (2, 0),           # Jacobi and its blocks: cocycles, commuting derivations
    "ric": (2, 0),              # ric, ric - c*g, type-II Ricci block: in the frame also Ric, Ric - lam*Id
    "nabla_ric": (3, 0),        # in the frame also [Ric, nabla_i]
    "ad_invariance": (1, 1),
    # DoubleExtensionSpec residuals, in its data (see DoubleExtensionSpec.exponents)
    "skew": (1, -1), "derivation": (2, -1), "compatibility": (2, -1), "cocycle": (2, 0),
    "C1": (3, -3), "C2": (3, -3), "C3": (3, -2), "C4": (3, -3), "C5": (3, -2),
}

# Largest magnitude of an input number: residuals such as Ric^2 reach the
# fourth power of the inputs, which must stay a finite double.
MAX_ABS = 1e50
_REAL_TYPES = (int, float, np.integer, np.floating)
_PLAIN_REAL_TYPES = frozenset((int, float))  # what JSON numbers parse to


class Signature(NamedTuple):
    """Counts of -1 (p) and +1 (q) entries in a diagonalising basis."""

    p: int
    q: int


def exponent(x: float) -> int:
    """The k with x * 2**-k in [1, 2), for x > 0; 0 for x = 0."""
    return math.frexp(x)[1] - 1 if x else 0


def _is_real(x) -> bool:
    """Whether ``x`` is a real number (not a bool) of magnitude at most MAX_ABS; NaN fails."""
    return type(x) is not bool and isinstance(x, _REAL_TYPES) and abs(x) <= MAX_ABS


def _not_real(name: str, index, value) -> ParseError:
    """The ParseError for an entry of ``name`` at ``index`` that fails :func:`_is_real`."""
    return ParseError(f"{name} value for index {index} is {value!r}, "
                      f"but entries must hold real numbers, finite and of magnitude at most {MAX_ABS:g}")


def _plain_reals(values: list) -> np.ndarray | None:
    """``values`` as a float array if each is a plain int or float of magnitude at most MAX_ABS, else None.

    One type scan, one cast and one vectorised magnitude check.  None names
    no entry: that is left to a search by :func:`_is_real`.
    """
    if not set(map(type, values)) <= _PLAIN_REAL_TYPES:
        return None
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the double range
        return None
    return arr if np.abs(arr).max(initial=0.0) <= MAX_ABS else None  # NaN fails


def as_real_array(a, name: str = "array") -> np.ndarray:
    """``a`` as a float array if every entry passes :func:`_is_real`, else the ParseError for the first that fails.

    The types are checked before any cast, so strings and booleans are never read as numbers.
    An empty ``a`` has no entry to fail, whatever its dtype, and gives zeros of its shape.  Lists
    nested beyond numpy's dimension limit raise DimensionMismatchError.
    """
    a = a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
    if not a.size:
        return np.zeros(a.shape)  # no cast: an empty complex one warns
    if a.dtype == object:
        arr = _plain_reals(a.ravel().tolist())
        if arr is not None:
            return arr.reshape(a.shape)
    elif issubclass(a.dtype.type, _REAL_TYPES):  # not np.object_
        arr = a.astype(float, copy=False)
        if -MAX_ABS <= arr.min() and arr.max() <= MAX_ABS:  # NaN and the infinities fail; no temporary
            return arr
    bad = next(((k, x) for k, x in enumerate(a.ravel()) if not _is_real(x)), None)  # a.flat stops at 32 dimensions
    if bad is None:  # numpy scalars among the objects: real numbers, though not plain ones
        return a.astype(float)
    k, val = bad
    if a.ndim >= 32 and isinstance(val, (list, tuple)):  # numpy's dimension limit (64, 32 before numpy 2) was hit
        raise DimensionMismatchError(f"{name} nests lists more than {a.ndim} deep")
    pos = tuple(map(int, np.unravel_index(k, a.shape)))
    raise _not_real(name, pos[0] if len(pos) == 1 else pos, val)


def _with_ndim(a, ndim: int, name: str) -> np.ndarray:
    """``a`` as a float array of ``ndim`` dimensions; a scalar fails on its shape before its value is read."""
    arr = a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
    arr = as_real_array(arr, name) if arr.ndim else arr
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-dimensional, got ndim={arr.ndim}")
    return arr


def as_matrix(a, square: bool = False, dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float array of real numbers (see :func:`as_real_array`), checking shape constraints."""
    arr = _with_ndim(a, 2, name)
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    if dim is not None and arr.shape != (dim, dim):
        raise DimensionMismatchError(f"{name} must have shape ({dim}, {dim}), got {arr.shape}")
    return arr


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d float array of real numbers (see :func:`as_real_array`), checking its length."""
    arr = _with_ndim(x, 1, name)
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"{name} must have length {dim}, got {arr.shape[0]}")
    return arr


def operator_residual(a) -> float:
    """Max-norm of an array, the residual that decides 'operator vanishes'; +0.0 when all zero or empty, NaN if any is.

    Read from the largest and smallest entries, so no temporary |a| is built."""
    arr = np.asarray(a, dtype=float)
    return float(max(arr.max(initial=0.0), -arr.min(initial=0.0)) + 0.0)


class SymmetricForm:
    """A nondegenerate symmetric bilinear form given by its Gram matrix.

    The Gram matrix is symmetrised and frozen at construction; degeneracy
    (an eigenvalue within ``tol.rank * 2**exponent`` of zero, a cut relative
    to max|g|, or within 1/MAX_ABS, so that the inverse stays within
    MAX_ABS) is rejected immediately so downstream code never has to
    re-check.  Its one symmetric eigendecomposition is taken here and read
    by :func:`signature` and :func:`pseudo_orthonormal_basis`.  ``exponent``
    is k_g of the module's tolerance policy.
    """

    def __init__(self, gram, tol: Tolerance = DEFAULT_TOL):
        gram = as_matrix(gram, square=True, name="gram")
        self.exponent = exponent(operator_residual(gram))
        if not tol.passes(operator_residual(gram - gram.T), "metric", (0, self.exponent)):
            raise ValidationError("gram matrix is not symmetric to tolerance")
        gram = 0.5 * (gram + gram.T)
        vals, vecs = np.linalg.eigh(gram)
        cut = max(math.ldexp(tol.rank, self.exponent), 1 / MAX_ABS)
        if gram.shape[0] and np.min(np.abs(vals)) <= cut:
            raise DegenerateFormError(
                f"form is degenerate: eigenvalue magnitude {np.min(np.abs(vals)):.3e} <= rank cutoff {cut:.3e}"
            )
        gram.flags.writeable = False
        self.gram = gram
        self.dim = gram.shape[0]
        self._eigh = (vals, vecs)

    def inner(self, x, y) -> float:
        x = as_vector(x, self.dim)
        y = as_vector(y, self.dim)
        return float(x @ self.gram @ y)

    def solve(self, rhs) -> np.ndarray:
        """Apply the inverse Gram matrix (raise an index)."""
        return np.linalg.solve(self.gram, np.asarray(rhs, dtype=float))

    def __repr__(self):
        return f"SymmetricForm(dim={self.dim})"


def signature(form: SymmetricForm) -> Signature:
    """Inertia (p, q) of the form: counts of negative and positive eigenvalues."""
    p = int(np.count_nonzero(form._eigh[0] < 0))
    return Signature(p=p, q=form.dim - p)


def pseudo_orthonormal_basis(form: SymmetricForm):
    """Basis columns B with B^T G B = diag(signs), negative signs first.

    Built from the symmetric eigendecomposition of G with eigenvectors
    scaled by |eigenvalue|^(-1/2); stable for indefinite forms where naive
    Gram-Schmidt can hit null vectors.
    """
    vals, vecs = form._eigh
    signs = np.where(vals < 0, -1, 1).astype(int)
    basis = vecs / np.sqrt(np.abs(vals))[None, :]
    return basis, signs


def metric_adjoint(a, form: SymmetricForm) -> np.ndarray:
    """Adjoint A* with <A x, y> = <x, A* y>, i.e. A* = G^{-1} A^T G."""
    a = as_matrix(a, dim=form.dim, name="operator")
    return np.linalg.solve(form.gram, a.T @ form.gram)
