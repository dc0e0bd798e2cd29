"""Dense real linear algebra for indefinite symmetric bilinear forms.

Everything downstream (brackets, connections, curvature) reduces to small
dense matrices, so this module fixes the numerical conventions once:
the tolerance policy, the rank cutoff, signatures, pseudo-orthonormal
bases and metric adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFormError, DimensionMismatchError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Signature",
    "SymmetricForm",
    "as_matrix",
    "operator_residual",
    "signature",
    "pseudo_orthonormal_basis",
    "metric_adjoint",
]


@dataclass(frozen=True)
class Tolerance:
    """Residual policy: a residual r at scale s passes iff r <= abs + rel*s.

    ``rank`` is the singular-value cutoff below which a form or subspace
    direction counts as degenerate.
    """

    abs: float = 1e-9
    rel: float = 1e-9
    rank: float = 1e-8

    def __post_init__(self):
        if not all(0 < x < np.inf for x in (self.abs, self.rel, self.rank)):
            raise ValueError("tolerance fields must be strictly positive and finite")

    def threshold(self, scale: float = 1.0) -> float:
        return self.abs + self.rel * scale

    def ok(self, residual: float, scale: float = 1.0) -> bool:
        return residual <= self.threshold(scale)


DEFAULT_TOL = Tolerance()

# Largest magnitude of a number read from a file or the command line: residual
# scales reach the fourth power of the inputs, which must stay a finite double.
MAX_ABS = 1e50


class Signature(NamedTuple):
    """Counts of -1 (p) and +1 (q) entries in a diagonalising basis."""

    p: int
    q: int


def as_matrix(a, square: bool = False, dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float array, checking shape constraints."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    if dim is not None and arr.shape != (dim, dim):
        raise DimensionMismatchError(f"{name} must have shape ({dim}, {dim}), got {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"{name} must have length {dim}, got {arr.shape[0]}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def finite_number(val) -> float | None:
    """``val`` as a float if it is a real number (not a bool) of magnitude at most MAX_ABS, else None."""
    if isinstance(val, (bool, np.bool_)) or not isinstance(val, (int, float, np.integer, np.floating)):
        return None
    try:
        x = float(val)
    except OverflowError:  # an int beyond the double range
        return None
    return x if abs(x) <= MAX_ABS else None  # NaN fails the comparison


def operator_residual(a) -> float:
    """Max-norm of an array; the residual used to decide 'operator vanishes'."""
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


class SymmetricForm:
    """A nondegenerate symmetric bilinear form given by its Gram matrix.

    The Gram matrix is symmetrised and frozen at construction; degeneracy
    (an eigenvalue within ``tol.rank`` of zero) is rejected immediately so
    downstream code never has to re-check.  Its one symmetric
    eigendecomposition is taken here and read by :func:`signature` and
    :func:`pseudo_orthonormal_basis`.
    """

    def __init__(self, gram, tol: Tolerance = DEFAULT_TOL):
        gram = as_matrix(gram, square=True, name="gram")
        scale = max(1.0, operator_residual(gram))
        if operator_residual(gram - gram.T) > tol.threshold(scale):
            raise ValueError("gram matrix is not symmetric to tolerance")
        gram = 0.5 * (gram + gram.T)
        vals, vecs = np.linalg.eigh(gram)
        if gram.shape[0] and np.min(np.abs(vals)) <= tol.rank:
            raise DegenerateFormError(
                f"form is degenerate: eigenvalue magnitude {np.min(np.abs(vals)):.3e} <= rank cutoff {tol.rank:.3e}"
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


def signature(form: SymmetricForm, tol: Tolerance = DEFAULT_TOL) -> Signature:
    """Inertia (p, q) of the form: counts of negative and positive eigenvalues."""
    vals = form._eigh[0]
    if form.dim and np.min(np.abs(vals)) <= tol.rank:
        raise DegenerateFormError("cannot read signature of a degenerate form")
    p = int(np.count_nonzero(vals < 0))
    return Signature(p=p, q=form.dim - p)


def pseudo_orthonormal_basis(form: SymmetricForm, tol: Tolerance = DEFAULT_TOL):
    """Basis columns B with B^T G B = diag(signs), negative signs first.

    Built from the symmetric eigendecomposition of G with eigenvectors
    scaled by |eigenvalue|^(-1/2); stable for indefinite forms where naive
    Gram-Schmidt can hit null vectors.
    """
    vals, vecs = form._eigh
    if form.dim and np.min(np.abs(vals)) <= tol.rank:
        raise DegenerateFormError("cannot orthonormalise a degenerate form")
    signs = np.where(vals < 0, -1, 1).astype(int)
    basis = vecs / np.sqrt(np.abs(vals))[None, :]
    return basis, signs


def metric_adjoint(a, form: SymmetricForm) -> np.ndarray:
    """Adjoint A* with <A x, y> = <x, A* y>, i.e. A* = G^{-1} A^T G."""
    a = as_matrix(a, dim=form.dim, name="operator")
    return np.linalg.solve(form.gram, a.T @ form.gram)
