"""Lie algebras presented by structure constants.

The stored form is the dense antisymmetric bracket tensor
C[i, j, :] = [e_i, e_j].  Every way of building an algebra (a dict of
bracket rows, a dense tensor, a file loader or a construction writing
blocks) fills the strict upper triangle i < j and :func:`_complete` derives
the rest, so the lower triangle never disagrees with the upper one.  The
sparse ``structure`` dict is a read-only view for callers; the package
itself reads only the tensor.  Construction is two-phase: raw load, then
:meth:`LieAlgebra.validate` after the Jacobi check, which records the
tolerance it passed under.  The geometry layer validates every algebra
under its own tolerance.

Tolerances.  An algebra stores k_C (``exponent``) for
:meth:`~liemetric.linalg.Tolerance.passes`: the Jacobi residual is
quadratic in the structure constants, tr ad and antisymmetry are linear.

Rank policy.  The lower central and the derived series both start at
[g, g], the row span of the tensor read as a (dim^2, dim) matrix, and run
until a term vanishes or stops shrinking.
A term keeps the singular directions above ``tol.rank`` times the
algebra's largest structure constant, never above a fraction of the
term's own largest singular value: a term that should vanish holds only
rounding noise, and a cut relative to that noise would count it as rank.
The center, the null space of x -> ad(x), takes the same cut.

No kernel here builds a dim^4 array: brackets of spans are contracted
pairwise.  The Jacobi residual has two kernels, chosen from the tensor's
nonzero pattern.  The sparse one forms the P products
C[a, b, m] C[m, k, l] with a < b, where P = sum_m #{C[a, b, m] != 0, a < b}
* #{C[m, k, l] != 0} is counted exactly before anything is allocated, and
sums them per sorted triple and component.  It runs when P <= dim^3/8, so
its index and value arrays stay below the dense kernel's working set of
about 4 dim^3 doubles; the catalog algebras in their own bases all fall
inside the cut.  Otherwise (random-basis tensors, for instance) the dense
kernel takes the residual one basis index at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError, JacobiError
from .linalg import DEFAULT_TOL, Tolerance, as_real_array, as_vector, exponent, operator_residual

__all__ = [
    "LieAlgebra",
    "StructureReport",
    "validate_jacobi",
    "killing_form",
    "trace_functional",
    "structure_report",
    "direct_sum",
]

# from_tensor accepts |C + C^T| up to 1e-12 at unit brackets
_ANTISYMMETRY_TOL = Tolerance(abs=5e-13, rel=5e-13)

# Largest dimension read from a file or asked of the catalog.  The dense
# bracket tensor holds dim^3 doubles, so dim 256 is already 128 MiB, and the
# kernels keep a few arrays of that size alive at once.
MAX_DIM = 256


def _nonzero_pairs(t: np.ndarray):
    """Index arrays (i, j), i < j in row-major order, of the nonzero rows t[i, j]."""
    return np.nonzero(np.triu(np.any(t != 0.0, axis=2), 1))


def _complete(upper: np.ndarray) -> np.ndarray:
    """Read-only antisymmetric tensor from the strict upper triangle (i < j) of ``upper``.

    Rows that are entirely zero stay +0.0 in both triangles; the lower
    triangle of every other row is the negated upper row.
    """
    dim = upper.shape[0]
    i, j = _nonzero_pairs(upper)
    rows = upper[i, j]
    c = np.zeros((dim, dim, dim))
    c[i, j] = rows
    c[j, i] = -rows
    c.flags.writeable = False
    return c


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class LieAlgebra:
    """A finite-dimensional real Lie algebra over a fixed basis.

    Parameters
    ----------
    dim : int
        Dimension of the algebra.
    structure : mapping from (i, j) with i < j to a length-``dim`` vector
        Expansion of [e_i, e_j] in the basis.  Pairs that are absent
        bracket to zero.
    basis_names : optional sequence of labels for reporting.

    ``exponent`` is k_C, with max|C| * 2**-k_C in [1, 2) (0 for C = 0).
    """

    def __init__(self, dim, structure=None, basis_names=None):
        if not _is_integer(dim) or dim < 0:
            raise DimensionMismatchError(f"dim must be a nonnegative integer, got {dim!r}")
        dim = int(dim)
        upper = np.zeros((dim, dim, dim))
        for key, coeffs in dict(structure or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise DimensionMismatchError(f"bracket key {key!r} must be a pair (i, j)")
            i, j = key
            if not (_is_integer(i) and _is_integer(j) and 0 <= i < j < dim):
                raise DimensionMismatchError(
                    f"bracket pair ({i}, {j}) must be integers with 0 <= i < j < {dim}"
                )
            upper[i, j] = as_vector(coeffs, dim, name=f"[e_{i}, e_{j}] coefficient")
        self._set(upper, basis_names)

    @classmethod
    def _from_upper(cls, upper: np.ndarray, basis_names=None) -> "LieAlgebra":
        """Algebra whose brackets are the strict upper triangle of a cubic array."""
        g = cls.__new__(cls)
        g._set(upper, basis_names)
        return g

    def _set(self, upper: np.ndarray, basis_names):
        self.dim = upper.shape[0]
        self._tensor = _complete(upper)
        self._max_structure_constant = operator_residual(self._tensor)
        self.exponent = exponent(self._max_structure_constant)
        if basis_names is not None:
            basis_names = tuple(str(s) for s in basis_names)
            if len(basis_names) != self.dim:
                raise DimensionMismatchError("basis_names length must equal dim")
        self.basis_names = basis_names
        self._passed = set()  # the tolerances validate() has passed under
        self._jacobi_residual = None

    @classmethod
    def from_tensor(cls, tensor, basis_names=None) -> "LieAlgebra":
        """Build from a dense bracket tensor C[i, j, :] = [e_i, e_j].

        C must be antisymmetric in (i, j) to 1e-12 relative to 2**k_C; the
        upper triangle is kept exactly and the lower one rebuilt from it.
        """
        tensor = as_real_array(tensor, "bracket tensor")
        dim = tensor.shape[0]
        if tensor.shape != (dim, dim, dim):
            raise DimensionMismatchError(f"bracket tensor must be cubic, got {tensor.shape}")
        asym = operator_residual(tensor + tensor.transpose(1, 0, 2))
        if not _ANTISYMMETRY_TOL.passes(asym, "bracket", (exponent(operator_residual(tensor)), 0)):
            raise ValueError(f"bracket tensor is not antisymmetric (residual {asym:.3e})")
        return cls._from_upper(tensor, basis_names)

    @property
    def tensor(self) -> np.ndarray:
        """Dense antisymmetric tensor C with C[i, j, :] = [e_i, e_j] (read-only)."""
        return self._tensor

    @property
    def structure(self) -> MappingProxyType:
        """Read-only {(i, j): [e_i, e_j]} over the nonzero brackets with i < j, in (i, j) order."""
        i, j = _nonzero_pairs(self._tensor)
        rows = self._tensor[i, j]
        rows.flags.writeable = False
        return MappingProxyType(dict(zip(zip(i.tolist(), j.tolist()), rows)))

    @property
    def ad_basis(self) -> np.ndarray:
        """Array of adjoint matrices: ad_basis[i] = matrix of ad(e_i)."""
        return self.tensor.transpose(0, 2, 1)

    @property
    def max_structure_constant(self) -> float:
        """Largest |C[i, j, k]|, computed once (the tensor is read-only)."""
        return self._max_structure_constant

    @property
    def is_validated(self) -> bool:
        """Whether :meth:`validate` has passed under some tolerance."""
        return bool(self._passed)

    @property
    def jacobi_residual(self) -> float:
        """:func:`validate_jacobi` of this algebra, computed once (the tensor is read-only)."""
        if self._jacobi_residual is None:
            self._jacobi_residual = validate_jacobi(self)
        return self._jacobi_residual

    def bracket(self, x, y) -> np.ndarray:
        """[x, y] by contraction against the structure tensor."""
        return self.ad(x) @ as_vector(y, self.dim, name="y")

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x): ad(x) y = [x, y]."""
        x = as_vector(x, self.dim, name="x")
        n = self.dim
        return (x @ self.tensor.reshape(n, n * n)).reshape(n, n).T

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> "LieAlgebra":
        """Check the Jacobi identity under ``tol``, unless already passed under ``tol``; raise JacobiError."""
        if tol in self._passed:
            return self
        res = self.jacobi_residual
        if not tol.passes(res, "jacobi", (self.exponent, 0)):
            raise JacobiError(
                f"Jacobi residual {res:.3e} exceeds tolerance (largest constant {self.max_structure_constant:.3e})",
                residual=res
            )
        self._passed.add(tol)
        return self

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(_nonzero_pairs(self._tensor)[0])})"


def validate_jacobi(g: LieAlgebra) -> float:
    """Max-norm over basis triples (i, j, k) and components l of the Jacobi cyclic sum.

    J(i, j, k) = [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    is alternating in (i, j, k), so its max-norm is taken over i < j < k.
    Two kernels compute it, and the tensor's nonzero pattern picks one:
    the sparse one runs when its exact product count
    sum_m #{C[a, b, m] != 0, a < b} * #{C[m, k, l] != 0} is at most dim^3/8,
    the dense one otherwise.  Neither builds a dim^4 array.
    """
    c = g.tensor
    nonzero = c != 0.0
    row_nnz = np.count_nonzero(nonzero, axis=(1, 2))
    # the nonzero pattern is symmetric in (a, b) with a zero diagonal: half of it has a < b
    upper_nnz = np.count_nonzero(nonzero, axis=(0, 1)) // 2
    count = int(upper_nnz @ row_nnz)
    if 8 * count > g.dim ** 3:
        return _dense_jacobi(g)
    return _sparse_jacobi(c, row_nnz, count)


def _dense_jacobi(g: LieAlgebra) -> float:
    """Jacobi residual as the homomorphism defect ad([e_i, e_j]) - [ad e_i, ad e_j].

    That defect is the cyclic sum J(i, j, k) read at e_k, taken one index i
    at a time: O(dim^3) memory.  It is antisymmetric in (i, j) and zero at
    i = j, so only j > i is formed.
    """
    ads = g.ad_basis
    res = 0.0
    for i in range(g.dim):
        rest = ads[i + 1:]
        lhs = np.tensordot(g.tensor[i, i + 1:], ads, axes=(1, 0))  # ad([e_i, e_j]) for every j > i
        defect = lhs - (ads[i] @ rest - rest @ ads[i])
        res = max(res, operator_residual(defect))
    return res


def _sparse_jacobi(c: np.ndarray, row_nnz: np.ndarray, count: int) -> float:
    """Jacobi residual summed over the ``count`` nonzero products C[a, b, m] C[m, k, l], a < b.

    Each product is the term [[e_a, e_b], e_k] of J at component l.  It is
    keyed by the sorted triple of (a, b, k) and l, with the sign of that
    sort, and the products of one key are summed.  Products with k in
    {a, b} are dropped: a cyclic sum with a repeated index vanishes term by
    term.
    """
    dim = c.shape[0]
    i, j, k = np.nonzero(c)  # row-major, so the entries of row m are contiguous
    vals = c[i, j, k]
    row_start = np.cumsum(row_nnz) - row_nnz
    left = np.flatnonzero(i < j)
    reps = row_nnz[k[left]]
    first = np.cumsum(reps) - reps
    # product p pairs left entry lhs[p] with entry p - first of its row m
    lhs = np.repeat(left, reps)
    rhs = np.repeat(row_start[k[left]] - first, reps) + np.arange(count)
    a, b, kk, l = i[lhs], j[lhs], j[rhs], k[rhs]
    keep = (kk != a) & (kk != b)
    a, b, kk, l = a[keep], b[keep], kk[keep], l[keep]
    prods = vals[lhs[keep]] * vals[rhs[keep]]
    prods[(a < kk) & (kk < b)] *= -1.0  # (a, b, k) -> (a, k, b) is odd; k < a and k > b are even
    lo, hi = np.minimum(a, kk), np.maximum(b, kk)
    key = ((lo * dim + (a + b + kk - lo - hi)) * dim + hi) * dim + l
    _, slot = np.unique(key, return_inverse=True)
    return operator_residual(np.bincount(slot, weights=prods))


def killing_form(g: LieAlgebra) -> np.ndarray:
    """K_ij = trace(ad e_i . ad e_j); symmetric, possibly degenerate."""
    n = g.dim
    k = g.tensor.reshape(n, n * n) @ g.ad_basis.reshape(n, n * n).T  # sum_ab ad(e_i)[b, a] ad(e_j)[a, b]
    return 0.5 * (k + k.T)


def trace_functional(g: LieAlgebra) -> np.ndarray:
    """tau_i = trace(ad e_i); the algebra is unimodular iff tau = 0."""
    return np.trace(g.ad_basis, axis1=1, axis2=2)


@dataclass(frozen=True)
class StructureReport:
    is_nilpotent: bool
    is_solvable: bool
    is_unimodular: bool
    center_dim: int
    derived_dim: int
    nilpotency_step: int | None


def _row_span(g: LieAlgebra, prods: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal row basis of the span of the rows of ``prods``, a stack of brackets.

    Singular values count as rank above ``tol.rank * g.max_structure_constant``
    (see the module docstring).
    """
    _, svals, vt = np.linalg.svd(prods, full_matrices=False)
    rank = int(np.count_nonzero(svals > tol.rank * g.max_structure_constant))
    return vt[:rank]


def _bracket_span(g: LieAlgebra, a: np.ndarray, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal row basis of [span(a), span(b)] for row-basis matrices a, b."""
    dim = g.dim
    left = (a @ g.tensor.reshape(dim, dim * dim)).reshape(a.shape[0], dim, dim)  # [a_r, e_j]
    return _row_span(g, (b @ left).reshape(a.shape[0] * b.shape[0], dim), tol)  # [a_r, b_s]


def _series_length(g: LieAlgebra, term: np.ndarray, nxt) -> int | None:
    """Terms from ``term`` = [g, g] through the first zero one; ``nxt`` gives the next term.

    None when a term is no smaller than the one before it (g before [g, g]).
    """
    size, length = g.dim, 1
    while term.shape[0]:
        if term.shape[0] >= size:
            return None
        size, term, length = term.shape[0], nxt(term), length + 1
    return length


def structure_report(g: LieAlgebra, tol: Tolerance = DEFAULT_TOL) -> StructureReport:
    """Series-based structural predicates with an explicit numerical rank policy."""
    dim = g.dim
    derived = _row_span(g, g.tensor.reshape(dim * dim, dim), tol)  # [e_i, e_j]
    step = _series_length(g, derived, lambda t: _row_span(g, (t @ g.tensor).reshape(dim * t.shape[0], dim), tol))
    derived_length = _series_length(g, derived, lambda t: _bracket_span(g, t, t, tol))

    # center = null space of x -> ad(x), flattened to a (dim^2, dim) matrix, under the cut of _row_span
    svals = np.linalg.svd(g.tensor.transpose(1, 2, 0).reshape(dim * dim, dim), compute_uv=False)
    rank = int(np.count_nonzero(svals > tol.rank * g.max_structure_constant))

    tau = trace_functional(g)
    unimodular = tol.passes(operator_residual(tau), "trace_ad", (g.exponent, 0))

    return StructureReport(
        is_nilpotent=step is not None,
        is_solvable=derived_length is not None,
        is_unimodular=unimodular,
        center_dim=dim - rank,
        derived_dim=int(derived.shape[0]),
        nilpotency_step=step,
    )


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Direct sum of two algebras (block brackets, no interaction)."""
    t = np.zeros((a.dim + b.dim,) * 3)
    t[: a.dim, : a.dim, : a.dim] = a.tensor
    t[a.dim :, a.dim :, a.dim :] = b.tensor
    names = None
    if a.basis_names is not None and b.basis_names is not None:
        names = a.basis_names + b.basis_names
    return LieAlgebra._from_upper(t, basis_names=names)
