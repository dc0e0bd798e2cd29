"""Lie algebras presented by structure constants.

The stored form is the dense antisymmetric bracket tensor
C[i, j, :] = [e_i, e_j].  Every way of building an algebra ends in one core,
:meth:`LieAlgebra._set`, given the nonzero rows [e_i, e_j], i < j, in
row-major order: a dict of rows and the file loader drop their zero rows
and sort the rest, a dense tensor or a construction writing blocks finds
the nonzero rows of its strict upper triangle once.  The core keeps their
pairs as the read-only pair index (``bracket_pairs``, computed once like
max|C| and k_C) and writes the rows once into the tensor, negated in the
lower triangle, so the two triangles never disagree.  The readers of the sparsity (the Jacobi
check, the read-only ``structure`` view, the file writer) read the pair
index, never a scan of the dim^3 tensor.  Construction is two-phase: raw
load, then :meth:`LieAlgebra.validate` after the Jacobi check, which records
the tolerance it passed under.  The geometry layer validates every algebra
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
Every rank is taken over the rows of its stack that are not all zero; in
a sparse basis most of the dim^2 rows of a bracket stack are zero.  Those of
[g, g] and of the center are read off the pair index, in the stack's
row-major order; those of the later stacks are found by a scan.  An
exactly zero row adds nothing to A^T A, so the singular values are those
of the full stack and the cut keeps the same ones.

No kernel here builds a dim^4 array: brackets of spans are contracted
pairwise.  The Jacobi check counts its products C[a, b, m] C[m, k, l],
a < b, exactly from the pair index (see :func:`validate_jacobi`).  With none
(abelian algebras, and two-step nilpotent ones such as H_n whose brackets
only have components along central basis vectors) the residual is exactly
0.0 and no kernel runs.  Up to dim^3/8 products the sparse kernel forms and
sums them, reading the nonzero rows and their negated mirrors in the
row-major order of ``np.nonzero(C)``; the catalog algebras in their own
bases all fall inside that cut.  Denser tensors (random bases, for instance)
take the dense kernel, which forms each triple i < j < k once: dim^5/2
multiply-adds and a working set of about 2.5 dim^3 doubles.
"""

from __future__ import annotations

import functools
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


def _row_major(dim: int, i: np.ndarray, j: np.ndarray, rows: np.ndarray):
    """The pairs (i, j) and rows that are not all zero (a row of -0.0 is all zero), in row-major (i, j) order."""
    keep = np.flatnonzero(rows.any(axis=1))
    keep = keep[np.argsort(i[keep] * dim + j[keep])]
    return i[keep], j[keep], rows[keep]


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
        pairs, rows = [], []
        for key, coeffs in dict(structure or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise DimensionMismatchError(f"bracket key {key!r} must be a pair (i, j)")
            i, j = key
            if not (_is_integer(i) and _is_integer(j) and 0 <= i < j < dim):
                raise DimensionMismatchError(
                    f"bracket pair ({i}, {j}) must be integers with 0 <= i < j < {dim}"
                )
            pairs.append((i, j))
            rows.append(as_vector(coeffs, dim, name=f"[e_{i}, e_{j}] coefficient"))
        i, j = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2).T
        self._set(dim, *_row_major(dim, i, j, np.array(rows).reshape(len(rows), dim)), basis_names)

    @classmethod
    def _from_rows(cls, dim: int, i: np.ndarray, j: np.ndarray, rows: np.ndarray, basis_names=None) -> "LieAlgebra":
        """Algebra with [e_i[p], e_j[p]] = rows[p] for distinct pairs i[p] < j[p] in any order."""
        g = cls.__new__(cls)
        g._set(dim, *_row_major(dim, i, j, rows), basis_names)
        return g

    @classmethod
    def _from_upper(cls, upper: np.ndarray, basis_names=None) -> "LieAlgebra":
        """Algebra whose brackets are the strict upper triangle of a cubic array, its nonzero rows found once."""
        i, j = np.nonzero(np.triu(upper.any(axis=2), 1))
        g = cls.__new__(cls)
        g._set(upper.shape[0], i, j, upper[i, j], basis_names)
        return g

    def _set(self, dim: int, i: np.ndarray, j: np.ndarray, rows: np.ndarray, basis_names):
        """The one construction core: the brackets [e_i[p], e_j[p]] = rows[p], nonzero rows in row-major order.

        The pairs become the pair index, and the rows are written once into
        the tensor: upper triangle as given, lower triangle negated.  Every
        row not given stays +0.0 in both triangles.
        """
        if basis_names is not None:
            basis_names = tuple(str(s) for s in basis_names)
            if len(basis_names) != dim:
                raise DimensionMismatchError("basis_names length must equal dim")
        c = np.zeros((dim, dim, dim))
        c[i, j] = rows
        c[j, i] = -rows
        for a in (c, i, j):
            a.flags.writeable = False
        self.dim, self.basis_names = dim, basis_names
        self._tensor, self._pairs = c, (i, j)
        self._max_structure_constant = operator_residual(rows)
        self.exponent = exponent(self._max_structure_constant)
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
    def bracket_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j), i < j in row-major order, of the nonzero brackets [e_i, e_j] (read-only)."""
        return self._pairs

    @property
    def structure(self) -> MappingProxyType:
        """Read-only {(i, j): [e_i, e_j]} over the nonzero brackets with i < j, in (i, j) order."""
        i, j = self._pairs
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
        return f"LieAlgebra(dim={self.dim}, brackets={len(self._pairs[0])})"


def validate_jacobi(g: LieAlgebra) -> float:
    """Max-norm over basis triples (i, j, k) and components l of the Jacobi cyclic sum.

    J(i, j, k) = [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    is alternating in (i, j, k), so its max-norm is taken over i < j < k.
    Each term is a sum of products C[a, b, m] C[m, k, l].  Their exact count
    over the nonzero pattern, sum_m #{C[a, b, m] != 0, a < b} * #{C[m, k, l] != 0},
    decides the work: none when it is zero (the residual is exactly 0.0), the
    sparse kernel when it is at most dim^3/8, the dense kernel otherwise.
    Neither builds a dim^4 array.
    """
    i, j = g.bracket_pairs
    if not len(i):
        return 0.0
    nonzero = g.tensor[i, j] != 0.0  # the pattern of the nonzero rows; a lower row has that of its upper row
    row_len = np.count_nonzero(nonzero, axis=1)
    # C[m] holds the rows (m, b) and (a, m)
    row_nnz = (np.bincount(i, row_len, minlength=g.dim) + np.bincount(j, row_len, minlength=g.dim)).astype(np.int64)
    upper_nnz = np.count_nonzero(nonzero, axis=0)
    count = int(upper_nnz @ row_nnz)
    if not count:  # every product C[a, b, m] C[m, k, l] is zero, as in H_n
        return 0.0
    if 8 * count > g.dim ** 3:
        return _dense_jacobi(g)
    r, k = np.nonzero(nonzero)
    return _sparse_jacobi(g.tensor, i[r], j[r], k, row_nnz, count)


@functools.cache
def _pair_positions(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions i*dim + j and j*dim + i of the pairs i < j of a (dim, dim) array, sorted by j, then i.

    The first k(k - 1)/2 of them are the pairs i < j < k.
    """
    back = np.flatnonzero(np.tri(dim, dim, -1, dtype=bool))
    fwd = back % dim * dim + back // dim
    fwd.flags.writeable = back.flags.writeable = False
    return fwd, back


def _dense_jacobi(g: LieAlgebra) -> float:
    """Jacobi residual with each triple i < j < k formed once, one largest index k at a time.

    For each k, one matrix product gives [[e_i, e_j], e_k] from the rows
    [e_i, e_j], i < j < k, and another [[e_k, e_a], e_b] for all a, b < k,
    written at a fixed row stride, so that the other two terms of each
    triple sit at fixed flat positions.  That is dim^5/2 multiply-adds in
    all and a working set of about 2.5 dim^3 doubles.
    """
    n, c = g.dim, g.tensor
    fwd, back = _pair_positions(n)
    by_first = c.reshape(n, n * n)
    rows = c.reshape(n * n, n)[fwd]  # [e_i, e_j] for i < j, sorted by j
    out = np.empty((n, n, n))
    flat = out.reshape(n * n, n)
    res = 0.0
    for k in range(2, n):
        m = k * (k - 1) // 2
        jac = rows[:m] @ c[:, k]
        np.matmul(c[k, :k], by_first[:, : k * n], out=out[:k, :k].reshape(k, k * n))
        jac += flat[fwd[:m]]  # [[e_k, e_i], e_j]
        jac -= flat[back[:m]]  # [[e_k, e_j], e_i] = -[[e_j, e_k], e_i]
        res = max(res, operator_residual(jac))
    return res


def _sparse_jacobi(c: np.ndarray, ui: np.ndarray, uj: np.ndarray, uk: np.ndarray, row_nnz: np.ndarray,
                   count: int) -> float:
    """Jacobi residual summed over the ``count`` nonzero products C[a, b, m] C[m, k, l], a < b.

    (ui, uj, uk) index the nonzero entries of the upper triangle.  With
    their mirrors (uj, ui, uk) they are sorted into the row-major order of
    ``np.nonzero(C)``, so the sums below run in its order.  Each product is
    the term [[e_a, e_b], e_k] of J at component l.  It is keyed by the sorted
    triple of (a, b, k) and l, with the sign of that sort, and the products of
    one key are summed.  Products with k in {a, b} are dropped: a cyclic sum
    with a repeated index vanishes term by term.
    """
    dim = c.shape[0]
    i, j, k = np.concatenate((ui, uj)), np.concatenate((uj, ui)), np.concatenate((uk, uk))
    order = np.argsort((i * dim + j) * dim + k)  # row-major, so the entries of row m are contiguous
    i, j, k = i[order], j[order], k[order]
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


def _nonzero_rows(stack: np.ndarray) -> np.ndarray:
    """The rows of a 2-d stack that are not all zero; they alone carry its singular values."""
    return stack[stack.any(axis=1)]


def _center_rows(g: LieAlgebra) -> np.ndarray:
    """The nonzero rows C[:, b, k] of the center's (dim^2, dim) stack, in its row-major order of (b, k).

    They come from the pair index: a nonzero C[i, j, k], i < j, makes rows
    (j, k) and (i, k) nonzero (C[j, i, k] = -C[i, j, k]), and no other row is.
    """
    i, j = g.bracket_pairs
    r, k = np.nonzero(g.tensor[i, j])
    rows = np.zeros((g.dim, g.dim), bool)
    rows[j[r], k] = rows[i[r], k] = True
    return g.tensor.transpose(1, 2, 0)[rows]


def _row_span(g: LieAlgebra, rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal row basis of the span of ``rows``, the nonzero rows of a stack of brackets.

    Singular values count as rank above ``tol.rank * g.max_structure_constant``
    (see the module docstring).
    """
    _, svals, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.count_nonzero(svals > tol.rank * g.max_structure_constant))
    return vt[:rank]


def _bracket_span(g: LieAlgebra, a: np.ndarray, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal row basis of [span(a), span(b)] for row-basis matrices a, b."""
    dim = g.dim
    left = (a @ g.tensor.reshape(dim, dim * dim)).reshape(a.shape[0], dim, dim)  # [a_r, e_j]
    return _row_span(g, _nonzero_rows((b @ left).reshape(a.shape[0] * b.shape[0], dim)), tol)  # [a_r, b_s]


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
    i, j = g.bracket_pairs  # the nonzero rows of the (dim^2, dim) stack [e_a, e_b] are these pairs and their mirrors
    derived = _row_span(g, g.tensor.reshape(dim * dim, dim)[np.sort(np.concatenate((i * dim + j, j * dim + i)))], tol)
    step = _series_length(
        g, derived, lambda t: _row_span(g, _nonzero_rows((t @ g.tensor).reshape(dim * t.shape[0], dim)), tol)
    )
    derived_length = _series_length(g, derived, lambda t: _bracket_span(g, t, t, tol))

    # center = null space of x -> ad(x), flattened to a (dim^2, dim) matrix, under the cut of _row_span
    svals = np.linalg.svd(_center_rows(g), compute_uv=False)
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
