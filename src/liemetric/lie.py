"""Lie algebras presented by structure constants.

The stored form is the dense antisymmetric bracket tensor
C[i, j, :] = [e_i, e_j].  Every way of building an algebra ends in one core,
:meth:`LieAlgebra._adopt`, which adopts an exactly antisymmetric tensor its
caller has just built: a dict of rows and the file loader scatter their
nonzero rows into both triangles, a construction or a dense tensor has its
strict upper triangle mirrored, :func:`direct_sum` places two whole tensors
as blocks, sl(n) hands over its exact integer commutators, and a change of
basis hands over (C - C^T)/2.  So the lower triangle is the negation of the
upper one, up to the sign of zero.  The core makes the tensor read-only and
takes max|C| and k_C.  The pair index (``bracket_pairs``, the nonzero upper
rows in row-major order) comes sorted with the rows of a dict, a file or an
upper triangle; any other tensor is scanned for it when it is first read, as
for the Jacobi residual.  Only the Jacobi check, ``structure``, ``repr`` and
the file writer read the pair index, so a frame never builds it.
Construction is two-phase: raw load, then :meth:`LieAlgebra.validate` after
the Jacobi check, which records the tolerance it passed under.  The geometry
layer validates every algebra under its own tolerance.

Tolerances.  An algebra stores k_C (``exponent``) for
:meth:`~liemetric.linalg.Tolerance.passes`: the Jacobi residual is
quadratic in the structure constants, tr ad and antisymmetry are linear.

Rank policy.  The lower central and the derived series both start at
[g, g], the row span of the tensor read as a (dim^2, dim) matrix, and run
until a term vanishes or stops shrinking.  A term keeps the singular
directions above ``tol.rank`` times the algebra's largest structure
constant, never above a fraction of the term's own largest singular value:
a term that should vanish holds only rounding noise, and a cut relative to
that noise would count it as rank.  The center, the null space of
x -> ad(x), takes the same cut.  Each rank is taken over the rows of its
stack that are not all zero: an exactly zero row adds nothing to A^T A.
Each stack comes as row blocks (views of the tensor, or products with it
formed as read), and one pass of :func:`_reduced` gathers their rows up to
one QR block of max(144, 2 dim); when more come, those gathered are cut to
their R factor, with the same singular values and right vectors (Chan, ACM
TOMS 8, 1982).  So a stack is reduced once, by QRs of row blocks (TSQR, SIAM
J. Sci. Comput. 34, 2012), and one SVD of what is left gives :func:`_row_span`
its span.  A QR of sl(7)'s 726 nonzero [g, g] rows takes 1.40 ms when
OpenBLAS spreads it over 2 threads and 0.53 ms on 1; one of a block stays on
one thread.  The center needs only a rank, so its SVD skips the right
vectors, which would cost 2.4-2.9 times as much at dim 48.

No kernel here builds a dim^4 array: brackets of spans are contracted
pairwise, and the Jacobi check picks a sparse or a dense kernel by its exact
product count, read from the pair index (see :func:`validate_jacobi`).
:func:`killing_form`, which the structural Ricci route reads, runs by blocks
of j: one block up to dim 32, above it last bits unlike the whole product's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import BadParamsError, DimensionMismatchError, JacobiError, ValidationError, _shown
from .linalg import DEFAULT_TOL, Tolerance, as_real_array, as_vector, exponent, operator_residual, size_exponent

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

# Largest dimension read from a file, asked of the catalog or built by
# LieAlgebra, from_tensor or a construction.  The dense bracket tensor holds
# dim^3 doubles, so dim 256 is already 128 MiB, and the kernels keep a few
# arrays of that size alive at once.
MAX_DIM = 256


# Entries one block of a dim^3 kernel covers, 256 KiB of doubles: one block up to dim 32, 14 rows at 48, 7 at 65
_BLOCK = 2 ** 15
# Rows of one QR block of a rank stack, or 2 dim if that is more (see the module docstring)
_QR_ROWS = 144


@functools.lru_cache(maxsize=256)
def _blocks(rows: int, row_size: int | None = None) -> tuple[slice, ...]:
    """Slices of ``rows`` rows of ``row_size`` entries (rows^2 by default), each of ``_BLOCK`` entries or one row."""
    step = max(1, _BLOCK // max(1, rows * rows if row_size is None else row_size))
    return tuple(slice(k, min(k + step, rows)) for k in range(0, rows, step))


def _check_dim(name: str, dim: int):
    """Reject an output dimension above ``MAX_DIM``, before anything of that size is allocated."""
    if dim > MAX_DIM:
        raise BadParamsError(f"{name}: the result would have dimension {_shown(dim)}, above the limit {MAX_DIM}")


def _scatter(dim: int, i: np.ndarray, j: np.ndarray, rows: np.ndarray):
    """The tensor of [e_i[p], e_j[p]] = rows[p], distinct pairs i[p] < j[p], and the pairs of its nonzero rows sorted
    row-major, as ``bracket_pairs`` would scan them; an all-zero row (-0.0 too) stays +0.0."""
    keep = np.flatnonzero(rows.any(axis=1))
    keep = keep[np.argsort(i[keep] * dim + j[keep])]
    i, j, rows = i[keep], j[keep], rows[keep]
    c = np.zeros((dim, dim, dim))
    c[i, j] = rows
    c[j, i] = -rows
    i.flags.writeable = j.flags.writeable = False
    return c, (i, j)


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class LieAlgebra:
    """A finite-dimensional real Lie algebra over a fixed basis.

    Parameters
    ----------
    dim : int
        Dimension of the algebra; above ``MAX_DIM`` it raises BadParamsError.
    structure : mapping from (i, j) with i < j to a length-``dim`` vector
        Expansion of [e_i, e_j] in the basis.  Pairs that are absent
        bracket to zero.
    basis_names : optional sequence of ``dim`` labels for reporting; a string is refused.

    ``exponent`` is k_C, with max|C| * 2**-k_C in [1, 2) (0 for C = 0).
    """

    def __init__(self, dim, structure=None, basis_names=None):
        if not _is_integer(dim) or dim < 0:
            raise DimensionMismatchError(f"dim must be a nonnegative integer, got {_shown(dim)}")
        dim = int(dim)
        _check_dim("LieAlgebra", dim)
        pairs, rows = [], []
        for key, coeffs in dict(structure or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise DimensionMismatchError(f"bracket key {_shown(key)} must be a pair (i, j)")
            i, j = key
            if not (_is_integer(i) and _is_integer(j) and 0 <= i < j < dim):
                raise DimensionMismatchError(
                    f"bracket pair {_shown(key)} must be integers with 0 <= i < j < {dim}"
                )
            pairs.append((i, j))
            rows.append(as_vector(coeffs, dim, name=f"[e_{i}, e_{j}] coefficient"))
        i, j = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2).T
        c, self.bracket_pairs = _scatter(dim, i, j, np.array(rows).reshape(len(rows), dim))
        self._adopt(c, basis_names)

    @classmethod
    def _adopting(cls, c: np.ndarray, basis_names=None, pairs=None) -> "LieAlgebra":
        """Algebra that adopts the exactly antisymmetric tensor ``c`` (see :meth:`_adopt`) and any pair index of it."""
        g = cls.__new__(cls)._adopt(c, basis_names)
        if pairs is not None:
            g.bracket_pairs = pairs  # in the instance dict, where the cached property keeps what it scans
        return g

    @classmethod
    def _from_upper(cls, upper: np.ndarray, basis_names=None) -> "LieAlgebra":
        """Algebra whose brackets are the strict upper triangle of a cubic array, mirrored into the lower one."""
        i, j = np.nonzero(np.triu(upper.any(axis=2), 1))
        c, pairs = _scatter(upper.shape[0], i, j, upper[i, j])
        return cls._adopting(c, basis_names, pairs)

    def _adopt(self, c: np.ndarray, basis_names) -> "LieAlgebra":
        """The one construction core: adopt ``c``, exactly antisymmetric and held by no one else, as the tensor.

        ``c`` becomes read-only.  By antisymmetry max|C| is its largest
        entry, found without a temporary."""
        if basis_names is not None:  # a string is one name, not a sequence of its letters
            if (isinstance(basis_names, str) or not np.iterable(basis_names)
                    or len(basis_names := tuple(map(str, basis_names))) != c.shape[0]):
                raise DimensionMismatchError("basis_names length must equal dim")
        c.flags.writeable = False
        self.dim, self.basis_names, self._tensor = c.shape[0], basis_names, c
        self._max_structure_constant = abs(float(c.max(initial=0.0)))  # NaN stays NaN
        self.exponent = exponent(self._max_structure_constant)
        self._passed = set()  # the tolerances validate() has passed under
        return self

    @classmethod
    def from_tensor(cls, tensor, basis_names=None) -> "LieAlgebra":
        """Build from a dense bracket tensor C[i, j, :] = [e_i, e_j].

        C must be antisymmetric in (i, j) to 1e-12 relative to 2**k_C, else
        ValidationError; the upper triangle is kept exactly and the lower one
        rebuilt from it.  A dim above ``MAX_DIM`` raises BadParamsError.
        """
        tensor = as_real_array(tensor, "bracket tensor")
        dim = tensor.shape[0] if tensor.ndim else 0
        if tensor.shape != (dim, dim, dim):
            raise DimensionMismatchError(f"bracket tensor must be cubic, got {tensor.shape}")
        _check_dim("from_tensor", dim)
        asym = operator_residual(tensor + tensor.transpose(1, 0, 2))
        if not _ANTISYMMETRY_TOL.passes(asym, "bracket", (size_exponent(tensor), 0)):
            raise ValidationError(f"bracket tensor is not antisymmetric (residual {asym:.3e})")
        return cls._from_upper(tensor, basis_names)

    @property
    def tensor(self) -> np.ndarray:
        """Dense antisymmetric tensor C with C[i, j, :] = [e_i, e_j] (read-only)."""
        return self._tensor

    @functools.cached_property
    def bracket_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (i, j), i < j in row-major order, of the nonzero brackets [e_i, e_j]; handed over or scanned."""
        i, j = np.nonzero(np.triu(self._tensor.any(axis=2), 1))
        i.flags.writeable = j.flags.writeable = False
        return i, j

    @property
    def structure(self) -> MappingProxyType:
        """Read-only {(i, j): [e_i, e_j]} over the nonzero brackets with i < j, in (i, j) order."""
        i, j = self.bracket_pairs
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

    @functools.cached_property
    def jacobi_residual(self) -> float:
        """:func:`validate_jacobi` of this algebra, computed once (the tensor is read-only)."""
        return validate_jacobi(self)

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
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.bracket_pairs[0])})"


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
    """K_ij = trace(ad e_i . ad e_j), by blocks of j; symmetric, possibly degenerate."""
    n, c = g.dim, g.tensor
    k = np.empty((n, n))
    for s in _blocks(n):  # sum_ab ad(e_i)[b, a] ad(e_j)[a, b]
        k[:, s] = c.reshape(n, n * n) @ c[s].transpose(0, 2, 1).reshape(-1, n * n).T
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


def _reduced(blocks, dim: int) -> np.ndarray:
    """Rows with the singular values and right vectors of the stacked ``blocks`` (TSQR, see the module docstring)."""
    most, rows = max(_QR_ROWS, 2 * dim), np.empty((0, dim))
    for block in blocks:
        block = block[block.any(axis=1)]
        while block.shape[0] > most - rows.shape[0]:
            fill = most - rows.shape[0]
            r = np.linalg.qr(np.concatenate((rows, block[:fill])), mode="r")
            rows, block = r[r.any(axis=1)], block[fill:]
        rows = np.concatenate((rows, block)) if rows.size else block
        del block  # before the next one is formed
    return rows


def _row_span(g: LieAlgebra, blocks, tol: Tolerance) -> np.ndarray:
    """Orthonormal row basis of the stacked row ``blocks``: one :func:`_reduced`, one SVD, the module's cut."""
    _, svals, vt = np.linalg.svd(_reduced(blocks, g.dim), full_matrices=False)
    return vt[:int(np.count_nonzero(svals > tol.rank * g.max_structure_constant))]


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
    dim, c = g.dim, g.tensor
    flat, ad = c.reshape(dim * dim, dim), c.reshape(dim, dim * dim)  # a @ ad = [a, e_j]; ad.T is x -> ad(x)
    derived = _row_span(g, (flat[s] for s in _blocks(dim * dim, dim)), tol)
    step = _series_length(g, derived, lambda t: _row_span(  # [e_i, t_q] by blocks of i
        g, ((t @ c[s]).reshape(-1, dim) for s in _blocks(dim, t.shape[0] * dim)), tol))
    derived_length = _series_length(g, derived, lambda t: _row_span(  # [t_r, t_q] by blocks of r
        g, ((t @ (t[s] @ ad).reshape(-1, dim, dim)).reshape(-1, dim) for s in _blocks(t.shape[0], dim * dim)), tol))

    # the center is the null space of x -> ad(x), under the cut of _row_span; it needs only the singular values
    svals = np.linalg.svd(_reduced((ad.T[s] for s in _blocks(dim * dim, dim)), dim), compute_uv=False)
    rank = int(np.count_nonzero(svals > tol.rank * g.max_structure_constant))
    unimodular = tol.passes(operator_residual(trace_functional(g)), "trace_ad", (g.exponent, 0))

    return StructureReport(
        is_nilpotent=step is not None,
        is_solvable=derived_length is not None,
        is_unimodular=unimodular,
        center_dim=dim - rank,
        derived_dim=int(derived.shape[0]),
        nilpotency_step=step,
    )


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Direct sum of two algebras (block brackets, no interaction); BadParamsError above ``MAX_DIM``."""
    _check_dim("direct_sum", a.dim + b.dim)
    t = np.zeros((a.dim + b.dim,) * 3)
    t[: a.dim, : a.dim, : a.dim] = a.tensor
    t[a.dim :, a.dim :, a.dim :] = b.tensor
    names = None if None in (a.basis_names, b.basis_names) else a.basis_names + b.basis_names
    return LieAlgebra._adopting(t, basis_names=names)
