"""Pseudo-Riemannian geometry of a metric Lie algebra.

All tensors are taken at the identity in a fixed basis: the Levi-Civita
connection has constant coefficients, so curvature and Ricci reduce to
finite contractions of the structure tensor against the Gram matrix.

Every verdict is judged, with one residual in frame units, in the frame
(:func:`frame`), where g = diag(+-1): there ric - c*g, ric and nabla ric
have the entries of Ric - lambda*Id, Ric and [Ric, nabla_i] up to sign.
Ricci is contracted in the frame only and read back into other bases.

The Ricci tensor is computed along two independent routes: the primary
path contracts the connection matrices (no dim^4 curvature array), and
:func:`ricci_structural` evaluates the closed orthonormal-basis formula
term by term.  Neither calls the other; their agreement is the module's
central correctness check.  :func:`curvature` builds the full dim^4
tensor on request and is not on the Ricci path.

Every contraction of a dim^3 tensor is ``@`` on a broadcast or reshaped
view, so it runs as BLAS matrix products and never as einsum's C loop.
Working set: every dim^3 kernel runs by blocks of its first index of at most
``lie._BLOCK`` = 2^15 entries (one block up to dim 32, 14 rows at dim 48, 7
at dim 65) with at most two block temporaries.  Above dim 32 a row block of a
GEMM can round some entries unlike the whole product; the golden digests pin
the blocked form.  :func:`change_basis` allocates only its result (1.7 dim^3
arrays above its input on sl(7)), and :func:`connection` keeps the
ad-invariance residual of its pass over b + b^T, so :func:`is_ad_invariant`
forms no product.  The algebra and the frame's tensor and connection are the
only dim^3 arrays left: a report and the structural Ricci route peak at 2.8
dim^3 arrays above the algebra on sl(7) (2.9 in a random basis, 2.5 for H_32
in one).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .lie import LieAlgebra, _blocks, killing_form, trace_functional
from .linalg import (
    DEFAULT_TOL,
    MAX_ABS,
    SymmetricForm,
    Tolerance,
    as_matrix,
    operator_residual,
    pseudo_orthonormal_basis,
    size_exponent,
)

__all__ = [
    "MetricLieAlgebra",
    "RicciData",
    "ParallelCheck",
    "IsometryCheck",
    "frame",
    "connection",
    "connection_matrices",
    "curvature",
    "ricci",
    "ricci_structural",
    "nabla_ric",
    "is_ricci_parallel",
    "is_einstein",
    "is_ricci_flat",
    "is_ad_invariant",
    "verify_isometry",
    "change_basis",
]


class MetricLieAlgebra:
    """A validated Lie algebra paired with a nondegenerate metric.

    ``tol`` is the tolerance of every verdict on the object: the algebra's
    Jacobi check, the metric's nondegeneracy (a SymmetricForm judged under
    another tolerance is judged again), the predicates here, the
    classification and the constructions built from it take no other.
    Derived tensors (connection, curvature, Ricci) are memoised in a
    write-once per-object cache, so the object stays cheap to pass around
    and safe to share between readers.
    """

    def __init__(self, algebra: LieAlgebra, metric, tol: Tolerance = DEFAULT_TOL):
        algebra.validate(tol)
        if isinstance(metric, SymmetricForm) and metric.tol != tol:
            metric = metric.gram
        if not isinstance(metric, SymmetricForm):
            metric = SymmetricForm(metric, tol)
        if metric.dim != algebra.dim:
            raise DimensionMismatchError(f"metric dim {metric.dim} does not match algebra dim {algebra.dim}")
        self.algebra = algebra
        self.metric = metric
        self.tol = tol
        self._cache = {}

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def gram(self) -> np.ndarray:
        return self.metric.gram

    @property
    def exponents(self) -> tuple[int, int]:
        """(k_C, k_g): the power-of-two exponents of max|C| and max|g|."""
        return self.algebra.exponent, self.metric.exponent

    def residual_scale(self) -> float:
        """The degree-blind ``max(1, |g|, max|C|**2)``: no predicate reads it, the gates in ``perfbench/`` do."""
        return max(1.0, operator_residual(self.gram), self.algebra.max_structure_constant ** 2)

    def __repr__(self):
        return f"MetricLieAlgebra(dim={self.dim})"


def _memoised(fn):
    """``fn(m)``, computed once per metric algebra and kept in its cache."""

    @functools.wraps(fn)
    def cached(m: MetricLieAlgebra):
        if fn.__name__ not in m._cache:
            m._cache[fn.__name__] = fn(m)
        return m._cache[fn.__name__]

    return cached


@dataclass(frozen=True)
class RicciData:
    """Ricci tensor/operator pair with scalar curvature and mean curvature vector."""

    tensor: np.ndarray      # ric(e_i, e_j)
    operator: np.ndarray    # matrix of Ric, columns = images of basis vectors
    scalar: float
    mean_curvature: np.ndarray  # Z with <Z, x> = tr(ad x)


@dataclass(frozen=True)
class ParallelCheck:
    ok: bool
    residual: float  # max|nabla ric| in the frame


@dataclass(frozen=True)
class IsometryCheck:
    ok: bool
    invertible: bool
    bracket_residual: float
    metric_residual: float


def frame(m: MetricLieAlgebra) -> tuple[MetricLieAlgebra, np.ndarray]:
    """(F, P): ``m`` in its pseudo-orthonormal basis P, where g = diag(+-1) and k_g = 0.  F is its own frame.

    Computed once.  An algebra that is its own frame (P = Id) is marked with None: a reference to itself
    would make a cycle that only the garbage collector frees.  F keeps its rounded Gram P^T g P: setting it to
    the exact diag(signs) made a report 5% faster but broke nine corpus invariant bounds.  Its k_g is set to 0:
    the rounded max|g_F| can be 1 - ulp, of exponent -1, which would halve the thresholds of degree b = 1."""
    if "frame" not in m._cache:
        p = pseudo_orthonormal_basis(m.metric)[0]
        try:
            f = m if np.array_equal(p, np.eye(m.dim)) else change_basis(m, p)
        except ValidationError as exc:
            raise ValidationError(f"{exc}; the new basis is the metric's pseudo-orthonormal frame") from exc
        f.metric.exponent = 0
        m._cache["frame"], f._cache["frame"] = (f, p), None
    return m._cache["frame"] or (m, np.eye(m.dim))


@_memoised
def connection(m: MetricLieAlgebra) -> np.ndarray:
    """Connection coefficients N[i, j, :] = components of nabla_{e_i} e_j, row j of N_i being 1/2 (b[:, i, j] +
    b[:, j, i]) g^-T + 1/2 [e_i, e_j], b[k] = C[k] g: summed into the result by blocks of k, keeping max|b + b^T|, the
    ad-invariance residual, and multiplied out in place by blocks of i."""
    c, g, n = m.algebra.tensor, m.gram, m.dim
    out, res = np.empty(c.shape), 0.0
    for s in _blocks(n):
        b = (c[s].reshape(-1, n) @ g).reshape(-1, n, n)  # b[k, i, j] = <[e_k, e_i], e_j>
        sym = np.add(b, b.transpose(0, 2, 1), out=out[:, s].transpose(1, 0, 2))
        res = np.maximum(res, operator_residual(sym))  # NaN stays
        sym *= 0.5
        del b  # before the next block is formed
    inv_t = np.linalg.inv(g).T
    for s in _blocks(n):
        u = out[s].transpose(0, 2, 1) @ inv_t
        np.add(u, np.multiply(c[s], 0.5, out=out[s]), out=out[s])
        del u
    m._cache["ad_invariance"] = float(res)
    out.flags.writeable = False
    return out


def connection_matrices(m: MetricLieAlgebra) -> np.ndarray:
    """Stack of matrices of nabla_{e_i} acting on coefficient vectors (a read-only view)."""
    return connection(m).transpose(0, 2, 1)


def curvature(m: MetricLieAlgebra) -> np.ndarray:
    """Curvature tensor riem[i, j, k, l]: component of R(e_i, e_j) e_k along e_l; a dim^4 array, never cached."""
    c = m.algebra.tensor
    nm = connection_matrices(m)
    n = m.dim
    comp = nm[:, None] @ nm[None, :]
    rmat = comp - comp.transpose(1, 0, 2, 3) - (c.reshape(n * n, n) @ nm.reshape(n, n * n)).reshape((n,) * 4)
    riem = rmat.transpose(0, 1, 3, 2)
    riem.flags.writeable = False
    return riem


@_memoised
def ricci(m: MetricLieAlgebra) -> RicciData:
    """Ricci data, contracted in the frame and read back into any other basis as Q^T ric_F Q, Q = P^-1.

    ric_jk = sum_i (N_i N_j - N_j N_i - sum_m c_ijm N_m)_{ik}, the trace of
    curvature without the dim^4 array.  The terms of a block of i are batched
    products, summed over i in order with the running sum first: folding that
    sum into one product was 3% faster but flipped six boosted corpus verdicts.
    """
    f, p = frame(m)
    if f is m:
        c, n, nm = m.algebra.tensor, m.dim, connection_matrices(m)
        d = nm[np.arange(n), np.arange(n)]  # d[i] = row i of N_i
        swapped = nm.transpose(1, 0, 2)  # swapped[i, j] = row i of N_j
        ric = np.full((n, n), -0.0)  # x + -0.0 is x, for every x
        blocks = _blocks(n)
        buf = np.empty((blocks[0].stop if blocks else 0, n, n))  # for both batched products of every block
        for s in blocks:
            terms = (d[s] @ swapped.reshape(n, n * n)).reshape(-1, n, n)
            terms -= np.matmul(swapped[s], nm[s], out=buf[:len(terms)])
            terms -= np.matmul(c[s], swapped[s], out=buf[:len(terms)])
            terms[0] += ric  # the running sum goes first, so the sum over i keeps its order
            ric = terms.sum(axis=0)
            del terms
        ric = 0.5 * (ric + ric.T)
        operator, z = m.metric.solve(ric), m.metric.solve(trace_functional(m.algebra))
    else:
        data, q = ricci(f), np.linalg.inv(p)
        ric = q.T @ data.tensor @ q
        ric = 0.5 * (ric + ric.T)
        operator, z = p @ data.operator @ q, p @ data.mean_curvature
    for arr in (ric, operator, z):
        arr.flags.writeable = False
    return RicciData(tensor=ric, operator=operator, scalar=float(np.trace(operator)), mean_curvature=z)


@_memoised
def ricci_structural(m: MetricLieAlgebra) -> np.ndarray:
    """Ricci tensor from the closed formula over a pseudo-orthonormal basis.

    Evaluates, term by term:
    -1/2 K(x,y) - 1/2 (<[Z,x],y> + <[Z,y],x>)
    - 1/2 sum_a eps_a <[x, b_a], [y, b_a]>
    + 1/4 sum_{a,b} eps_a eps_b <[b_a, b_b], x> <[b_a, b_b], y>

    This is the independent oracle for :func:`ricci`.
    """
    c, g, n = m.algebra.tensor, m.gram, m.dim
    basis, signs = pseudo_orthonormal_basis(m.metric)
    neg = int(np.count_nonzero(signs < 0))  # the signs come negative first
    by_first = c.reshape(n, n * n)
    term3, term4 = np.zeros((n, n)), np.zeros((n, n))
    for start, size, eps in ((0, neg, -1.0), (neg, n - neg, 1.0)):  # blocks of b_a of one sign eps_a = eps
        for s in _blocks(size, n * n):
            s, rows = slice(start + s.start, start + s.stop), s.stop - s.start
            br = (basis[:, s].T @ by_first).reshape(rows, n, n).transpose(1, 0, 2).copy()  # [b_a, e_j] at [j, a]
            lowered = (br.reshape(n * rows, n) @ g).reshape(n, rows * n)
            br *= -0.5 * eps
            term3 += br.reshape(n, rows * n) @ lowered.T
            pulled = np.matmul(basis.T, lowered, out=br.reshape(n, rows * n)).reshape(n * rows, n)  # <[b_a, b_b], e_i>
            plus, minus = pulled[neg * rows:], pulled[:neg * rows]  # eps_a eps_b = eps for b >= neg, -eps below
            term4 += eps * (plus.T @ plus - minus.T @ minus)
            del br, lowered, pulled, plus, minus
    azg = m.algebra.ad(m.metric.solve(trace_functional(m.algebra))).T @ g  # <[Z, e_i], e_j>
    term_z = -0.5 * (azg + azg.T)

    out = -0.5 * killing_form(m.algebra) + term_z + term3 + 0.25 * term4
    out = 0.5 * (out + out.T)
    out.flags.writeable = False
    return out


def _nabla_ric_blocks(m: MetricLieAlgebra):
    """nabla ric by blocks of i, as :func:`nabla_ric` computes it; no block is kept once it is handed on."""
    conn, ric, n = connection(m), ricci(m).tensor, m.dim
    def block(s: slice) -> np.ndarray:
        lowered = (conn[s].reshape(-1, n) @ ric).reshape(-1, n, n)  # ric(nabla_i e_j, e_k)
        out = np.negative(lowered)
        out -= lowered.transpose(0, 2, 1)
        return out
    return map(block, _blocks(n))


def nabla_ric(m: MetricLieAlgebra) -> np.ndarray:
    """(nabla_{e_i} ric)(e_j, e_k) using the left-invariant simplification, computed on each call.

    -ric(nabla_i e_j, e_k) - ric(e_j, nabla_i e_k): ric is exactly symmetric,
    so the second term is the first with j and k swapped.
    """
    return np.concatenate([np.empty((0, m.dim, m.dim)), *_nabla_ric_blocks(m)])


def is_ricci_parallel(m: MetricLieAlgebra) -> ParallelCheck:
    """Whether nabla ric vanishes in the frame, where it holds the commutators [Ric, nabla_i] up to sign."""
    f = frame(m)[0]
    res = float(functools.reduce(np.maximum, map(operator_residual, _nabla_ric_blocks(f)), 0.0))  # NaN stays
    return ParallelCheck(ok=f.tol.passes(res, "nabla_ric", f.exponents), residual=res)


def is_einstein(m: MetricLieAlgebra):
    """Einstein constant and the frame residual |ric - c*g| (= |Ric - c*Id|); (None, residual) when not Einstein."""
    f = frame(m)[0]
    data = ricci(f)
    c = data.scalar / f.dim if f.dim else 0.0
    res = operator_residual(data.tensor - c * f.gram)
    if f.tol.passes(res, "ric", f.exponents):
        return c, res
    return None, res


def is_ricci_flat(m: MetricLieAlgebra):
    """Whether ric vanishes, with the frame residual |ric| (= |Ric|)."""
    f = frame(m)[0]
    res = operator_residual(ricci(f).tensor)
    return f.tol.passes(res, "ric", f.exponents), res


def is_ad_invariant(m: MetricLieAlgebra):
    """Max residual of <[x,y],z> + <y,[x,z]> over frame triples, read off the frame's connection."""
    f = frame(m)[0]
    connection(f)
    res = f._cache["ad_invariance"]
    return f.tol.passes(res, "ad_invariance", f.exponents), res


def verify_isometry(phi, m1: MetricLieAlgebra, m2: MetricLieAlgebra) -> IsometryCheck:
    """Check that phi is an isometry from m1 to m2, each residual against its larger side, under m1's tolerance."""
    tol = m1.tol
    if m1.dim != m2.dim:
        raise DimensionMismatchError("isometry requires equal dimensions")
    phi = as_matrix(phi, dim=m1.dim, name="phi")
    svals = np.linalg.svd(phi, compute_uv=False)
    invertible = bool(svals.size == 0 or svals[-1] > tol.rank * svals[0])

    c1, bracket_res, reach = m1.algebra.tensor, 0.0, 0.0
    for s, rhs in _pulled_back(m2.algebra.tensor, phi, np.empty(c1.shape)):  # [phi e_i, phi e_j]_2
        lhs = c1[s] @ phi.T  # phi [e_i, e_j]_1
        reach = max(reach, operator_residual(lhs), operator_residual(rhs))
        bracket_res = np.maximum(bracket_res, operator_residual(np.subtract(lhs, rhs, out=lhs)))  # NaN stays
        del lhs, rhs
    bracket_res, k_bracket = float(bracket_res), size_exponent(reach)

    pulled = phi.T @ m2.gram @ phi
    metric_res = operator_residual(m1.gram - pulled)
    k_metric = size_exponent(m1.gram, pulled)

    ok = (invertible and tol.passes(bracket_res, "bracket", (k_bracket, 0))
          and tol.passes(metric_res, "metric", (0, k_metric)))
    return IsometryCheck(ok=ok, invertible=invertible,
                         bracket_residual=bracket_res, metric_residual=metric_res)


def _pulled_back(c: np.ndarray, p: np.ndarray, out: np.ndarray):
    """(s, T[s]) by blocks of i, T[i, j, :] = sum_ab p[a, i] p[b, j] c[a, b, :] = [p e_i, p e_j] in the old basis.

    ``out`` takes p^T C in one product, free by block s once T[s] is handed on.  Split by rows, that product moved
    the last bits of some entries at each dim above 32 that is not a multiple of 4 (OpenBLAS 0.3.31, AVX-512)."""
    n = c.shape[0]
    half = np.matmul(p.T, c.reshape(n, n * n), out=out.reshape(n, n * n)).reshape(n, n, n)
    return ((s, p.T @ half[s]) for s in _blocks(n))


def change_basis(m: MetricLieAlgebra, p) -> MetricLieAlgebra:
    """Pull the whole structure back along basis matrix p (columns = new basis); a singular p is a ValidationError.

    The result is the one dim^3 array: each block of the pull-back is multiplied by p^-T into the rows it came from,
    then (X - X^T)/2 is formed in place by blocks of i, both differences of a block before either is written."""
    p = as_matrix(p, dim=m.dim, name="p")
    try:
        pinv = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        raise ValidationError("the new basis p is not invertible") from None
    n = m.dim
    new_c = np.empty(m.algebra.tensor.shape)
    for s, t in _pulled_back(m.algebra.tensor, p, new_c):
        np.matmul(t.reshape(-1, n), pinv.T, out=new_c[s].reshape(-1, n))
        del t  # before the next block is formed
    for s in _blocks(n):  # rows s from column s.start on, and the columns s below them
        upper, lower = new_c[s, s.start:], new_c[s.stop:, s]
        up = upper - new_c[s.start:, s].transpose(1, 0, 2)
        down = lower - new_c[s, s.stop:].transpose(1, 0, 2)
        np.multiply(up, 0.5, out=upper)
        np.multiply(down, 0.5, out=lower)
        del up, down
    algebra = LieAlgebra._adopting(new_c)
    new_g = p.T @ m.gram @ p
    for what, reach in (("brackets in the new basis reach", algebra.max_structure_constant),
                        ("the metric in the new basis reaches", operator_residual(new_g))):
        if not reach <= MAX_ABS:  # the degree analysis needs the bound; NaN fails
            raise ValidationError(f"{what} {reach:.3e}, beyond MAX_ABS = {MAX_ABS:g}")
    algebra._passed = set(m.algebra._passed)  # carried over, not checked again
    return MetricLieAlgebra(algebra, SymmetricForm(new_g, m.tol), m.tol)
