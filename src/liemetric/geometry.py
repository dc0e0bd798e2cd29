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
view, so it runs as BLAS matrix products and never as einsum's C loop, and
no intermediate is larger than dim^3 (:func:`curvature` excepted).  Where
folding a sum into one product would move the last bits of a result, the
per-index terms come from batched products and that index is summed
afterwards, as ``ricci`` does over i.

Working set: no kernel holds more than two dim^3 temporaries at once, and
one works in place only where it keeps each floating-point operation of the
out-of-place form, so no bit moves.  ``nabla_ric`` is not kept.  A report and
the structural Ricci route on sl(7) peak at 4.3 dim^3 arrays above the
algebra (4.7 in a random basis): the cached frame tensor and connection, and
one kernel's two temporaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .lie import LieAlgebra, killing_form, trace_functional
from .linalg import (
    DEFAULT_TOL,
    MAX_ABS,
    SymmetricForm,
    Tolerance,
    as_matrix,
    exponent,
    operator_residual,
    pseudo_orthonormal_basis,
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
    Jacobi check, the predicates here, the classification and the
    constructions built from it take no other.  Derived tensors (connection,
    curvature, Ricci) are memoised in a write-once per-object cache, so the
    object stays cheap to pass around and safe to share between readers.
    """

    def __init__(self, algebra: LieAlgebra, metric, tol: Tolerance = DEFAULT_TOL):
        algebra.validate(tol)
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
    would make a cycle that only the garbage collector frees."""
    if "frame" not in m._cache:
        p = pseudo_orthonormal_basis(m.metric)[0]
        try:
            f = m if np.array_equal(p, np.eye(m.dim)) else change_basis(m, p)
        except ValidationError as exc:
            raise ValidationError(f"{exc}; the new basis is the metric's pseudo-orthonormal frame") from exc
        m._cache["frame"], f._cache["frame"] = (f, p), None
    return m._cache["frame"] or (m, np.eye(m.dim))


@_memoised
def connection(m: MetricLieAlgebra) -> np.ndarray:
    """Connection coefficients N[i, j, :] = components of nabla_{e_i} e_j."""
    c, g = m.algebra.tensor, m.gram
    b = c @ g  # <[e_i, e_j], e_k>
    u_low = b.transpose(1, 2, 0) + b.transpose(2, 1, 0)
    u_low *= 0.5
    n = u_low @ np.linalg.inv(g).T
    n += np.multiply(0.5, c, out=u_low.ravel(order="K").reshape(c.shape))  # u_low's buffer, in memory order
    n.flags.writeable = False
    return n


def connection_matrices(m: MetricLieAlgebra) -> np.ndarray:
    """Stack of matrices of nabla_{e_i} acting on coefficient vectors (a read-only view)."""
    return connection(m).transpose(0, 2, 1)


@_memoised
def curvature(m: MetricLieAlgebra) -> np.ndarray:
    """Curvature tensor riem[i, j, k, l]: component of R(e_i, e_j) e_k along e_l."""
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
    curvature without the dim^4 array: every intermediate is dim^3.  The
    terms of each i are batched products, summed over i afterwards: folding
    that sum into the products would move the last bits of the result.
    """
    f, p = frame(m)
    if f is m:
        c = m.algebra.tensor
        n = m.dim
        nm = connection_matrices(m)
        idx = np.arange(n)
        d = nm[idx, idx]  # d[i] = row i of N_i
        swapped = nm.transpose(1, 0, 2)  # swapped[i, j] = row i of N_j
        terms = (d @ swapped.reshape(n, n * n)).reshape(n, n, n)
        terms -= swapped @ nm
        terms -= c @ swapped
        ric = terms.sum(axis=0)
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
    c, g = m.algebra.tensor, m.gram
    basis, signs = pseudo_orthonormal_basis(m.metric)
    eps = signs.astype(float)

    term_k = -0.5 * killing_form(m.algebra)

    z = m.metric.solve(trace_functional(m.algebra))
    az = m.algebra.ad(z)
    azg = az.T @ g
    term_z = -0.5 * (azg + azg.T)

    n = m.dim
    br = basis.T @ c  # [e_i, b_a]
    lowered = (br @ g).reshape(n, n * n)
    br *= -0.5 * eps[:, None]  # -1/2 eps_a is exact, so this is (br * eps) * -1/2
    term3 = br.reshape(n, n * n) @ lowered.T
    del br, lowered

    # <[b_a, b_b], e_i>
    p = (_pull_back(c, basis) @ g).reshape(n * n, n)
    term4 = 0.25 * (p.T * np.outer(eps, eps).ravel()) @ p

    out = term_k + term_z + term3 + term4
    out = 0.5 * (out + out.T)
    out.flags.writeable = False
    return out


def nabla_ric(m: MetricLieAlgebra) -> np.ndarray:
    """(nabla_{e_i} ric)(e_j, e_k) using the left-invariant simplification, computed on each call.

    -ric(nabla_i e_j, e_k) - ric(e_j, nabla_i e_k): ric is exactly symmetric,
    so the second term is the first with j and k swapped.
    """
    lowered = connection(m) @ ricci(m).tensor  # ric(nabla_i e_j, e_k)
    out = np.negative(lowered)
    out -= lowered.transpose(0, 2, 1)
    return out


def is_ricci_parallel(m: MetricLieAlgebra) -> ParallelCheck:
    """Whether nabla ric vanishes in the frame, where it holds the commutators [Ric, nabla_i] up to sign."""
    f = frame(m)[0]
    res = operator_residual(nabla_ric(f))
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
    """Max residual of <[x,y],z> + <y,[x,z]> over frame triples."""
    f = frame(m)[0]
    b = f.algebra.tensor @ f.gram
    res = operator_residual(b + b.transpose(0, 2, 1))  # b += its transpose would buffer a copy: no saving
    return f.tol.passes(res, "ad_invariance", f.exponents), res


def verify_isometry(phi, m1: MetricLieAlgebra, m2: MetricLieAlgebra) -> IsometryCheck:
    """Check that phi is an isometry from m1 to m2, each residual against its larger side, under m1's tolerance."""
    tol = m1.tol
    if m1.dim != m2.dim:
        raise DimensionMismatchError("isometry requires equal dimensions")
    phi = as_matrix(phi, dim=m1.dim, name="phi")
    svals = np.linalg.svd(phi, compute_uv=False)
    invertible = bool(svals.size == 0 or svals[-1] > tol.rank * svals[0])

    c1, c2 = m1.algebra.tensor, m2.algebra.tensor
    lhs = c1 @ phi.T  # phi [e_i, e_j]_1
    rhs = _pull_back(c2, phi)  # [phi e_i, phi e_j]_2
    bracket_res = operator_residual(lhs - rhs)
    k_bracket = exponent(max(operator_residual(lhs), operator_residual(rhs)))

    pulled = phi.T @ m2.gram @ phi
    metric_res = operator_residual(m1.gram - pulled)
    k_metric = exponent(max(operator_residual(m1.gram), operator_residual(pulled)))

    ok = (invertible and tol.passes(bracket_res, "bracket", (k_bracket, 0))
          and tol.passes(metric_res, "metric", (0, k_metric)))
    return IsometryCheck(ok=ok, invertible=invertible,
                         bracket_residual=bracket_res, metric_residual=metric_res)


def _pull_back(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """T[i, j, :] = sum_ab p[a, i] p[b, j] c[a, b, :], the brackets [p e_i, p e_j] in the old coordinates."""
    n = c.shape[0]
    return p.T @ (p.T @ c.reshape(n, n * n)).reshape(n, n, n)


def change_basis(m: MetricLieAlgebra, p) -> MetricLieAlgebra:
    """Pull the whole structure back along basis matrix p (columns = new basis); a singular p is a ValidationError."""
    p = as_matrix(p, dim=m.dim, name="p")
    try:
        pinv = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        raise ValidationError("the new basis p is not invertible") from None
    new_c = (_pull_back(m.algebra.tensor, p).reshape(m.dim ** 2, m.dim) @ pinv.T).reshape(m.algebra.tensor.shape)
    algebra = LieAlgebra._adopting(np.multiply(new_c - new_c.transpose(1, 0, 2), 0.5, out=new_c))
    new_g = p.T @ m.gram @ p
    for what, reach in (("brackets in the new basis reach", algebra.max_structure_constant),
                        ("the metric in the new basis reaches", operator_residual(new_g))):
        if not reach <= MAX_ABS:  # the degree analysis needs the bound; NaN fails
            raise ValidationError(f"{what} {reach:.3e}, beyond MAX_ABS = {MAX_ABS:g}")
    algebra._passed = set(m.algebra._passed)  # carried over, not checked again
    return MetricLieAlgebra(algebra, SymmetricForm(new_g, m.tol), m.tol)
