"""Pseudo-Riemannian geometry of a metric Lie algebra.

All tensors are taken at the identity in a fixed basis: the Levi-Civita
connection has constant coefficients, so curvature and Ricci reduce to
finite contractions of the structure tensor against the Gram matrix.

The Ricci tensor is computed along two independent routes: the primary
path contracts the connection matrices directly (no basis change, and no
dim^4 curvature array), and :func:`ricci_structural` evaluates the closed
orthonormal-basis formula term by term.  Neither calls the other; their
agreement is the module's central correctness check.  :func:`curvature`
builds the full dim^4 tensor on request and is not on the Ricci path.

Every contraction of a dim^3 tensor is ``@`` on a broadcast or reshaped
view, so it runs as BLAS matrix products and never as einsum's C loop, and
no intermediate is larger than dim^3 (:func:`curvature` excepted).  Where
folding a sum into one product would move the last bits of a result, the
per-index terms come from batched products and that index is summed
afterwards, as ``ricci`` does over i.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .lie import LieAlgebra, killing_form, trace_functional
from .linalg import (
    DEFAULT_TOL,
    SymmetricForm,
    Tolerance,
    as_matrix,
    as_vector,
    exponent,
    operator_residual,
    pseudo_orthonormal_basis,
)

__all__ = [
    "MetricLieAlgebra",
    "RicciData",
    "ParallelCheck",
    "IsometryCheck",
    "u_map",
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
            raise DimensionMismatchError(
                f"metric dim {metric.dim} does not match algebra dim {algebra.dim}"
            )
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
    commutator_residual: float
    nabla_residual: float


@dataclass(frozen=True)
class IsometryCheck:
    ok: bool
    invertible: bool
    bracket_residual: float
    metric_residual: float


def u_map(m: MetricLieAlgebra, x, y) -> np.ndarray:
    """Symmetric Koszul correction U(x, y) = nabla_x y - 1/2 [x, y], read from the memoised connection.

    It is defined through the metric pairing: <U(x, y), z> = 1/2 (<[z, x], y> + <x, [z, y]>).
    """
    x = as_vector(x, m.dim, name="x")
    y = as_vector(y, m.dim, name="y")
    u = connection(m) - 0.5 * m.algebra.tensor
    n = m.dim
    return y @ (x @ u.reshape(n, n * n)).reshape(n, n)


@_memoised
def connection(m: MetricLieAlgebra) -> np.ndarray:
    """Connection coefficients N[i, j, :] = components of nabla_{e_i} e_j."""
    c, g = m.algebra.tensor, m.gram
    b = c @ g  # <[e_i, e_j], e_k>
    u_low = 0.5 * (b.transpose(1, 2, 0) + b.transpose(2, 1, 0))
    u = u_low @ np.linalg.inv(g).T
    n = 0.5 * c + u
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
    """Ricci data straight from the connection matrices (basis-free primary path).

    ric_jk = sum_i (N_i N_j - N_j N_i - sum_m c_ijm N_m)_{ik}, the trace of
    curvature without the dim^4 array: every intermediate is dim^3.  The
    terms of each i are batched products, summed over i afterwards: folding
    that sum into the products would move the last bits of the result.  The
    result is symmetrised.
    """
    c = m.algebra.tensor
    n = m.dim
    nm = connection_matrices(m)
    idx = np.arange(n)
    d = nm[idx, idx]  # d[i] = row i of N_i
    swapped = nm.transpose(1, 0, 2)  # swapped[i, j] = row i of N_j
    terms = (d @ swapped.reshape(n, n * n)).reshape(n, n, n) - swapped @ nm - c @ swapped
    ric = terms.sum(axis=0)
    ric = 0.5 * (ric + ric.T)
    operator = m.metric.solve(ric)
    tau = trace_functional(m.algebra)
    z = m.metric.solve(tau)
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
    # [e_i, b_a]
    br = basis.T @ c
    term3 = -0.5 * (br * eps[:, None]).reshape(n, n * n) @ (br @ g).reshape(n, n * n).T

    # <[b_a, b_b], e_i>
    p = (_pull_back(c, basis) @ g).reshape(n * n, n)
    term4 = 0.25 * (p.T * np.outer(eps, eps).ravel()) @ p

    out = term_k + term_z + term3 + term4
    out = 0.5 * (out + out.T)
    out.flags.writeable = False
    return out


@_memoised
def nabla_ric(m: MetricLieAlgebra) -> np.ndarray:
    """(nabla_{e_i} ric)(e_j, e_k) using the left-invariant simplification.

    -ric(nabla_i e_j, e_k) - ric(e_j, nabla_i e_k): ric is exactly symmetric,
    so the second term is the first with j and k swapped.
    """
    lowered = connection(m) @ ricci(m).tensor  # ric(nabla_i e_j, e_k)
    out = -lowered - lowered.transpose(0, 2, 1)
    out.flags.writeable = False
    return out


def is_ricci_parallel(m: MetricLieAlgebra) -> ParallelCheck:
    """Both characterisations of nabla ric = 0, each reported separately; ``ok`` needs both.

    (a) Ric commutes with every nabla_{e_i};
    (b) the nabla_ric array vanishes.
    """
    op = ricci(m).operator
    nm = connection_matrices(m)
    comm = op @ nm - nm @ op
    comm_res = operator_residual(comm)
    nab_res = operator_residual(nabla_ric(m))
    ok = m.tol.passes(comm_res, "ric_commutator", m.exponents) and m.tol.passes(nab_res, "nabla_ric", m.exponents)
    return ParallelCheck(ok=ok, commutator_residual=comm_res, nabla_residual=nab_res)


def is_einstein(m: MetricLieAlgebra):
    """Einstein constant and residual; (None, residual) when not Einstein."""
    data = ricci(m)
    c = data.scalar / m.dim if m.dim else 0.0
    res = operator_residual(data.tensor - c * m.gram)
    if m.tol.passes(res, "ric", m.exponents):
        return c, res
    return None, res


def is_ricci_flat(m: MetricLieAlgebra):
    res = operator_residual(ricci(m).tensor)
    return m.tol.passes(res, "ric", m.exponents), res


def is_ad_invariant(m: MetricLieAlgebra):
    """Max residual of <[x,y],z> + <y,[x,z]> over basis triples."""
    b = m.algebra.tensor @ m.gram
    res = operator_residual(b + b.transpose(0, 2, 1))
    return m.tol.passes(res, "ad_invariance", m.exponents), res


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
    """Pull the whole structure back along basis matrix p (columns = new basis)."""
    p = as_matrix(p, dim=m.dim, name="p")
    pinv = np.linalg.inv(p)
    new_c = _pull_back(m.algebra.tensor, p) @ pinv.T
    new_c = 0.5 * (new_c - new_c.transpose(1, 0, 2))
    new_g = p.T @ m.gram @ p
    algebra = LieAlgebra.from_tensor(new_c)
    algebra._passed = set(m.algebra._passed)  # carried over, not checked again
    return MetricLieAlgebra(algebra, SymmetricForm(new_g, m.tol), m.tol)
