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

Contractions of three or more operands go through ``einsum(...,
optimize=True)``, which contracts pairwise in BLAS-backed steps.
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

    ``tol`` is the tolerance of every verdict on the object: the predicates
    here, the classification and the constructions built from it take no
    other.  Derived tensors (connection, curvature, Ricci) are memoised in a
    write-once per-object cache, so the object stays cheap to pass around
    and safe to share between readers.
    """

    def __init__(self, algebra: LieAlgebra, metric, tol: Tolerance = DEFAULT_TOL):
        if not algebra.is_validated:
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
    return np.einsum("i,j,ijk->k", x, y, connection(m) - 0.5 * m.algebra.tensor)


@_memoised
def connection(m: MetricLieAlgebra) -> np.ndarray:
    """Connection coefficients N[i, j, :] = components of nabla_{e_i} e_j."""
    c, g = m.algebra.tensor, m.gram
    b = np.einsum("ijm,mk->ijk", c, g)  # <[e_i, e_j], e_k>
    u_low = 0.5 * (b.transpose(1, 2, 0) + b.transpose(2, 1, 0))
    u = np.einsum("km,ijm->ijk", np.linalg.inv(g), u_low)
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
    comp = np.einsum("iab,jbc->ijac", nm, nm)
    rmat = comp - comp.transpose(1, 0, 2, 3) - np.einsum("ijm,mlk->ijlk", c, nm)
    riem = rmat.transpose(0, 1, 3, 2)
    riem.flags.writeable = False
    return riem


@_memoised
def ricci(m: MetricLieAlgebra) -> RicciData:
    """Ricci data straight from the connection matrices (basis-free primary path).

    ric_jk = sum_i (N_i N_j - N_j N_i - sum_m c_ijm N_m)_{ik}, the trace of
    curvature without the dim^4 array: every intermediate is dim^3.  The
    result is symmetrised.
    """
    c = m.algebra.tensor
    nm = connection_matrices(m)
    idx = np.arange(m.dim)
    d = nm[idx, idx]  # d[i] = row i of N_i
    terms = (np.einsum("ib,jbk->ijk", d, nm) - np.einsum("jib,ibk->ijk", nm, nm)
             - np.einsum("ijm,mik->ijk", c, nm))
    ric = np.einsum("ijk->jk", terms)
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

    # [e_i, b_a]
    br = np.einsum("ijk,ja->iak", c, basis)
    term3 = -0.5 * np.einsum("iak,kl,jal,a->ij", br, g, br, eps, optimize=True)

    # <[b_a, b_b], e_i>
    bb = np.einsum("ijk,ia,jb->abk", c, basis, basis, optimize=True)
    p = np.einsum("abk,ki->abi", bb, g)
    term4 = 0.25 * np.einsum("abi,abj,a,b->ij", p, p, eps, eps, optimize=True)

    out = term_k + term_z + term3 + term4
    out = 0.5 * (out + out.T)
    out.flags.writeable = False
    return out


@_memoised
def nabla_ric(m: MetricLieAlgebra) -> np.ndarray:
    """(nabla_{e_i} ric)(e_j, e_k) using the left-invariant simplification."""
    n = connection(m)
    ric = ricci(m).tensor
    out = -np.einsum("ijm,mk->ijk", n, ric) - np.einsum("ikm,jm->ijk", n, ric)
    out.flags.writeable = False
    return out


def is_ricci_parallel(m: MetricLieAlgebra) -> ParallelCheck:
    """Both characterisations of nabla ric = 0, each reported separately.

    (a) Ric commutes with every nabla_{e_i};
    (b) the nabla_ric array vanishes.
    """
    op = ricci(m).operator
    nm = connection_matrices(m)
    comm = np.einsum("ab,ibc->iac", op, nm) - np.einsum("iab,bc->iac", nm, op)
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
    b = np.einsum("ijm,mk->ijk", m.algebra.tensor, m.gram)
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
    lhs = np.einsum("ijm,lm->ijl", c1, phi)  # phi [e_i, e_j]_1
    rhs = np.einsum("abl,ai,bj->ijl", c2, phi, phi, optimize=True)  # [phi e_i, phi e_j]_2
    bracket_res = operator_residual(lhs - rhs)
    k_bracket = exponent(max(operator_residual(lhs), operator_residual(rhs)))

    pulled = phi.T @ m2.gram @ phi
    metric_res = operator_residual(m1.gram - pulled)
    k_metric = exponent(max(operator_residual(m1.gram), operator_residual(pulled)))

    ok = (invertible and tol.passes(bracket_res, "bracket", (k_bracket, 0))
          and tol.passes(metric_res, "metric", (0, k_metric)))
    return IsometryCheck(ok=ok, invertible=invertible,
                         bracket_residual=bracket_res, metric_residual=metric_res)


def change_basis(m: MetricLieAlgebra, p) -> MetricLieAlgebra:
    """Pull the whole structure back along basis matrix p (columns = new basis)."""
    p = as_matrix(p, dim=m.dim, name="p")
    pinv = np.linalg.inv(p)
    c = m.algebra.tensor
    new_c = np.einsum("abm,ai,bj,lm->ijl", c, p, p, pinv, optimize=True)
    new_c = 0.5 * (new_c - new_c.transpose(1, 0, 2))
    new_g = p.T @ m.gram @ p
    algebra = LieAlgebra.from_tensor(new_c)
    algebra._validated = m.algebra.is_validated
    return MetricLieAlgebra(algebra, SymmetricForm(new_g, m.tol), m.tol)
