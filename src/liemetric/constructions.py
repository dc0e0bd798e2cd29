"""Builders for metrics with prescribed Ricci behaviour.

Covers double extensions (with their Delta/Gamma invariants and the five
parallelism conditions), complexification of a base metric, the split
central-extension and cotangent families, the commuting-derivations
two-step family, and a small catalog of named algebras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParamsError,
    CocycleError,
    CyclicityError,
    InvalidSpecError,
    JacobiError,
    NonCommutingError,
    NotEinsteinError,
    UnknownNameError,
    ZeroMuError,
    _shown,
)
from .geometry import (MetricLieAlgebra, ParallelCheck, connection_matrices, is_einstein, is_ricci_flat,
                       is_ricci_parallel, ricci)
from .lie import LieAlgebra, _check_dim, _is_integer, trace_functional
from .linalg import (
    DEFAULT_TOL,
    MAX_ABS,
    Tolerance,
    _is_real,
    as_matrix,
    as_real_array,
    as_vector,
    exponent,
    metric_adjoint,
    operator_residual,
)

__all__ = [
    "DoubleExtensionSpec",
    "ExtensionInvariants",
    "ParallelConditionReport",
    "double_extension",
    "extension_invariants",
    "check_parallel_conditions",
    "complexify",
    "type_I_metric",
    "central_extension_metric",
    "bordemann_cotangent",
    "two_step_parallel",
    "catalog",
    "CATALOG_NAMES",
]


@dataclass
class DoubleExtensionSpec:
    """Data (base, D, K, L) for adjoining a hyperbolic plane to a metric algebra.

    Constraints (checked by :meth:`validate`):
      * K skew-adjoint for the base metric,
      * D a derivation of the base bracket,
      * <L, [e, e']_0>_0 = <(K D + D* K) e, e'>_0 on basis pairs.
    """

    base: MetricLieAlgebra
    D: np.ndarray
    K: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        n = self.base.dim
        self.D = as_matrix(self.D, dim=n, name="D")
        self.K = as_matrix(self.K, dim=n, name="K")
        self.L = as_vector(self.L, n, name="L")

    def validate(self) -> dict:
        """Residuals of the defining constraints.

        Besides K-skewness, the derivation property and the L
        compatibility, Jacobi on base triples needs the pairing
        <K e, e'>_0 to be a 2-cocycle of the base bracket; the condition
        is vacuous for abelian bases but binding otherwise.
        """
        g0 = self.base.gram
        c0 = self.base.algebra.tensor
        d, k = self.D, self.K

        skew = operator_residual(metric_adjoint(k, self.base.metric) + k)

        n = c0.shape[0]
        t_apply = c0 @ d.T                                         # D [e_a, e_b]
        t_left = (d.T @ c0.reshape(n, n * n)).reshape(n, n, n)     # [D e_a, e_b]
        t_right = d.T @ c0                                         # [e_a, D e_b]
        derivation = operator_residual(t_apply - t_left - t_right)

        dstar = metric_adjoint(d, self.base.metric)
        lhs = c0 @ (g0 @ self.L)
        comp = k @ d + dstar @ k
        rhs = comp.T @ g0
        compatibility = operator_residual(lhs - rhs)

        pair = (c0 @ (g0 @ k)).transpose(2, 0, 1)                  # <K e_a, [e_b, e_c]_0>_0
        cocycle = operator_residual(pair + pair.transpose(1, 2, 0) + pair.transpose(2, 0, 1))

        return {"skew": skew, "derivation": derivation,
                "compatibility": compatibility, "cocycle": cocycle}

    @property
    def exponents(self) -> tuple[int, int]:
        """(k_C, k_g) of the extension: its brackets hold C0, D, g0 L and K^T g0, its metric 1 and g0.

        The degrees of the residuals in ``linalg.DEGREES`` are those of a homothety of
        the extension that keeps <u, v> = 1: (C0, g0, D, K, L) -> (s C0, t g0, s D/t, s K/t, s L/t^2).
        """
        g0 = self.base.gram
        brackets = max(self.base.algebra.max_structure_constant, operator_residual(self.D),
                       operator_residual(g0 @ self.L), operator_residual(self.K.T @ g0))
        return exponent(brackets), exponent(max(1.0, operator_residual(g0)))


def double_extension(spec: DoubleExtensionSpec) -> MetricLieAlgebra:
    """Build the (n+2)-dimensional metric algebra on basis (u, v, e_1..e_n).

    Brackets: [u, e] = D e + <L, e>_0 v, [e, e'] = [e, e']_0 + <K e, e'>_0 v,
    v central.  Metric: hyperbolic pairing <u, v> = 1 on top of the base
    metric, so the signature gains (1, 1).  The data and the result are
    judged by the tolerance of the base.  An n + 2 above ``MAX_DIM`` raises
    BadParamsError.
    """
    _check_dim("double_extension", spec.base.dim + 2)
    tol, exps = spec.base.tol, spec.exponents
    for name, res in spec.validate().items():
        if not tol.passes(res, name, exps):
            raise InvalidSpecError(
                f"double-extension data violates the {name} condition (residual {res:.3e})",
                condition=name, residual=res,
            )

    base = spec.base
    dim = base.dim + 2
    g0 = base.gram

    t = np.zeros((dim, dim, dim))
    t[0, 2:, 2:] = spec.D.T          # [u, e_a] = D e_a + <L, e_a>_0 v
    t[0, 2:, 1] = g0 @ spec.L
    t[2:, 2:, 2:] = base.algebra.tensor
    t[2:, 2:, 1] = spec.K.T @ g0     # <K e_a, e_b>_0 v

    gram = np.zeros((dim, dim))
    gram[0, 1] = gram[1, 0] = 1.0
    gram[2:, 2:] = g0
    return _metric_algebra(t, gram, tol)


@dataclass(frozen=True)
class ExtensionInvariants:
    """The vector Delta and scalar Gamma controlling Ric(u) = Delta + Gamma v."""

    delta: np.ndarray
    gamma: float
    mean_curvature: np.ndarray  # Z_0 of the base


def extension_invariants(spec: DoubleExtensionSpec) -> ExtensionInvariants:
    """Delta and Gamma of the extension, with Ric(u) = Delta + Gamma v.

    <Delta, e_i>_0 is the sum of three trace terms, -1/2 tr((D + D*) ad_0 e_i),
    1/2 <(D - K) Z_0, e_i>_0 and -1/4 tr(K S_i), where Z_0 is the base mean
    curvature vector and S_i has columns (ad_0 e_j)* e_i;
    Gamma = -1/2 tr(D^2) - 1/2 tr(D* D) - 1/4 tr(K^2) + <L, Z_0>_0.
    """
    base = spec.base
    g0 = base.gram
    d, k, lvec = spec.D, spec.K, spec.L
    dstar = metric_adjoint(d, base.metric)
    ads = base.algebra.ad_basis
    adstars = np.linalg.solve(g0, ads.transpose(0, 2, 1) @ g0)  # (ad_0 e_j)* = G0^-1 (ad_0 e_j)^T G0
    z0 = base.metric.solve(trace_functional(base.algebra))

    s0 = adstars.transpose(2, 1, 0)  # s0[i] has columns (ad_0 e_j)* e_i
    rhs = (-0.5 * np.trace((d + dstar) @ ads, axis1=1, axis2=2)
           + 0.5 * (g0 @ ((d - k) @ z0))
           - 0.25 * np.trace(k @ s0, axis1=1, axis2=2))
    delta = base.metric.solve(rhs)

    gamma = (
        -0.5 * float(np.trace(d @ d))
        - 0.5 * float(np.trace(dstar @ d))
        - 0.25 * float(np.trace(k @ k))
        + float(lvec @ g0 @ z0)
    )
    return ExtensionInvariants(delta=delta, gamma=gamma, mean_curvature=z0)


@dataclass(frozen=True)
class ParallelConditionReport:
    """Residuals of the five closed-form conditions, the base parallel check and the invariants they used."""

    conditions: dict
    base_parallel: ParallelCheck
    ok: bool
    invariants: ExtensionInvariants


def check_parallel_conditions(spec: DoubleExtensionSpec) -> ParallelConditionReport:
    """Evaluate the five conditions equivalent to the extension being Ricci-parallel.

    They are judged by the tolerance of the base.  The verdict must agree
    with a direct parallelism check on the built algebra; the test suite
    enforces that equivalence, it is never assumed.
    """
    base = spec.base
    g0 = base.gram
    d, k, lvec = spec.D, spec.K, spec.L
    dstar = metric_adjoint(d, base.metric)
    ric0 = ricci(base).operator
    nm0 = connection_matrices(base)
    inv = extension_invariants(spec)
    delta = inv.delta

    a_op = d - dstar - k
    b_plus = d + dstar + k
    b_minus = d + dstar - k

    conditions = {
        "C1": abs(float(lvec @ g0 @ delta)),
        "C2": operator_residual(ric0 @ lvec + 0.5 * a_op @ delta),
        "C3": operator_residual(ric0 @ a_op - a_op @ ric0),
        "C4": operator_residual(b_minus @ delta),
        "C5": operator_residual(nm0 @ delta + 0.5 * (ric0 @ b_plus).T),
    }
    base_parallel = is_ricci_parallel(base)
    exps = spec.exponents
    ok = base_parallel.ok and all(base.tol.passes(res, name, exps) for name, res in conditions.items())
    return ParallelConditionReport(conditions=conditions, base_parallel=base_parallel, ok=ok, invariants=inv)


def complexify(base: MetricLieAlgebra):
    """Double the algebra to g + ig with split metric G0 (+) (-G0).

    Returns the doubled metric algebra and the block complex structure J
    sending x + iy to -y + ix.  Doubling preserves Ricci-parallelism and
    doubles an Einstein constant.  A 2n above ``MAX_DIM`` raises BadParamsError.
    """
    n = base.dim
    dim = 2 * n
    _check_dim("complexify", dim)
    c0 = base.algebra.tensor
    t = np.zeros((dim, dim, dim))
    t[:n, :n, :n] = c0
    t[n:, n:, :n] = -c0  # [i e_a, i e_b] = -[e_a, e_b]
    t[:n, n:, n:] = c0   # [e_a, i e_b] = i [e_a, e_b]

    gram = np.zeros((dim, dim))
    gram[:n, :n] = base.gram
    gram[n:, n:] = -base.gram

    j = np.zeros((dim, dim))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)

    return _metric_algebra(t, gram, base.tol), j


def type_I_metric(base: MetricLieAlgebra, lam: float, mu: float) -> MetricLieAlgebra:
    """Mixed metric on the doubled algebra whose Ricci operator is lam*Id + mu*J.

    Requires an Einstein base with nonzero constant and mu != 0; judged by
    the tolerance of the base.  A 2n above ``MAX_DIM`` raises
    BadParamsError before any work on the base.
    """
    _check_dim("complexify", 2 * base.dim)
    tol = base.tol
    lam, mu = as_vector([lam, mu], 2, name="(lam, mu)")
    c, res = is_einstein(base)
    if c is None:
        raise NotEinsteinError(f"base is not Einstein (residual {res:.3e})")
    if is_ricci_flat(base)[0]:
        raise NotEinsteinError("base Einstein constant must be nonzero")
    if tol.passes(abs(mu), "bracket", (exponent(max(abs(lam), abs(mu))), 0)):
        raise ZeroMuError("mu must be nonzero relative to lam for a complex-pair minimal polynomial")

    doubled, j = complexify(base)
    gp = doubled.gram
    gram = (2.0 * c / (lam ** 2 + mu ** 2)) * (lam * gp - mu * (gp @ j))
    gram = 0.5 * (gram + gram.T)
    return MetricLieAlgebra(doubled.algebra, gram, tol)


def _cochain(value, shape: tuple, name: str, tol: Tolerance) -> np.ndarray:
    """Cochain ``name`` of ``shape``, zeros when ``value`` is None, antisymmetric in its first two indices.

    A wrong shape raises BadParamsError, antisymmetry failing at the cochain's own k_C CocycleError."""
    if value is None:
        return np.zeros(shape)
    arr = as_real_array(value, name)
    if arr.shape != shape:
        raise BadParamsError(f"{name} must have shape {shape}, got {arr.shape}")
    res = operator_residual(arr + arr.transpose(1, 0, 2))
    if not tol.passes(res, "bracket", (_block_exponent(arr), 0)):
        raise CocycleError(f"{name} must be antisymmetric in its two arguments (residual {res:.3e})")
    return arr


def _split_pairing(n: int, signs=()) -> np.ndarray:
    """The Gram matrix of D + g0 + D* (dim D = n): D paired with D* by the identity, g0 carrying diag(signs)."""
    m = len(signs)
    gram = np.zeros((2 * n + m, 2 * n + m))
    gram[:n, n + m:] = gram[n + m:, :n] = np.eye(n)
    gram[n:n + m, n:n + m] = np.diag(signs)
    return gram


def _block_exponent(*blocks) -> int:
    """k_C of a bracket tensor assembled from these blocks."""
    return exponent(max(operator_residual(b) for b in blocks))


def _metric_algebra(upper: np.ndarray, gram: np.ndarray, tol: Tolerance, basis_names=None) -> MetricLieAlgebra:
    """Validated metric algebra from the strict upper triangle of a bracket tensor and a Gram matrix."""
    return MetricLieAlgebra(LieAlgebra._from_upper(upper, basis_names), gram, tol)


def _cochain_metric_algebra(upper: np.ndarray, gram: np.ndarray, tol: Tolerance) -> MetricLieAlgebra:
    """:func:`_metric_algebra` for a family assembled from cochains on a Lie base.

    Jacobi of the assembled bracket is the one check of their cocycle
    conditions, so its failure is the cochains' and is raised as CocycleError.
    """
    try:
        return _metric_algebra(upper, gram, tol)
    except JacobiError as exc:
        msg = f"the cochains break Jacobi on the assembled bracket (residual {exc.residual:.3e})"
        raise CocycleError(msg) from exc


def _dual_extension(name: str, d_algebra: LieAlgebra, theta, tol: Tolerance):
    """What the extensions D + D* share: checked size and theta, the [C | theta] brackets, the split pairing.

    Returns ``(theta, t, gram)`` where ``t[:n, :n]`` holds [x_a, x_b] = C[a, b] + theta[a, b]
    and the rest of ``t`` is zero.  A 2n above ``MAX_DIM`` raises BadParamsError, a base that is
    not a Lie algebra JacobiError.
    """
    n = d_algebra.dim
    _check_dim(name, 2 * n)
    d_algebra.validate(tol)
    theta = _cochain(theta, (n, n, n), "theta", tol)

    t = np.zeros((2 * n, 2 * n, 2 * n))
    t[:n, :n, :n] = d_algebra.tensor
    t[:n, :n, n:] = theta
    return theta, t, _split_pairing(n)


def central_extension_metric(d_algebra: LieAlgebra, theta=None,
                             tol: Tolerance = DEFAULT_TOL) -> MetricLieAlgebra:
    """Central extension g = D + D* with the split pairing metric.

    theta[a, b, :] holds the dual-space coordinates of theta(e_a, e_b) and
    must be a cocycle for the trivial action: a theta that is not breaks
    Jacobi on the assembled bracket, which raises CocycleError.  The output
    metric has signature (n, n), is always Ricci-parallel, and its Ricci
    tensor is -1/2 times the Killing form.
    """
    _, t, gram = _dual_extension("central_extension_metric", d_algebra, theta, tol)
    return _cochain_metric_algebra(t, gram, tol)


def bordemann_cotangent(d_algebra: LieAlgebra, theta=None,
                        tol: Tolerance = DEFAULT_TOL) -> MetricLieAlgebra:
    """Cotangent extension D + D* with the coadjoint action and split metric.

    theta must satisfy the cyclic symmetry theta(x, y)(z) + theta(x, z)(y) = 0
    (else CyclicityError) and be a cocycle for the coadjoint action: a theta
    that is not breaks Jacobi on the assembled bracket, which raises
    CocycleError.  The resulting metric is ad-invariant, hence
    Ricci-parallel with connection half the bracket.
    """
    theta, t, gram = _dual_extension("bordemann_cotangent", d_algebra, theta, tol)
    cyc_res = operator_residual(theta + theta.transpose(0, 2, 1))
    if not tol.passes(cyc_res, "bracket", (_block_exponent(theta), 0)):
        raise CyclicityError(f"theta(x,y)(z) + theta(x,z)(y) != 0 (residual {cyc_res:.3e})")

    n = d_algebra.dim
    coad = -d_algebra.tensor  # coad[a] acts on dual coordinates: (x_a . f)_c = -sum_m C[a,c,m] f_m
    t[:n, n:, n:] = coad.transpose(0, 2, 1)  # [x_a, f^b] = x_a . f^b, (x_a . f^b)_c = -C[a, c, b]
    return _cochain_metric_algebra(t, gram, tol)


def two_step_parallel(g0_dim: int, g0_signature, derivations, alpha=None, theta=None,
                      tol: Tolerance = DEFAULT_TOL) -> MetricLieAlgebra:
    """Commuting-derivations extension D + g0 + D* with the pairing metric.

    Basis order is (derivation directions, base directions, dual
    directions); the metric pairs D with D* hyperbolically and restricts
    to the diagonal form of the requested signature on the base.  The sizes
    must be integers >= 0 and the dimension 2 * len(derivations) + g0_dim at
    most ``MAX_DIM`` (else BadParamsError); the derivations must commute
    (else NonCommutingError); alpha and theta must satisfy their cocycle
    conditions: a pair that does not breaks Jacobi on the assembled bracket,
    which raises CocycleError.  The output is Ricci-parallel for every
    admissible input.
    """
    nd = len(derivations)
    sizes = (g0_dim, *g0_signature)
    if len(sizes) != 3:
        raise BadParamsError(f"g0_signature must be a pair (p, q), got {_shown(g0_signature)}")
    g0_dim, p, q = (_param_value("two_step_parallel", key, val, "int", 0)
                    for key, val in zip(("g0_dim", "p", "q"), sizes))
    if p + q != g0_dim:
        raise BadParamsError(f"signature ({_shown(p)}, {_shown(q)}) does not sum to g0_dim {_shown(g0_dim)}")
    _check_dim("two_step_parallel", 2 * nd + g0_dim)
    ders = np.array([as_matrix(dmat, dim=g0_dim, name="derivation") for dmat in derivations])
    ders = ders.reshape(nd, g0_dim, g0_dim)

    k_ders = _block_exponent(ders)
    for i in range(nd):
        for j in range(i + 1, nd):
            res = operator_residual(ders[i] @ ders[j] - ders[j] @ ders[i])
            if not tol.passes(res, "jacobi", (k_ders, 0)):
                raise NonCommutingError(f"derivations {i} and {j} do not commute (residual {res:.3e})")

    nm = nd + g0_dim
    alpha = _cochain(alpha, (nd, nd, g0_dim), "alpha", tol)
    theta = _cochain(theta, (nm, nm, nd), "theta", tol)

    dim = nd + g0_dim + nd
    t = np.zeros((dim, dim, dim))  # the bracket [.,.]' on D + g0 lands in g0, theta in D*
    t[:nd, :nd, nd:nm] = alpha
    t[:nd, nd:nm, nd:nm] = ders.transpose(0, 2, 1)  # [d_a, e] = d_a e
    t[:nm, :nm, nm:] = theta
    return _cochain_metric_algebra(t, _split_pairing(nd, [-1.0] * p + [1.0] * q), tol)


# ---------------------------------------------------------------------------
# named catalog
# ---------------------------------------------------------------------------

def _heisenberg_algebra(n: int) -> LieAlgebra:
    dim = 2 * n + 1
    t = np.zeros((dim, dim, dim))
    i = np.arange(n)
    t[2 * i, 2 * i + 1, dim - 1] = math.sqrt(2.0 / (n + 2))
    names = [f"E{i + 1}" for i in range(2 * n)] + ["Z"]
    return LieAlgebra._from_upper(t, basis_names=names)


def _catalog_heisenberg(tol, n):
    return MetricLieAlgebra(_heisenberg_algebra(n), np.eye(2 * n + 1), tol)


def _catalog_einstein_solvable(tol, n):
    dim = 2 * n + 2  # basis (A, E_1..E_2n, Z)
    sigma = (n + 1.0) / (n + 2.0)
    nil = _heisenberg_algebra(n)
    t = np.zeros((dim, dim, dim))
    e = np.arange(1, 2 * n + 1)
    t[0, e, e] = sigma                        # [A, E_i] = sigma E_i
    t[0, dim - 1, dim - 1] = 2.0 * sigma      # [A, Z] = 2 sigma Z
    t[1:, 1:, 1:] = nil.tensor                # the Heisenberg nilsoliton on (E_1..E_2n, Z)
    gram = np.eye(dim)
    gram[0, 0] = 2.0 * (n + 1.0) ** 2 / (n + 2.0)
    return _metric_algebra(t, gram, tol, basis_names=("A",) + nil.basis_names)


def _sl_algebra(n: int):
    """sl(n) on the basis E_ij (i != j), H_k = E_kk - E_(k+1)(k+1), with the Gram matrix 2n tr(xy).

    The basis and the coordinate map hold 0 and +-1, and every product of them
    is a small integer, which float64 matrix products give exactly; so every
    constant is exact and the tensor is adopted as it is built.
    """
    off_i, off_j = np.nonzero(~np.eye(n, dtype=bool))
    noff, dim = n * (n - 1), n * n - 1
    mats = np.zeros((dim, n, n))
    mats[np.arange(noff), off_i, off_j] = 1
    k = np.arange(n - 1)
    mats[noff + k, k, k] = 1
    mats[noff + k, k + 1, k + 1] = -1
    # coordinates of a traceless x: its off-diagonal entries, then the partial traces x_00 + ... + x_kk
    coords = np.zeros((dim, n * n))
    coords[np.arange(noff), off_i * n + off_j] = 1
    coords[noff:, np.arange(n) * (n + 1)] = np.tri(n - 1, n)

    # prod[a, i, b, k] = (x_a x_b)[i, k], all pairs in one (dim n, n) @ (n, dim n) product
    prod = (mats.reshape(dim * n, n) @ mats.transpose(1, 0, 2).reshape(n, dim * n)).reshape(dim, n, dim, n)
    comm = prod.transpose(0, 2, 1, 3) - prod.transpose(2, 0, 1, 3)  # [x_a, x_b][i, k]
    # + 0.0 turns a zero that a product left as -0.0 into +0.0
    t = comm.reshape(dim, dim, n * n) @ coords.T + 0.0
    gram = 2 * n * np.einsum("aibi->ab", prod) + 0.0  # tr(x_a x_b) = sum_i (x_a x_b)[i, i]
    names = [f"E{i + 1}{j + 1}" for i, j in zip(off_i, off_j)] + [f"H{k + 1}" for k in range(n - 1)]
    return LieAlgebra._adopting(t, basis_names=names), gram


def _catalog_sl_killing(tol, n):
    return MetricLieAlgebra(*_sl_algebra(n), tol)


def _catalog_sl_complex(tol, n, lam, mu):
    return type_I_metric(_catalog_sl_killing(tol, n), lam, mu)


def _catalog_affine_plane(tol):
    t = np.zeros((2, 2, 2))
    t[0, 1, 1] = 1.0  # [e1, e2] = e2
    return _metric_algebra(t, np.eye(2), tol, basis_names=["e1", "e2"])


def _catalog_abelian(tol, p, q):
    if p + q < 1:
        raise BadParamsError("abelian needs p + q >= 1")
    gram = np.diag([-1.0] * p + [1.0] * q)
    return MetricLieAlgebra(LieAlgebra(p + q), gram, tol)


def _catalog_double_ext_demo(tol, kind, dim):
    base = _catalog_abelian(tol, 0, dim)
    if kind == "solvable":
        spec = DoubleExtensionSpec(base, np.eye(dim), np.zeros((dim, dim)), np.zeros(dim))
    else:
        k = np.zeros((dim, dim))
        i = np.arange(0, dim - 1, 2)
        k[i, i + 1] = 1.0
        k[i + 1, i] = -1.0
        spec = DoubleExtensionSpec(base, np.zeros((dim, dim)), k, np.zeros(dim))
    return double_extension(spec)


# entry -> (builder, {parameter: (kind, minimum or choices, default)}, dimension from the parameters);
# default None = required
_CATALOG = {
    "heisenberg": (_catalog_heisenberg, {"n": ("int", 1, None)}, lambda p: 2 * p["n"] + 1),
    "einstein_solvable": (_catalog_einstein_solvable, {"n": ("int", 1, None)}, lambda p: 2 * p["n"] + 2),
    "sl_killing": (_catalog_sl_killing, {"n": ("int", 2, None)}, lambda p: p["n"] ** 2 - 1),
    "sl_complex_typeI": (_catalog_sl_complex, {"n": ("int", 2, None), "lam": ("real", None, None),
                                               "mu": ("real", None, None)}, lambda p: 2 * (p["n"] ** 2 - 1)),
    "affine_plane": (_catalog_affine_plane, {}, lambda p: 2),
    "abelian": (_catalog_abelian, {"p": ("int", 0, None), "q": ("int", 0, None)}, lambda p: p["p"] + p["q"]),
    "double_ext_demo": (_catalog_double_ext_demo, {"kind": ("choice", ("solvable", "nilpotent"), "nilpotent"),
                                                   "dim": ("int", 2, 2)}, lambda p: p["dim"] + 2),
}

CATALOG_NAMES = tuple(_CATALOG)


def _param_value(name: str, key: str, val, kind: str, bound):
    """``val`` converted for the builder, or BadParamsError saying what the parameter must be."""
    if kind == "int":
        if _is_integer(val) and val >= bound:
            return int(val)
        need = f"an integer >= {bound}"
    elif kind == "real":
        if _is_real(val):
            return float(val)
        need = f"a finite number of magnitude at most {MAX_ABS:g}"
    else:
        if isinstance(val, str) and val in bound:
            return val
        need = f"one of {list(bound)}"
    raise BadParamsError(f"{name}: parameter {key!r} must be {need}, got {_shown(val)}")


def _checked_params(name: str, params: dict) -> dict:
    """The entry's declared parameters, converted, with defaults filled in.

    Parameters that would build an algebra of dimension above ``MAX_DIM``
    are rejected here, before any builder allocates.
    """
    _, declared, dim_of = _CATALOG[name]
    unknown = sorted(set(params) - set(declared))
    if unknown:
        raise BadParamsError(f"{name}: unknown parameters {_shown(unknown)}; accepted: {sorted(declared)}")
    out = {}
    for key, (kind, bound, default) in declared.items():
        if key not in params and default is None:
            raise BadParamsError(f"{name}: missing parameter {key!r}")
        out[key] = _param_value(name, key, params.get(key, default), kind, bound)
    _check_dim(name, dim_of(out))
    return out


def catalog(name: str, tol: Tolerance = DEFAULT_TOL, /, **params) -> MetricLieAlgebra:
    """Named metric Lie algebras with their published constants.

    Irrational constants (sqrt(2/(n+2)) and the (n+1)/(n+2) fractions)
    are computed at call time, never hard-coded as decimals.  ``name`` and
    ``tol`` are positional-only, so every keyword is an entry parameter;
    unknown, missing or ill-typed parameters raise BadParamsError.
    """
    if name not in _CATALOG:
        raise UnknownNameError(f"unknown catalog entry {_shown(name)}; known: {', '.join(CATALOG_NAMES)}")
    return _CATALOG[name][0](tol, **_checked_params(name, params))
