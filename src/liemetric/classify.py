"""Ricci-operator taxonomy and normal forms.

Non-Einstein Ricci-parallel metrics split by the minimal polynomial of
the Ricci operator: a complex conjugate pair (type I, Ric = lambda*Id +
mu*J for a parallel complex structure J) or a square-zero nilpotent
(type II).  This module classifies, extracts the type-I pair
(Einstein metric, J), builds the Lorentz type-II canonical basis, and
peels a type-II metric back into double-extension data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constructions import DoubleExtensionSpec
from .errors import (
    NotTypeIError,
    NotTypeIIError,
    NullImageError,
    StructureMismatchError,
    VerificationError,
    WrongSignatureError,
)
from .geometry import (
    MetricLieAlgebra,
    _memoised,
    change_basis,
    connection_matrices,
    is_einstein,
    ricci,
)
from .lie import LieAlgebra
from .linalg import (
    SymmetricForm,
    metric_adjoint,
    operator_residual,
    pseudo_orthonormal_basis,
    signature,
)

__all__ = [
    "RicciClassification",
    "classify_ricci",
    "TypeIDecomposition",
    "type_I_decomposition",
    "TypeIICanonicalBasis",
    "type_II_canonical_basis",
    "DecomposedExtension",
    "decompose_double_extension",
]

EINSTEIN = "einstein"
TYPE_I = "type_I"
TYPE_II = "type_II"
OTHER = "other"


@dataclass(frozen=True)
class RicciClassification:
    """Tagged classification with every tested minimal-polynomial residual."""

    tag: str
    constant: float | None = None
    lam: float | None = None
    mu: float | None = None
    residuals: dict = field(default_factory=dict)


@_memoised
def classify_ricci(m: MetricLieAlgebra) -> RicciClassification:
    """Classify by the shape of the Ricci operator's minimal polynomial.

    Precedence under tolerance: Einstein beats type I beats type II beats
    other, since mu -> 0 and Ric -> 0 are boundary degenerations of the
    non-Einstein types.  Type I is tested (and its residual reported) only
    when Ric is not Einstein and mu is nonzero.  Both minimal polynomials
    are tested unit-free, on the normalized operator: (Ric - lambda)^2 + mu^2
    and mu^2 on (Ric - lambda) / |Ric - lambda| (for a nilpotent Ric - lambda,
    mu^2 is rounding noise of |Ric - lambda|^2), Ric^2 on Ric / |Ric|.
    Computed once per metric algebra.
    """
    tol = m.tol
    exps = m.exponents
    op = ricci(m).operator
    d = m.dim
    norm = operator_residual(op)

    lam = float(np.trace(op)) / d if d else 0.0
    shifted = op - lam * np.eye(d)
    einstein_res = operator_residual(shifted)
    mu_sq = -float(np.trace(shifted @ shifted)) / d if d else 0.0
    mu = float(np.sqrt(mu_sq)) if mu_sq > 0.0 else 0.0  # 0.0, not -0.0, when mu_sq is -0.0
    einstein = tol.passes(einstein_res, "Ric", exps)
    complex_pair = not einstein and not tol.passes((mu / einstein_res) ** 2, "unit_free", (0, 0))
    type_i_res = operator_residual(shifted @ shifted + mu_sq * np.eye(d)) if complex_pair else None

    type_ii_sq = operator_residual(op @ op)

    residuals = {
        "einstein": einstein_res,
        "type_I_minpoly": type_i_res,
        "type_II_square": type_ii_sq,
        "operator_norm": norm,
        "mu": mu,
    }

    if einstein:
        return RicciClassification(tag=EINSTEIN, constant=lam, residuals=residuals)
    if complex_pair and tol.passes(type_i_res / einstein_res / einstein_res, "unit_free", (0, 0)):
        return RicciClassification(tag=TYPE_I, lam=lam, mu=mu, residuals=residuals)
    if not tol.passes(norm, "Ric", exps) and tol.passes(type_ii_sq / norm / norm, "unit_free", (0, 0)):
        return RicciClassification(tag=TYPE_II, residuals=residuals)
    return RicciClassification(tag=OTHER, residuals=residuals)


# degree-table entry of each type-I verification residual (J is unit-free, gp has the units of ric)
_TYPE_I_RESIDUALS = {"complex_structure": "unit_free", "symmetric": "unit_free", "einstein": "ric",
                     "einstein_constant": "unit_free", "parallel": "connection", "reconstruction": "metric"}


@dataclass(frozen=True)
class TypeIDecomposition:
    """The unique (Einstein metric, complex structure) pair behind a type-I metric."""

    J: np.ndarray
    einstein_metric: SymmetricForm
    lam: float
    mu: float
    residuals: dict = field(default_factory=dict)


def type_I_decomposition(m: MetricLieAlgebra) -> TypeIDecomposition:
    """Extract J = (Ric - lambda Id)/mu and the Einstein companion metric.

    Verifies every certified property before returning: J^2 = -Id, J is
    symmetric and parallel for the companion metric, the companion is
    Einstein with constant 1, and the original metric is reconstructed
    from the pair.
    """
    tol = m.tol
    cls = classify_ricci(m)
    if cls.tag != TYPE_I:
        raise NotTypeIError(f"metric classifies as {cls.tag!r}, not type I")
    lam, mu = cls.lam, cls.mu
    d = m.dim
    op = ricci(m).operator
    j = (op - lam * np.eye(d)) / mu
    g = m.gram
    gp = lam * g + mu * (g @ j)
    gp = 0.5 * (gp + gp.T)
    form = SymmetricForm(gp, tol)
    mp = MetricLieAlgebra(m.algebra, form, tol)

    residuals = {}
    residuals["complex_structure"] = operator_residual(j @ j + np.eye(d))
    residuals["symmetric"] = operator_residual(metric_adjoint(j, form) - j)
    constant, einstein_res = is_einstein(mp)
    residuals["einstein"] = einstein_res
    residuals["einstein_constant"] = abs(constant - 1.0) if constant is not None else np.inf
    nm = connection_matrices(m)
    residuals["parallel"] = operator_residual(j @ nm - nm @ j)
    recon = (lam * gp - mu * (gp @ j)) / (lam ** 2 + mu ** 2)
    residuals["reconstruction"] = operator_residual(g - recon)

    bad = {k: v for k, v in residuals.items() if not tol.passes(v, _TYPE_I_RESIDUALS[k], m.exponents)}
    if bad:
        raise VerificationError(f"type-I pair failed verification: {bad}", residuals=residuals)
    return TypeIDecomposition(J=j, einstein_metric=form, lam=lam, mu=mu, residuals=residuals)


@dataclass(frozen=True)
class TypeIICanonicalBasis:
    """Basis (u, v, e_1..e_n) putting a Lorentz type-II Ricci in normal form.

    v is normalised so that Ric(u) = v exactly; the hyperbolic pairing
    <u, v> then equals ``gram_sign`` (the sign of the rank-one Ricci
    form), which is +1 in the textbook normal form.
    """

    basis: np.ndarray
    gram_sign: int
    residuals: dict = field(default_factory=dict)


def _expected_type_ii_gram(dim: int, sign: int) -> np.ndarray:
    g = np.eye(dim)
    g[0, 0] = g[1, 1] = 0.0
    g[0, 1] = g[1, 0] = float(sign)
    return g


def _expected_type_ii_ric(dim: int) -> np.ndarray:
    r = np.zeros((dim, dim))
    r[1, 0] = 1.0
    return r


def type_II_canonical_basis(m: MetricLieAlgebra) -> TypeIICanonicalBasis:
    """Null basis normalising a Lorentz square-zero Ricci operator."""
    tol = m.tol
    sig = signature(m.metric)
    if sig.p != 1:
        raise WrongSignatureError(f"need Lorentz signature (1, {m.dim - 1}), got {tuple(sig)}")
    cls = classify_ricci(m)
    if cls.tag != TYPE_II:
        raise NotTypeIIError(f"metric classifies as {cls.tag!r}, not type II")

    g = m.gram
    op = ricci(m).operator
    u_svd, svals, _ = np.linalg.svd(op)
    rank = int(np.count_nonzero(svals > tol.rank * svals[0]))
    if rank != 1:
        raise NotTypeIIError(f"Ricci image is {rank}-dimensional, expected 1")
    v0 = u_svd[:, 0]
    v0_norm = float(v0 @ g @ v0)
    if not tol.passes(abs(v0_norm), "metric", m.exponents):
        raise NullImageError(f"Ricci image is not null: <v, v> = {v0_norm:.3e}")

    w, *_ = np.linalg.lstsq(op, v0, rcond=None)
    if not tol.passes(operator_residual(op @ w - v0), "unit_free", m.exponents):
        raise NotTypeIIError("Ricci image vector has no preimage; operator is inconsistent")

    s = float(w @ g @ v0)
    sign = 1 if s > 0 else -1
    a = 1.0 / np.sqrt(abs(s))
    beta = -a * float(w @ g @ w) / (2.0 * s)
    u = a * w + beta * v0
    v = a * v0  # = Ric(u) exactly, up to round-off

    # metric-orthogonal complement of span(u, v)
    rows = np.vstack([g @ u, g @ v])
    _, _, vt = np.linalg.svd(rows)
    null_basis = vt[2:].T  # dim x (dim - 2)
    restricted = SymmetricForm(null_basis.T @ g @ null_basis, tol)
    on, signs = pseudo_orthonormal_basis(restricted)
    ecols = null_basis @ on

    basis = np.column_stack([u, v] + [ecols[:, k] for k in range(ecols.shape[1])])
    residuals = {
        "gram": operator_residual(basis.T @ g @ basis - _expected_type_ii_gram(m.dim, sign)),
        "ricci_block": operator_residual(np.linalg.solve(basis, op @ basis) - _expected_type_ii_ric(m.dim)),
        "complement_signs": float(np.count_nonzero(signs < 0)),
    }
    bad = {k: v_ for k, v_ in residuals.items() if not tol.passes(v_, "unit_free", m.exponents)}
    if bad:
        raise VerificationError(f"canonical basis failed verification: {bad}", residuals=residuals)
    return TypeIICanonicalBasis(basis=basis, gram_sign=sign, residuals=residuals)


@dataclass(frozen=True)
class DecomposedExtension:
    """Recovered double-extension data plus the basis realising it."""

    spec: DoubleExtensionSpec
    basis: np.ndarray
    residuals: dict = field(default_factory=dict)


def decompose_double_extension(m: MetricLieAlgebra) -> DecomposedExtension:
    """Peel a Lorentz type-II metric back into (abelian base, D, K, L).

    Nilpotency (or dimension <= 4) guarantees success; the structural
    facts it buys ([v, g] = 0, no bracket component along u, abelian
    Euclidean base) are checked numerically on every input and surfaced
    as StructureMismatchError when violated, never dropped.  The
    preconditions (Lorentz signature, type II) are those of
    :func:`type_II_canonical_basis`.
    """
    tol = m.tol
    canon = type_II_canonical_basis(m)
    basis = canon.basis.copy()
    if canon.gram_sign < 0:
        basis[:, 0] = -basis[:, 0]  # restore <u, v> = +1; Ric(u) sign is irrelevant here

    mc = change_basis(m, basis)
    c = mc.algebra.tensor
    n = m.dim - 2

    checks = {
        "v_central": operator_residual(c[1]),
        "u_component": operator_residual(c[:, :, 0]),
        "base_abelian": operator_residual(c[2:, 2:, 2:]),
    }
    for name, res in checks.items():
        if not tol.passes(res, "bracket", mc.exponents):
            raise StructureMismatchError(
                f"bracket data outside the double-extension pattern ({name} residual {res:.3e})",
                residual=res,
            )

    base_gram = mc.gram[2:, 2:]
    base_gram = 0.5 * (base_gram + base_gram.T)

    dmat = c[0, 2:, 2:].T                                  # D[c, a] = e_c component of [u, e_a]
    lvec = np.linalg.solve(base_gram, c[0, 2:, 1])         # <L, e_a>_0 = v-component of [u, e_a]
    kmat = np.linalg.solve(base_gram, c[2:, 2:, 1].T)      # <K e_a, e_b>_0 = v-component of [e_a, e_b]

    base = MetricLieAlgebra(LieAlgebra(n, {}), SymmetricForm(base_gram, tol), tol)
    spec = DoubleExtensionSpec(base=base, D=dmat, K=kmat, L=lvec)

    residuals = dict(canon.residuals)
    residuals.update(checks)
    residuals.update(spec.validate())
    return DecomposedExtension(spec=spec, basis=basis, residuals=residuals)
