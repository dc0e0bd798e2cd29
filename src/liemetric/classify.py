"""Ricci-operator taxonomy and normal forms.

Non-Einstein Ricci-parallel metrics split by the minimal polynomial of
the Ricci operator: a complex conjugate pair (type I, Ric = lambda*Id +
mu*J for a parallel complex structure J) or a square-zero nilpotent
(type II).  This module classifies, extracts the type-I pair
(Einstein metric, J), builds the Lorentz type-II canonical basis, and
peels a type-II metric back into double-extension data, all in the
metric's frame (:func:`liemetric.geometry.frame`), mapped back after.  Each
certificate's residuals are judged by name, at their degrees in ``linalg.DEGREES``.
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
    frame,
    is_einstein,
    is_ricci_flat,
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
    """Classify by the shape of the Ricci operator's minimal polynomial, in the frame.

    Precedence under tolerance: Einstein beats type I beats type II beats
    other, since mu -> 0 and Ric -> 0 are boundary degenerations of the
    non-Einstein types, decided by :func:`is_einstein` and :func:`is_ricci_flat`.
    Type I is tested (and its residual reported) only when Ric is not
    Einstein and mu is nonzero.  Both minimal polynomials
    are tested unit-free, on the normalized operator: (Ric - lambda)^2 + mu^2
    and mu^2 on (Ric - lambda) / |Ric - lambda| (for a nilpotent Ric - lambda,
    mu^2 is rounding noise of |Ric - lambda|^2), Ric^2 on Ric / |Ric|.
    Computed once per metric algebra.
    """
    tol = m.tol
    op = ricci(frame(m)[0]).operator
    d = m.dim
    constant, einstein_res = is_einstein(m)
    flat, norm = is_ricci_flat(m)
    lam = float(np.trace(op)) / d if d else 0.0
    shifted = op - lam * np.eye(d)
    mu_sq = -float(np.trace(shifted @ shifted)) / d if d else 0.0
    mu = float(np.sqrt(mu_sq)) if mu_sq > 0.0 else 0.0  # 0.0, not -0.0, when mu_sq is -0.0
    complex_pair = constant is None and not tol.passes((mu / einstein_res) ** 2, "unit_free", (0, 0))
    type_i_res = operator_residual(shifted @ shifted + mu_sq * np.eye(d)) if complex_pair else None
    type_ii_sq = operator_residual(op @ op)
    residuals = {"einstein": einstein_res, "type_I_minpoly": type_i_res, "type_II_square": type_ii_sq,
                 "operator_norm": norm, "mu": mu}
    if constant is not None:
        return RicciClassification(tag=EINSTEIN, constant=lam, residuals=residuals)
    if complex_pair and tol.passes(type_i_res / einstein_res / einstein_res, "unit_free", (0, 0)):
        return RicciClassification(tag=TYPE_I, lam=lam, mu=mu, residuals=residuals)
    if not flat and tol.passes(type_ii_sq / norm / norm, "unit_free", (0, 0)):
        return RicciClassification(tag=TYPE_II, residuals=residuals)
    return RicciClassification(tag=OTHER, residuals=residuals)


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

    Verifies every certified property in the frame before returning: J^2 =
    -Id, J is symmetric and parallel for the companion metric, the companion
    is Einstein with constant 1, and the original metric is reconstructed
    from the pair.  J and the companion are returned in the given basis.
    """
    tol = m.tol
    cls = classify_ricci(m)
    if cls.tag != TYPE_I:
        raise NotTypeIError(f"metric classifies as {cls.tag!r}, not type I")
    lam, mu = cls.lam, cls.mu
    d = m.dim
    f, p = frame(m)
    j = (ricci(f).operator - lam * np.eye(d)) / mu
    g = f.gram
    gp = lam * g + mu * (g @ j)
    gp = 0.5 * (gp + gp.T)
    form = SymmetricForm(gp, tol)
    mp = MetricLieAlgebra(f.algebra, form, tol)
    mp._cache["frame"] = None  # judged in the frame of m, as every check here

    constant, einstein_res = is_einstein(mp)
    nm = connection_matrices(f)
    par = j @ nm  # [J, N_i] over the whole stack
    par -= nm @ j
    recon = (lam * gp - mu * (gp @ j)) / (lam ** 2 + mu ** 2)
    residuals = {"complex_structure": operator_residual(j @ j + np.eye(d)),
                 "symmetric": operator_residual(metric_adjoint(j, form) - j), "einstein": einstein_res,
                 "einstein_constant": abs(constant - 1.0) if constant is not None else np.inf,
                 "parallel": operator_residual(par), "reconstruction": operator_residual(g - recon)}

    if bad := tol.failures(residuals, f.exponents):
        raise VerificationError(f"type-I pair failed verification: {bad}", residuals=residuals)
    q = np.linalg.inv(p)
    return TypeIDecomposition(p @ j @ q, SymmetricForm(q.T @ gp @ q, tol), lam, mu, residuals)


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


def type_II_canonical_basis(m: MetricLieAlgebra) -> TypeIICanonicalBasis:
    """Null basis normalising a Lorentz square-zero Ricci operator, built in the frame and mapped back.

    In the frame |u| and |v| go as 1/sigma and sigma with the size sigma of
    the brackets, so the residuals are column-scaled: each Gram entry is
    divided by the norms of its two columns, each Ricci-block entry by the
    norms of its row of B^-1 and its column of B, which leaves the units of Ric.
    """
    tol = m.tol
    sig = signature(m.metric)
    if sig.p != 1:
        raise WrongSignatureError(f"need Lorentz signature (1, {m.dim - 1}), got {tuple(sig)}")
    cls = classify_ricci(m)
    if cls.tag != TYPE_II:
        raise NotTypeIIError(f"metric classifies as {cls.tag!r}, not type II")

    f, p = frame(m)
    g = f.gram
    op = ricci(f).operator
    u_svd, svals, _ = np.linalg.svd(op)
    rank = int(np.count_nonzero(svals > tol.rank * svals[0]))
    if rank != 1:
        raise NotTypeIIError(f"Ricci image is {rank}-dimensional, expected 1")
    pv = p @ u_svd[:, 0]
    if pv[np.argmax(np.abs(pv) >= (1 - 1e-8) * np.abs(pv).max())] < 0:
        u_svd = -u_svd  # the reported v = a * P v0 is positive at its first largest entry (ties within 1e-8)
    v0 = u_svd[:, 0]  # a strided column either way, so the products below round alike for both signs
    v0_norm = float(v0 @ g @ v0)
    if not tol.passes(abs(v0_norm), "metric", f.exponents):
        raise NullImageError(f"Ricci image is not null: <v, v> = {v0_norm:.3e}", residual=v0_norm)

    w, *_ = np.linalg.lstsq(op, v0, rcond=None)
    if not tol.passes(operator_residual(op @ w - v0), "unit_free", f.exponents):
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

    basis = np.column_stack([u, v, ecols])
    inverse = np.linalg.inv(basis)
    col_norms, row_norms = np.linalg.norm(basis, axis=0), np.linalg.norm(inverse, axis=1)
    gram_err = basis.T @ g @ basis - np.eye(m.dim)  # expected <u, v> = sign, <u, u> = <v, v> = 0, <e_i, e_j> = I
    gram_err[:2, :2] -= [[-1.0, sign], [sign, -1.0]]
    ric_err = inverse @ op @ basis
    ric_err[1, 0] -= 1.0  # expected Ric u = v, Ric v = Ric e_i = 0
    residuals = {"gram": operator_residual(gram_err / np.outer(col_norms, col_norms)),
                 "ricci_block": operator_residual(ric_err / np.outer(row_norms, col_norms)),
                 "complement_signs": float(np.count_nonzero(signs < 0))}
    if bad := tol.failures(residuals, f.exponents):
        raise VerificationError(f"canonical basis failed verification: {bad}", residuals=residuals)
    return TypeIICanonicalBasis(basis=p @ basis, gram_sign=sign, residuals=residuals)


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
    as StructureMismatchError when violated, never dropped.  Beyond them
    it can fail: the flat Euclidean e(2) ([e1, e3] = -e2, [e2, e3] = e1)
    double-extended by D = diag(1, 1, 0) is Ricci-parallel of type II and
    not nilpotent, and its base_abelian residual is 1.  The
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
    for name, res in tol.failures(checks, mc.exponents).items():  # the first failing check raises
        raise StructureMismatchError(f"bracket data outside the double-extension pattern ({name} residual {res:.3e})",
                                     residual=res)

    base_gram = mc.gram[2:, 2:]  # a block of a symmetric Gram matrix

    dmat = c[0, 2:, 2:].T                                  # D[c, a] = e_c component of [u, e_a]
    lvec = np.linalg.solve(base_gram, c[0, 2:, 1])         # <L, e_a>_0 = v-component of [u, e_a]
    kmat = np.linalg.solve(base_gram, c[2:, 2:, 1].T)      # <K e_a, e_b>_0 = v-component of [e_a, e_b]

    base = MetricLieAlgebra(LieAlgebra(n, {}), SymmetricForm(base_gram, tol), tol)
    spec = DoubleExtensionSpec(base=base, D=dmat, K=kmat, L=lvec)

    residuals = dict(canon.residuals)
    residuals.update(checks)
    residuals.update(spec.validate())
    return DecomposedExtension(spec=spec, basis=basis, residuals=residuals)
