"""Seeded random generators for property suites.

Random structure constants almost never satisfy Jacobi, so algebras are
drawn from families where the identity holds by construction (abelian,
two-step nilpotent, almost-abelian, catalog entries and direct sums) and
then pushed through a well-conditioned random change of basis.  Double
extension data is drawn from families that satisfy the compatibility
constraint exactly.
"""

from __future__ import annotations

import numpy as np

from liemetric.constructions import DoubleExtensionSpec, _heisenberg_algebra
from liemetric.geometry import MetricLieAlgebra, change_basis
from liemetric.lie import LieAlgebra, direct_sum
from liemetric.linalg import DEFAULT_TOL, SymmetricForm, Tolerance

__all__ = [
    "random_invertible",
    "random_metric",
    "random_lie_algebra",
    "random_metric_lie_algebra",
    "random_abelian_extension_spec",
    "random_nilpotent_extension_spec",
    "random_general_extension_spec",
    "ABELIAN_FAMILIES",
    "NILPOTENT_FAMILIES",
]


def random_invertible(rng: np.random.Generator, dim: int, spread: float = 2.0) -> np.ndarray:
    """Random matrix with singular values in [1/spread, spread]."""
    a = rng.normal(size=(dim, dim))
    u, _, vt = np.linalg.svd(a)
    svals = rng.uniform(1.0 / spread, spread, size=dim)
    return u @ np.diag(svals) @ vt


def random_metric(rng: np.random.Generator, dim: int, sig, tol: Tolerance = DEFAULT_TOL) -> SymmetricForm:
    """Well-conditioned random Gram matrix of prescribed signature (p, q)."""
    p, q = int(sig[0]), int(sig[1])
    if p + q != dim:
        raise ValueError("signature must sum to dim")
    eps = np.array([-1.0] * p + [1.0] * q)
    pm = random_invertible(rng, dim)
    return SymmetricForm(pm.T @ np.diag(eps) @ pm, tol)


def _two_step_nilpotent(rng: np.random.Generator, dim: int) -> LieAlgebra:
    ncen = int(rng.integers(1, dim - 1))
    nv = dim - ncen
    structure = {}
    for i in range(nv):
        for j in range(i + 1, nv):
            vec = np.zeros(dim)
            vec[nv:] = rng.normal(scale=0.7, size=ncen)
            structure[(i, j)] = vec
    return LieAlgebra(dim, structure)


def _almost_abelian(rng: np.random.Generator, dim: int) -> LieAlgebra:
    a = rng.normal(scale=0.7, size=(dim - 1, dim - 1))
    structure = {}
    for j in range(1, dim):
        vec = np.zeros(dim)
        vec[1:] = a[:, j - 1]
        structure[(0, j)] = vec
    return LieAlgebra(dim, structure)


def _sl2() -> LieAlgebra:
    # basis (E, F, H): [H,E] = 2E, [H,F] = -2F, [E,F] = H
    structure = {
        (0, 1): [0.0, 0.0, 1.0],
        (0, 2): [-2.0, 0.0, 0.0],
        (1, 2): [0.0, 2.0, 0.0],
    }
    return LieAlgebra(3, structure)


def random_lie_algebra(rng: np.random.Generator, dim: int) -> LieAlgebra:
    """A random validated Lie algebra of the requested dimension."""
    families = ["abelian"]
    if dim >= 3:
        families += ["two_step", "almost_abelian"]
    if dim >= 2:
        families.append("affine_sum")
    if dim % 2 == 1 and dim >= 3:
        families.append("heisenberg")
    if dim >= 3:
        families.append("sl2_sum")
    family = families[int(rng.integers(len(families)))]

    if family == "abelian":
        g = LieAlgebra(dim, {})
    elif family == "two_step":
        g = _two_step_nilpotent(rng, dim)
    elif family == "almost_abelian":
        g = _almost_abelian(rng, dim)
    elif family == "affine_sum":
        g = direct_sum(LieAlgebra(2, {(0, 1): [0.0, 1.0]}), LieAlgebra(dim - 2, {}))
    elif family == "heisenberg":
        g = _heisenberg_algebra((dim - 1) // 2)
    else:
        g = direct_sum(_sl2(), LieAlgebra(dim - 3, {}))
    return g


def random_metric_lie_algebra(rng: np.random.Generator, dim: int, sig=None,
                              tol: Tolerance = DEFAULT_TOL) -> MetricLieAlgebra:
    """Random validated metric Lie algebra in a random basis."""
    if sig is None:
        sig = (0, dim)
    g = random_lie_algebra(rng, dim).validate(tol)
    m = MetricLieAlgebra(g, random_metric(rng, dim, sig, tol), tol)
    return change_basis(m, random_invertible(rng, dim, spread=1.5))


def _random_skew(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(scale=scale, size=(dim, dim))
    return 0.5 * (a - a.T)


ABELIAN_FAMILIES = ("skew", "derivation", "mixed")


def random_abelian_extension_spec(rng: np.random.Generator, dim: int, family: str | None = None,
                                  tol: Tolerance = DEFAULT_TOL) -> DoubleExtensionSpec:
    """Valid extension data over a Euclidean abelian base.

    The abelian compatibility constraint K D + D* K = 0 is met by one of
    three exact families: K alone, D alone, or commutation-compatible
    pairs (D symmetric anticommuting with K in 2x2 blocks).
    """
    family = family or ABELIAN_FAMILIES[int(rng.integers(3))]
    base = MetricLieAlgebra(LieAlgebra(dim, {}).validate(tol), SymmetricForm(np.eye(dim), tol), tol)
    lvec = rng.normal(size=dim)
    if family == "skew":
        d = np.zeros((dim, dim))
        k = _random_skew(rng, dim)
    elif family == "derivation":
        d = rng.normal(size=(dim, dim))
        k = np.zeros((dim, dim))
    elif family == "mixed":
        d = np.zeros((dim, dim))
        k = np.zeros((dim, dim))
        for i in range(0, dim - 1, 2):
            c = rng.normal()
            k[i, i + 1] = -c
            k[i + 1, i] = c
            a, b = rng.normal(size=2)
            d[i, i] = a
            d[i, i + 1] = b
            d[i + 1, i] = b
            d[i + 1, i + 1] = -a
        if dim % 2 == 1:
            d[dim - 1, dim - 1] = rng.normal()
    else:
        raise ValueError(f"unknown family {family!r}")
    return DoubleExtensionSpec(base=base, D=d, K=k, L=lvec)


NILPOTENT_FAMILIES = ("skew", "nilpotent_d", "split")


def random_nilpotent_extension_spec(rng: np.random.Generator, dim: int, family: str | None = None,
                                    tol: Tolerance = DEFAULT_TOL) -> DoubleExtensionSpec:
    """Extension data over a Euclidean abelian base whose extension is nilpotent.

    Nilpotency of the extension forces D nilpotent; the families keep the
    compatibility K D + D^T K = 0 exact by separating the supports of D
    and K.
    """
    family = family or NILPOTENT_FAMILIES[int(rng.integers(3))]
    base = MetricLieAlgebra(LieAlgebra(dim, {}).validate(tol), SymmetricForm(np.eye(dim), tol), tol)
    lvec = rng.normal(size=dim)
    d = np.zeros((dim, dim))
    k = np.zeros((dim, dim))
    if family == "skew":
        k = _random_skew(rng, dim)
    elif family == "nilpotent_d":
        d = np.triu(rng.normal(size=(dim, dim)), k=1)
    elif family == "split":
        if dim < 4:
            k = _random_skew(rng, dim)
        else:
            d[0, 1] = rng.normal()
            sub = _random_skew(rng, dim - 2)
            k[2:, 2:] = sub
    else:
        raise ValueError(f"unknown family {family!r}")
    return DoubleExtensionSpec(base=base, D=d, K=k, L=lvec)


def random_general_extension_spec(rng: np.random.Generator, tol: Tolerance = DEFAULT_TOL) -> DoubleExtensionSpec:
    """Valid extension data over a random (possibly non-abelian) base.

    For a non-abelian base the compatibility condition is kept exact by
    taking D inner (D = ad x) or zero, K skew with D = 0, and L orthogonal
    to the derived subalgebra.
    """
    kind = int(rng.integers(4))
    if kind == 0:
        dim = int(rng.integers(2, 6))
        return random_abelian_extension_spec(rng, dim, tol=tol)

    dim = int(rng.integers(2, 5))
    sig = (0, dim) if rng.random() < 0.7 else (1, dim - 1)
    base = random_metric_lie_algebra(rng, dim, sig, tol)
    g0 = base.gram
    c0 = base.algebra.tensor

    # L orthogonal to [g0, g0] keeps the compatibility left side zero
    derived = c0.reshape(-1, dim)
    _, svals, vt = np.linalg.svd(derived)
    rank = int(np.count_nonzero(svals > 1e-10 * svals[0])) if svals.size and svals[0] > 0 else 0
    lvec = rng.normal(size=dim)
    if rank:
        span = vt[:rank]  # rows span [g0, g0]
        # <L, w>_0 = 0 for w in derived: solve for L in the kernel of span @ g0
        _, _, v2 = np.linalg.svd(span @ g0)
        null = v2[rank:]
        lvec = null.T @ rng.normal(size=null.shape[0]) if null.shape[0] else np.zeros(dim)

    if kind == 1:
        d = np.zeros((dim, dim))
        k = np.zeros((dim, dim))
    elif kind == 2:
        d = base.algebra.ad(rng.normal(size=dim))
        k = np.zeros((dim, dim))
    else:
        d = np.zeros((dim, dim))
        k = _random_cocycle_skew(rng, base)
    return DoubleExtensionSpec(base=base, D=d, K=k, L=lvec)


def _random_cocycle_skew(rng: np.random.Generator, base) -> np.ndarray:
    """Random K, skew for the base metric, with <K.,.>_0 a bracket cocycle.

    Both constraints are linear in the antisymmetric matrix W = G0 K, so
    K is drawn from the kernel of the cocycle condition over the skew
    parameters.
    """
    dim = base.dim
    g0 = base.gram
    c0 = base.algebra.tensor
    p, q = np.triu_indices(dim, 1)  # skew parameters: W[p, q] = -W[q, p]
    if not p.size:
        return np.zeros((dim, dim))
    basis = np.zeros((p.size, dim, dim))
    basis[np.arange(p.size), p, q] = 1.0
    basis[np.arange(p.size), q, p] = -1.0
    # pair[k, a, b, c] = <K e_a, [e_b, e_c]>_0 with G0 K the k-th basis matrix
    pair = np.einsum("kma,bcm->kabc", basis, c0)
    r = np.arange(dim)
    a, b, c = np.nonzero((r[:, None, None] < r[None, :, None]) & (r[None, :, None] < r[None, None, :]))
    if a.size:
        mat = (pair[:, a, b, c] + pair[:, b, c, a] + pair[:, c, a, b]).T
        _, svals, vt = np.linalg.svd(mat)
        rank = int(np.count_nonzero(svals > 1e-10 * svals[0])) if svals.size and svals[0] > 0 else 0
        null = vt[rank:]
    else:
        null = np.eye(p.size)
    if null.shape[0] == 0:
        return np.zeros((dim, dim))
    params = null.T @ rng.normal(size=null.shape[0])
    w = np.zeros((dim, dim))
    w[p, q] = params
    w[q, p] = -params
    return np.linalg.solve(g0, w)
