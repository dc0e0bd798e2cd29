import numpy as np
import pytest

from liemetric import LieAlgebra


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_affine():
    """[e1, e2] = e2, the nonabelian 2-dimensional algebra."""
    return LieAlgebra(2, {(0, 1): [0.0, 1.0]}, basis_names=["e1", "e2"])


def make_sl2():
    """Basis (E, F, H): [H, E] = 2E, [H, F] = -2F, [E, F] = H."""
    return LieAlgebra(3, {
        (0, 1): [0.0, 0.0, 1.0],
        (0, 2): [-2.0, 0.0, 0.0],
        (1, 2): [0.0, 2.0, 0.0],
    }, basis_names=["E", "F", "H"])


def make_heisenberg(n):
    """Heisenberg H_n with the nilsoliton normalisation of the bracket."""
    dim = 2 * n + 1
    coeff = np.sqrt(2.0 / (n + 2))
    structure = {}
    for i in range(n):
        vec = np.zeros(dim)
        vec[-1] = coeff
        structure[(2 * i, 2 * i + 1)] = vec
    return LieAlgebra(dim, structure)


# one small instance of every catalog entry
CATALOG_CASES = [
    ("heisenberg", {"n": 1}),
    ("heisenberg", {"n": 3}),
    ("einstein_solvable", {"n": 1}),
    ("einstein_solvable", {"n": 3}),
    ("sl_killing", {"n": 2}),
    ("sl_killing", {"n": 3}),
    ("sl_complex_typeI", {"n": 2, "lam": 1.0, "mu": 2.0}),
    ("affine_plane", {}),
    ("abelian", {"p": 1, "q": 2}),
    ("double_ext_demo", {"kind": "solvable"}),
    ("double_ext_demo", {"kind": "nilpotent", "dim": 4}),
]
