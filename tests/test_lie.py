import numpy as np
import pytest
from numpy.testing import assert_allclose

from liemetric import (
    LieAlgebra,
    MetricLieAlgebra,
    StructureReport,
    catalog,
    change_basis,
    direct_sum,
    killing_form,
    structure_report,
    trace_functional,
    validate_jacobi,
)
from liemetric.errors import DimensionMismatchError, JacobiError
from sampling import random_invertible, random_lie_algebra

from conftest import CATALOG_CASES, make_affine, make_heisenberg, make_sl2


def test_bracket_heisenberg():
    h = make_heisenberg(1)
    out = h.bracket([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert_allclose(out, [0.0, 0.0, np.sqrt(2.0 / 3.0)])


def test_bracket_self_is_zero(rng):
    g = make_sl2()
    for _ in range(5):
        x = rng.normal(size=3)
        assert_allclose(g.bracket(x, x), np.zeros(3), atol=1e-15)


def test_bracket_antisymmetry_of_stored_constant():
    g = make_affine()
    assert_allclose(g.bracket([0.0, 1.0], [1.0, 0.0]), [0.0, -1.0])


def test_bracket_bilinear(rng):
    g = make_sl2()
    x, y, z = rng.normal(size=(3, 3))
    a, b = 1.7, -0.3
    assert_allclose(g.bracket(a * x + b * y, z),
                    a * g.bracket(x, z) + b * g.bracket(y, z), atol=1e-12)


def test_bracket_dim_mismatch():
    g = make_affine()
    with pytest.raises(DimensionMismatchError):
        g.bracket([1.0, 0.0, 0.0], [0.0, 1.0])


def test_structure_keys_checked():
    with pytest.raises(DimensionMismatchError):
        LieAlgebra(2, {(1, 0): [1.0, 0.0]})


@pytest.mark.parametrize("dim, structure", [
    ("3", {}), (True, {}), (2.7, {}), (-1, {}),
    (2, {(0.5, 1.9): [0.0, 1.0]}), (2, {(False, True): [0.0, 1.0]}), (2, {(np.float64(0.0), 1): [0.0, 1.0]}),
    (2, {(0,): [0.0, 1.0]}), (2, {0: [0.0, 1.0]}), (3, {(0, 1, 2): [0.0, 0.0, 1.0]}),
])
def test_sizes_and_indices_must_be_integers(dim, structure):
    with pytest.raises(DimensionMismatchError):
        LieAlgebra(dim, structure)


def test_numpy_integer_size_and_indices():
    g = LieAlgebra(np.int64(2), {(np.int64(0), np.int32(1)): [0.0, 1.0]})
    assert type(g.dim) is int
    assert_allclose(g.tensor, make_affine().tensor)


def test_jacobi_abelian_and_heisenberg_zero():
    assert validate_jacobi(LieAlgebra(4, {})) == 0.0
    assert validate_jacobi(make_heisenberg(2)) == 0.0


def test_jacobi_perturbed_sl2():
    # [H, E] = 2.1 E instead of 2E leaves a cyclic-sum defect of size 0.1
    g = LieAlgebra(3, {
        (0, 1): [0.0, 0.0, 1.0],
        (0, 2): [-2.1, 0.0, 0.0],
        (1, 2): [0.0, 2.0, 0.0],
    })
    res = validate_jacobi(g)
    assert res >= 0.1 - 1e-12


def test_validate_two_phase():
    good = make_sl2()
    assert not good.is_validated
    good.validate()
    assert good.is_validated

    bad = LieAlgebra(3, {
        (0, 1): [0.0, 0.0, 1.0],
        (0, 2): [-2.1, 0.0, 0.0],
        (1, 2): [0.0, 2.0, 0.0],
    })
    with pytest.raises(JacobiError):
        bad.validate()


def test_ad_affine_diagonal():
    g = make_affine()
    assert_allclose(g.ad([1.0, 0.0]), np.diag([0.0, 1.0]))


def test_ad_center_and_self():
    h = make_heisenberg(1)
    z = np.array([0.0, 0.0, 1.0])
    assert_allclose(h.ad(z), np.zeros((3, 3)))
    x = np.array([1.0, 2.0, 3.0])
    assert_allclose(h.ad(x) @ x, np.zeros(3), atol=1e-15)


def test_killing_form_sl2():
    g = make_sl2()
    k = killing_form(g)
    # oracle: K(x, y) = 2n tr(xy) on sl(2), so K(H, H) = 4 tr(diag(1,-1)^2) = 8
    assert_allclose(k[2, 2], 8.0)
    assert_allclose(k[0, 1], 4.0)   # K(E, F) = 4 tr(EF) = 4
    assert_allclose(k[0, 0], 0.0)
    assert np.array_equal(k, k.T)


def test_killing_form_degenerate_cases():
    assert_allclose(killing_form(make_heisenberg(2)), np.zeros((5, 5)))
    assert_allclose(killing_form(LieAlgebra(3, {})), np.zeros((3, 3)))


def test_killing_form_ad_invariance(rng):
    for dim in (2, 3, 4, 5, 6):
        g = random_lie_algebra(rng, dim).validate()
        k = killing_form(g)
        for _ in range(5):
            x, y, z = rng.normal(size=(3, dim))
            lhs = g.bracket(x, y) @ k @ z + y @ k @ g.bracket(x, z)
            assert abs(lhs) < 1e-9 * max(1.0, np.max(np.abs(k))) * 10


def test_trace_functional_values():
    assert_allclose(trace_functional(make_heisenberg(2)), np.zeros(5))
    assert_allclose(trace_functional(make_affine()), [1.0, 0.0])
    assert_allclose(trace_functional(make_sl2()), np.zeros(3))


def test_trace_functional_vanishes_on_derived(rng):
    for dim in (3, 4, 5):
        g = random_lie_algebra(rng, dim).validate()
        tau = trace_functional(g)
        for _ in range(5):
            x, y = rng.normal(size=(2, dim))
            assert abs(tau @ g.bracket(x, y)) < 1e-9 * max(1.0, g.max_structure_constant ** 2) * 10


def test_structure_report_heisenberg():
    rep = structure_report(make_heisenberg(1).validate())
    assert rep.is_nilpotent and rep.nilpotency_step == 2
    assert rep.center_dim == 1
    assert rep.is_unimodular and rep.is_solvable
    assert rep.derived_dim == 1


def test_structure_report_affine():
    rep = structure_report(make_affine().validate())
    assert rep.is_solvable and not rep.is_nilpotent
    assert not rep.is_unimodular
    assert rep.derived_dim == 1
    assert rep.nilpotency_step is None


def test_structure_report_abelian():
    rep = structure_report(LieAlgebra(4, {}).validate())
    assert rep.is_nilpotent and rep.nilpotency_step == 1
    assert rep.center_dim == 4
    assert rep.derived_dim == 0


def test_structure_report_sl2():
    rep = structure_report(make_sl2().validate())
    assert not rep.is_solvable and not rep.is_nilpotent
    assert rep.is_unimodular
    assert rep.derived_dim == 3
    assert rep.center_dim == 0


def test_structure_report_consistency(rng):
    for dim in (2, 3, 4, 5):
        for _ in range(5):
            rep = structure_report(random_lie_algebra(rng, dim).validate())
            if rep.is_nilpotent:
                assert rep.is_solvable
                assert rep.is_unimodular


def test_direct_sum():
    g = direct_sum(make_affine(), LieAlgebra(2, {}))
    assert g.dim == 4
    assert_allclose(g.bracket([1, 0, 0, 0], [0, 1, 0, 0]), [0, 1, 0, 0])
    rep = structure_report(g.validate())
    assert rep.is_solvable and not rep.is_nilpotent


def test_structure_tensor_round_trip():
    g = make_sl2()
    back = LieAlgebra.from_tensor(g.tensor)
    assert list(back.structure) == [(0, 1), (0, 2), (1, 2)]
    assert sorted(g.structure) == list(back.structure)
    for key, vec in g.structure.items():
        assert np.array_equal(back.structure[key], vec)
    assert np.array_equal(back.tensor, g.tensor)
    assert np.array_equal(g.tensor, -g.tensor.transpose(1, 0, 2))


def test_from_tensor_completes_from_upper_triangle():
    c = np.array(make_sl2().tensor)
    c[1, 0, 2] += 1e-13  # below the antisymmetry cutoff
    g = LieAlgebra.from_tensor(c)
    assert g.tensor[0, 1, 2] == 1.0
    assert g.tensor[1, 0, 2] == -1.0
    assert np.array_equal(g.tensor, make_sl2().tensor)
    c[1, 0, 2] += 1e-6
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebra.from_tensor(c)


def _cyclic_jacobi(c: np.ndarray) -> float:
    """Reference: max-norm of the cyclic sum [e_i, [e_j, e_k]] + cyclic, through one dim^4 array."""
    if c.shape[0] == 0:
        return 0.0
    t = np.einsum("jkm,iml->ijkl", c, c)
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(cyc)))


def _assert_jacobi_matches_reference(g):
    ref = _cyclic_jacobi(g.tensor)
    assert abs(validate_jacobi(g) - ref) <= 1e-12 * max(ref, g.max_structure_constant ** 2)


def test_validate_jacobi_matches_cyclic_sum_on_non_lie_tensors(rng):
    for dim in range(3, 9):
        for _ in range(3):
            c = rng.normal(size=(dim, dim, dim))
            g = LieAlgebra.from_tensor(c - c.transpose(1, 0, 2))
            assert _cyclic_jacobi(g.tensor) > 1e-3
            _assert_jacobi_matches_reference(g)


@pytest.mark.parametrize("name, params", CATALOG_CASES)
def test_validate_jacobi_matches_cyclic_sum_on_catalog(name, params):
    _assert_jacobi_matches_reference(catalog(name, **params).algebra)


# catalog tensors to perturb; sl(3) (dim 8, 120 products against the cut 64) takes the dense kernel
_JACOBI_BRANCH_CASES = [
    ("sl_killing", {"n": 3}),
    ("sl_killing", {"n": 5}),
    ("heisenberg", {"n": 6}),
    ("einstein_solvable", {"n": 5}),
    ("sl_complex_typeI", {"n": 3, "lam": 1.0, "mu": 2.0}),
    ("double_ext_demo", {"kind": "nilpotent", "dim": 8}),
]


def _perturbed_and_random_tensors(rng):
    """Catalog tensors with 1-3 bracket entries perturbed, then random ones of 2-30% density."""
    for name, params in _JACOBI_BRANCH_CASES:
        base = catalog(name, **params).algebra.tensor
        dim = base.shape[0]
        for _ in range(10):
            c = np.array(base)
            for _ in range(rng.integers(1, 4)):
                a, b = rng.choice(dim, 2, replace=False)
                m = rng.integers(dim)
                c[a, b, m] += rng.normal()
                c[b, a, m] = -c[a, b, m]
            yield c
    for dim in range(3, 13):
        for density in (0.02, 0.05, 0.1, 0.3):
            c = rng.normal(size=(dim, dim, dim)) * (rng.random((dim, dim, dim)) < density)
            yield c - c.transpose(1, 0, 2)


def test_validate_jacobi_branches_match_cyclic_sum(rng, monkeypatch):
    from liemetric import lie

    dense_calls = []
    real = lie._dense_jacobi
    monkeypatch.setattr(lie, "_dense_jacobi", lambda g: dense_calls.append(g) or real(g))
    non_lie = {True: 0, False: 0}  # by whether the dense kernel ran
    for c in _perturbed_and_random_tensors(rng):
        g = LieAlgebra.from_tensor(c)
        ran = len(dense_calls)
        _assert_jacobi_matches_reference(g)
        dense = len(dense_calls) > ran
        if _cyclic_jacobi(g.tensor) > 1e-12 * g.max_structure_constant ** 2:
            assert validate_jacobi(g) > 1e-3
            non_lie[dense] += 1
    assert non_lie[True] > 0 and non_lie[False] > 0


def test_validate_jacobi_memory_on_sl8():
    import tracemalloc

    g = catalog("sl_killing", n=8).algebra
    tracemalloc.start()
    try:
        res = validate_jacobi(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res == 0.0
    assert peak < 2 * g.dim ** 3 * 8


def test_validate_jacobi_dims_zero_and_one():
    for dim in (0, 1):
        g = LieAlgebra(dim, {})
        assert validate_jacobi(g) == _cyclic_jacobi(g.tensor) == 0.0


def test_jacobi_residual_is_computed_once(monkeypatch):
    from liemetric import lie

    calls = []
    real = lie.validate_jacobi
    monkeypatch.setattr(lie, "validate_jacobi", lambda g: calls.append(g) or real(g))
    g = make_sl2().validate()
    assert g.jacobi_residual == 0.0
    g.validate()
    assert len(calls) == 1


@pytest.mark.parametrize("n", [7, 10, 24])
def test_heisenberg_nilpotent_of_step_two(n):
    rep = structure_report(make_heisenberg(n).validate())
    assert rep.is_nilpotent and rep.nilpotency_step == 2
    assert rep.is_solvable
    assert rep.center_dim == rep.derived_dim == 1


def _in_random_basis(g: LieAlgebra, rng) -> LieAlgebra:
    return change_basis(MetricLieAlgebra(g.validate(), np.eye(g.dim)), random_invertible(rng, g.dim)).algebra


def _almost_abelian(rng, dim):
    c = np.zeros((dim, dim, dim))
    c[0, 1:, 1:] = rng.normal(size=(dim - 1, dim - 1)).T  # [e_0, e_j] = A e_j
    return LieAlgebra.from_tensor(c - c.transpose(1, 0, 2))


def _two_step_nilpotent(rng, nv, ncen):
    dim = nv + ncen
    c = np.zeros((dim, dim, dim))
    c[:nv, :nv, nv:] = rng.normal(size=(nv, nv, ncen))  # [v_i, v_j] in the center
    return LieAlgebra.from_tensor(c - c.transpose(1, 0, 2))


@pytest.mark.parametrize("family, expected", [
    ("affine", dict(is_nilpotent=False, is_solvable=True, derived_dim=1, center_dim=0, nilpotency_step=None)),
    ("almost_abelian", dict(is_nilpotent=False, is_solvable=True, derived_dim=5, center_dim=0,
                            nilpotency_step=None)),
    ("two_step", dict(is_nilpotent=True, is_solvable=True, derived_dim=3, center_dim=3, nilpotency_step=2)),
])
def test_structure_report_in_random_basis(family, expected):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = {"affine": lambda: make_affine(),
             "almost_abelian": lambda: _almost_abelian(rng, 6),
             "two_step": lambda: _two_step_nilpotent(rng, 4, 3)}[family]()
        rep = structure_report(_in_random_basis(g, rng))
        assert {key: getattr(rep, key) for key in expected} == expected, seed


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_sl2_plus_abelian_is_not_solvable(k, rng):
    g = direct_sum(make_sl2(), LieAlgebra(k, {}))
    for h in (g.validate(), _in_random_basis(g, rng)):
        rep = structure_report(h)
        assert not rep.is_solvable and not rep.is_nilpotent
        assert rep.derived_dim == 3 and rep.center_dim == k


def test_jacobi_bound_scales_with_the_square_of_the_brackets():
    # sl(2) scaled by 1e3: C = 2e3, so the bound is tol.threshold(4e6) = 4e-3
    c = 1e3 * make_sl2().tensor
    g = LieAlgebra.from_tensor(c).validate()
    assert g.jacobi_residual <= 1e-9 * g.max_structure_constant ** 2
    c[0, 1, 0] += 0.0025  # [E, F] gains an E-component
    c[1, 0, 0] -= 0.0025
    bad = LieAlgebra.from_tensor(c)
    assert bad.jacobi_residual == pytest.approx(5.0)
    with pytest.raises(JacobiError):
        bad.validate()


def test_structure_report_dims_zero_and_one():
    assert structure_report(LieAlgebra(0, {})) == StructureReport(True, True, True, 0, 0, 1)
    assert structure_report(LieAlgebra(1, {})) == StructureReport(True, True, True, 1, 0, 1)


def _center_dim_own_cut(g: LieAlgebra) -> int:
    """The center's dimension under a cut relative to the largest singular value of x -> ad(x)."""
    svals = np.linalg.svd(g.tensor.transpose(1, 2, 0).reshape(g.dim ** 2, g.dim), compute_uv=False)
    rank = int(np.count_nonzero(svals > 1e-8 * svals[0])) if svals.size and svals[0] > 0 else 0
    return g.dim - rank


def test_center_cut_agrees_with_own_largest_singular_value_cut():
    # the center takes the series' cut, tol.rank * max|C|; on these algebras it finds what a cut
    # relative to the map's own largest singular value finds, including dim 0 and abelian ones
    rng = np.random.default_rng(2024)
    algebras = [LieAlgebra(0, {}), LieAlgebra(1, {}), LieAlgebra(4, {})]
    for _ in range(60):
        g = random_lie_algebra(rng, int(rng.integers(1, 9))).validate()
        algebras += [g, _in_random_basis(g, rng)]
    for g in algebras:
        assert structure_report(g).center_dim == _center_dim_own_cut(g), g
