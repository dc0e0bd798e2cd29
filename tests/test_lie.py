import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liemetric import (
    LieAlgebra,
    MetricLieAlgebra,
    StructureReport,
    catalog,
    change_basis,
    connection,
    direct_sum,
    is_ad_invariant,
    is_ricci_parallel,
    killing_form,
    nabla_ric,
    operator_residual,
    ricci,
    ricci_structural,
    structure_report,
    trace_functional,
    validate_jacobi,
)
from liemetric import lie
from liemetric.errors import BadParamsError, DimensionMismatchError, JacobiError
from liemetric.linalg import DEFAULT_TOL
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


def test_from_tensor_and_basis_names_check_their_shapes():
    with pytest.raises(DimensionMismatchError, match="must be cubic"):
        LieAlgebra.from_tensor(np.zeros((2, 2, 3)))
    with pytest.raises(DimensionMismatchError, match="basis_names length"):
        LieAlgebra(2, {}, basis_names=["x"])


def test_lie_algebra_and_from_tensor_reject_dimension_above_max_dim_before_allocating(monkeypatch):
    tensor = np.zeros((24, 24, 24))
    monkeypatch.setattr(lie, "MAX_DIM", 8)
    builds = {"LieAlgebra": lambda: LieAlgebra(24, {(0, 1): np.ones(24)}),
              "from_tensor": lambda: LieAlgebra.from_tensor(tensor)}
    for name, build in builds.items():
        tracemalloc.start()
        try:
            with pytest.raises(BadParamsError, match=f"^{name}: the result would have dimension 24, above the limit 8$"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tensor.nbytes // 4, (name, peak)
    assert LieAlgebra(8).dim == LieAlgebra.from_tensor(np.zeros((8, 8, 8))).dim == 8


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


def _dense_rows_report(g: LieAlgebra) -> StructureReport:
    """structure_report with every rank taken over the full (dim^2, dim) stacks, zero rows included."""
    from liemetric.lie import _series_length

    dim, cut = g.dim, 1e-8 * g.max_structure_constant

    def span(prods):
        _, svals, vt = np.linalg.svd(prods, full_matrices=False)
        return vt[:int(np.count_nonzero(svals > cut))]

    def bracket(a, b):
        left = (a @ g.tensor.reshape(dim, dim * dim)).reshape(a.shape[0], dim, dim)
        return span((b @ left).reshape(a.shape[0] * b.shape[0], dim))

    derived = span(g.tensor.reshape(dim * dim, dim))
    step = _series_length(g, derived, lambda t: span((t @ g.tensor).reshape(dim * t.shape[0], dim)))
    svals = np.linalg.svd(g.tensor.transpose(1, 2, 0).reshape(dim * dim, dim), compute_uv=False)
    return StructureReport(
        is_nilpotent=step is not None,
        is_solvable=_series_length(g, derived, lambda t: bracket(t, t)) is not None,
        is_unimodular=structure_report(g).is_unimodular,  # no rank involved
        center_dim=dim - int(np.count_nonzero(svals > cut)),
        derived_dim=int(derived.shape[0]),
        nilpotency_step=step,
    )


# catalog entries up to dim 65; the ones marked True are also taken in other bases
_ROW_CASES = (
    [("heisenberg", {"n": n}, n in (1, 2, 5, 11, 32)) for n in range(1, 33)]
    + [("einstein_solvable", {"n": n}, n in (1, 2, 5, 11, 23)) for n in range(1, 32)]
    + [("sl_killing", {"n": n}, n in (2, 3, 4, 7)) for n in range(2, 9)]
    + [("sl_complex_typeI", {"n": n, "lam": 1.0, "mu": 2.0}, n < 5) for n in range(2, 6)]
    + [("affine_plane", {}, True)]
    + [("abelian", {"p": p, "q": 3 - p}, True) for p in range(4)]
    + [("double_ext_demo", {"kind": kind, "dim": d}, d < 12) for kind in ("solvable", "nilpotent")
       for d in (2, 4, 7, 12)]
)


def _row_corpus():
    rng = np.random.default_rng(15)
    for name, params, rebased in _ROW_CASES:
        m = catalog(name, **params)
        yield m.algebra
        if rebased:
            d = m.algebra.dim
            yield change_basis(m, random_invertible(rng, d)).algebra
            yield change_basis(m, np.diag(np.geomspace(1.0, 1e3, d))).algebra
    yield from (LieAlgebra(d, {}) for d in range(6))
    for d in range(2, 10):
        g = _almost_abelian(rng, d)
        yield g
        yield _in_random_basis(g, rng)
    for name, params in (("sl_killing", {"n": 3}), ("heisenberg", {"n": 4}), ("einstein_solvable", {"n": 3})):
        for s in (1e-6, 1e6):
            g = catalog(name, **params).algebra
            yield LieAlgebra.from_tensor(s * g.tensor)
            yield LieAlgebra.from_tensor(s * _in_random_basis(g, rng).tensor)


def test_structure_report_matches_dense_rows():
    # dropping the all-zero rows of a stack leaves its singular values, so every field is the same
    count = 0
    for g in _row_corpus():
        assert structure_report(g) == _dense_rows_report(g), g
        count += 1
    assert count > 150


@pytest.mark.parametrize("g", [
    catalog("sl_killing", n=7).algebra,
    catalog("heisenberg", n=32).algebra,
    change_basis(catalog("sl_killing", n=7), random_invertible(np.random.default_rng(26), 48)).algebra,
    LieAlgebra(0, {}),
    LieAlgebra(1, {}),
], ids=["sl7", "h32", "sl7-random", "dim0", "dim1"])
def test_structure_report_factors_only_nonzero_rows(monkeypatch, g):
    # every factorisation of structure_report (the QRs of a stack's row blocks, then an SVD) sees nonzero rows
    # of its stack, at most one QR block of them; the blocked geometry kernels take dims 0 and 1 too
    operands = []

    def recording(factor):
        def factored(a, *args, **kwargs):
            operands.append(np.asarray(a))
            return factor(a, *args, **kwargs)
        return factored

    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
    structure_report(g)
    assert operands
    assert all(np.all(np.any(a, axis=1)) for a in operands)
    assert max(a.shape[0] for a in operands) <= max(lie._QR_ROWS, 2 * g.dim)
    if g.dim < 2:
        m = MetricLieAlgebra(g, np.eye(g.dim))
        assert connection(m).shape == nabla_ric(m).shape == (g.dim,) * 3
        assert ricci(m).tensor.shape == ricci_structural(m).shape == (g.dim, g.dim)
        assert is_ricci_parallel(m).residual == is_ad_invariant(m)[1] == 0.0


def _loop_jacobi(g: LieAlgebra) -> float:
    """Reference: the homomorphism defect ad([e_i, e_j]) - [ad e_i, ad e_j] for j > i, one index i at a time."""
    n = g.dim
    ads = g.ad_basis
    flat = ads.reshape(n, n * n)
    res = 0.0
    for i in range(n):
        rest = ads[i + 1:]
        lhs = (g.tensor[i, i + 1:] @ flat).reshape(n - i - 1, n, n)  # ad([e_i, e_j]) for every j > i
        res = max(res, operator_residual(lhs - (ads[i] @ rest - rest @ ads[i])))
    return res


def _dense_kernel_cases():
    """Random-basis Lie algebras, non-Lie antisymmetric tensors, catalog entries in their own and a random basis."""
    rng = np.random.default_rng(77)
    for dim in list(range(1, 21)) + [48, 48, 65, 65]:
        yield _in_random_basis(random_lie_algebra(rng, dim), rng)
    for dim in range(3, 13):
        c = rng.normal(size=(dim, dim, dim))
        yield LieAlgebra.from_tensor(c - c.transpose(1, 0, 2))
    for name, params in CATALOG_CASES + [("sl_killing", {"n": 7})]:
        m = catalog(name, **params)
        yield m.algebra
        yield change_basis(m, random_invertible(rng, m.dim)).algebra


def test_dense_jacobi_matches_the_per_index_loop():
    from liemetric import lie

    # the kernels sum each component in another order; their residuals agree to a few ulps of the terms' scale
    non_lie = 0
    for g in _dense_kernel_cases():
        new, ref = lie._dense_jacobi(g), _loop_jacobi(g)
        assert abs(new - ref) <= 4 * np.finfo(float).eps * max(ref, g.max_structure_constant ** 2), g
        passes = [DEFAULT_TOL.passes(r, "jacobi", (g.exponent, 0)) for r in (new, ref)]
        assert passes[0] == passes[1], g
        non_lie += not passes[0]
    assert non_lie == 10


def test_dense_jacobi_working_set_at_dim_64():
    import tracemalloc

    from liemetric import lie

    c = np.random.default_rng(64).normal(size=(64, 64, 64))
    g = LieAlgebra.from_tensor(c - c.transpose(1, 0, 2))
    lie._dense_jacobi(g)  # the pair positions of dim 64 are cached after the first call
    tracemalloc.start()
    try:
        res = lie._dense_jacobi(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res > 1.0
    assert peak < 3 * 64 ** 3 * 8  # a dim^4 array would be 64 times that


def _bracket_free_algebras():
    """Algebras whose every product C[a, b, m] C[m, k, l] is zero: abelian bases and two-step nilpotent ones."""
    from liemetric import classify, constructions

    from sampling import random_abelian_extension_spec

    rng = np.random.default_rng(171)
    for p, q in ((0, 1), (1, 2), (3, 3)):
        yield catalog("abelian", p=p, q=q).algebra
    for n in range(1, 33):
        yield catalog("heisenberg", n=n).algebra
    for dim in (1, 2, 4, 6):
        spec = random_abelian_extension_spec(rng, dim)
        yield spec.base.algebra
        decomposed = classify.decompose_double_extension(constructions.double_extension(spec))
        assert not len(decomposed.spec.base.algebra.bracket_pairs[0])
        yield decomposed.spec.base.algebra


def test_validate_jacobi_runs_no_kernel_without_products(monkeypatch):
    from liemetric import lie

    def fail(*args):
        raise AssertionError("a Jacobi kernel ran")

    algebras = list(_bracket_free_algebras())
    monkeypatch.setattr(lie, "_dense_jacobi", fail)
    monkeypatch.setattr(lie, "_sparse_jacobi", fail)
    for g in algebras:
        assert validate_jacobi(g) == 0.0, g


def _complete(upper: np.ndarray) -> np.ndarray:
    """Reference: the antisymmetric tensor of the strict upper triangle, its nonzero rows found by a dim^3 scan."""
    dim = upper.shape[0]
    i, j = np.nonzero(np.triu(np.any(upper != 0.0, axis=2), 1))
    rows = upper[i, j]
    c = np.zeros((dim, dim, dim))
    c[i, j] = rows
    c[j, i] = -rows
    return c


def _dense_scan_jacobi(c: np.ndarray, dense_kernel) -> tuple[float, bool]:
    """Reference: validate_jacobi with its kernel choice and sparse entries read off dim^3 scans of ``c``.

    Returns the residual and whether the dense kernel ran.
    """
    dim = c.shape[0]
    nonzero = c != 0.0
    row_nnz = np.count_nonzero(nonzero, axis=(1, 2))
    upper_nnz = np.count_nonzero(nonzero, axis=(0, 1)) // 2
    count = int(upper_nnz @ row_nnz)
    if 8 * count > dim ** 3:
        return dense_kernel(), True
    i, j, k = np.nonzero(c)
    vals = c[i, j, k]
    row_start = np.cumsum(row_nnz) - row_nnz
    left = np.flatnonzero(i < j)
    reps = row_nnz[k[left]]
    first = np.cumsum(reps) - reps
    lhs = np.repeat(left, reps)
    rhs = np.repeat(row_start[k[left]] - first, reps) + np.arange(count)
    a, b, kk, l = i[lhs], j[lhs], j[rhs], k[rhs]
    keep = (kk != a) & (kk != b)
    a, b, kk, l = a[keep], b[keep], kk[keep], l[keep]
    prods = vals[lhs[keep]] * vals[rhs[keep]]
    prods[(a < kk) & (kk < b)] *= -1.0
    lo, hi = np.minimum(a, kk), np.maximum(b, kk)
    key = ((lo * dim + (a + b + kk - lo - hi)) * dim + hi) * dim + l
    _, slot = np.unique(key, return_inverse=True)
    return operator_residual(np.bincount(slot, weights=prods)), False


class _Kernels:
    """Records which Jacobi kernel each validate_jacobi call runs."""

    def __init__(self, monkeypatch):
        from liemetric import lie

        self.dense_kernel, self.dense_calls = lie._dense_jacobi, 0
        monkeypatch.setattr(lie, "_dense_jacobi", self._dense)

    def _dense(self, g):
        self.dense_calls += 1
        return self.dense_kernel(g)

    def assert_matches_completed(self, g: LieAlgebra, upper: np.ndarray, signs: np.ndarray | None = None):
        """g's tensor is that of ``upper``'s triangle; same Jacobi residual and kernel.

        Its zeros have the signs of those of ``signs``, by default of the completed triangle.
        """
        ref = _complete(upper)
        signs = ref if signs is None else signs
        assert np.array_equal(g.tensor, ref) and np.array_equal(np.signbit(g.tensor), np.signbit(signs)), g
        assert g.max_structure_constant == operator_residual(ref)
        i, j = g.bracket_pairs
        assert np.array_equal(np.stack(g.bracket_pairs), np.nonzero(np.triu(np.any(ref != 0.0, axis=2), 1)))
        assert not (i.flags.writeable or j.flags.writeable)
        calls = self.dense_calls
        residual = validate_jacobi(g)
        assert (residual, self.dense_calls > calls) == _dense_scan_jacobi(ref, lambda: self.dense_kernel(g)), g


def _signed_zero_structures():
    """Bracket rows with explicit 0.0 and -0.0 in zero and nonzero rows, and int values."""
    yield 1, {}
    yield 2, {(0, 1): [-0.0, -0.0]}
    yield 3, {(0, 1): [0, 0, 1], (0, 2): [0.0, -0.0, -0.0], (1, 2): [-0.0, 2.5, 0.0]}
    yield 4, {(2, 3): [-0.0, 0.0, 1.0, -0.0], (0, 1): [0.0] * 4, (1, 3): [3, -0.0, 0, 0]}


def test_dict_and_tensor_constructors_match_the_completed_triangle(monkeypatch):
    kernels = _Kernels(monkeypatch)
    for dim, structure in _signed_zero_structures():
        upper = np.zeros((dim, dim, dim))
        for (i, j), row in structure.items():
            upper[i, j] = row
        kernels.assert_matches_completed(LieAlgebra(dim, structure), upper)
        kernels.assert_matches_completed(LieAlgebra._from_upper(upper), upper)
    c = np.array(make_sl2().tensor)
    c[1, 0, 2] += 1e-13  # noise below the antisymmetry cutoff, in the lower triangle
    c[0, 2, 1] = -0.0
    kernels.assert_matches_completed(LieAlgebra.from_tensor(c), c)


def test_loaded_tensors_match_the_completed_triangle(tmp_path, monkeypatch):
    from liemetric import cli

    kernels = _Kernels(monkeypatch)
    docs = [
        {"dim": 1, "brackets": []},
        {"dim": 1, "brackets": [], "basis_names": ["x"]},
        {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"0": 1}}, {"i": 0, "j": 2, "coeffs": {"1": -1.0}},
                                {"i": 0, "j": 1, "coeffs": {"02": 1, "0": -0.0, "1": 0.0}}]},
        {"dim": 4, "brackets": [{"i": 0, "j": 1, "coeffs": {"3": -0.0}}, {"i": 0, "j": 2},
                                {"i": 1, "j": 3, "coeffs": {}}, {"i": 2, "j": 3, "coeffs": {"0": 0}}]},
    ]
    rng = np.random.default_rng(16)
    for name, params in CATALOG_CASES + [("sl_killing", {"n": 7}), ("einstein_solvable", {"n": 23})]:
        m = catalog(name, **params)
        docs.append(cli.algebra_to_dict(m))
        docs.append(cli.algebra_to_dict(change_basis(m, random_invertible(rng, m.dim))))
    for n, doc in enumerate(docs):
        doc.setdefault("metric", np.eye(doc["dim"]).tolist())
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        dim = doc["dim"]
        upper = np.zeros((dim, dim, dim))
        for rec in doc["brackets"]:
            for key, val in rec.get("coeffs", {}).items():
                upper[rec["i"], rec["j"], int(key)] = val
        kernels.assert_matches_completed(cli.load_algebra_file(path, DEFAULT_TOL).algebra, upper)
    assert kernels.dense_calls > 0


def test_constructions_match_the_completed_triangle(monkeypatch):
    from liemetric import constructions

    from sampling import (random_abelian_extension_spec, random_general_extension_spec,
                          random_nilpotent_extension_spec)

    built = []
    adopt = LieAlgebra._adopt

    def recording(g, c, basis_names):
        built.append((g, np.array(c)))
        return adopt(g, c, basis_names)

    monkeypatch.setattr(LieAlgebra, "_adopt", recording)
    rng = np.random.default_rng(17)
    for name, params, rebased in _ROW_CASES:
        m = catalog(name, **params)
        if rebased and m.dim <= 12:
            change_basis(m, random_invertible(rng, m.dim))
    for dim in (2, 4):
        constructions.double_extension(random_abelian_extension_spec(rng, dim))
        constructions.double_extension(random_nilpotent_extension_spec(rng, dim + 1))
    for _ in range(4):
        constructions.double_extension(random_general_extension_spec(rng))
    for n in (1, 2):
        h = catalog("heisenberg", n=n).algebra
        constructions.central_extension_metric(h)
        constructions.bordemann_cotangent(h)
    sl2 = catalog("sl_killing", n=2)
    constructions.complexify(sl2)
    constructions.type_I_metric(sl2, 1.0, 2.0)
    direct_sum(make_sl2(), make_heisenberg(1))

    kernels = _Kernels(monkeypatch)
    for g, adopted in built:  # the core keeps each tensor as given, which completes its own upper triangle
        kernels.assert_matches_completed(g, adopted, signs=adopted)
    assert len(built) > 150 and kernels.dense_calls > 0


def _dict_built(rng, tmp_path):
    yield from (LieAlgebra(dim, structure) for dim, structure in _signed_zero_structures())
    yield from (make_sl2(), make_heisenberg(2), random_lie_algebra(rng, 6))


def _file_loaded(rng, tmp_path):
    from liemetric import cli

    docs = [{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"0": 1}}, {"i": 0, "j": 1, "coeffs": {"2": -0.0}}]}]
    docs += [cli.algebra_to_dict(catalog(name, **params)) for name, params in CATALOG_CASES]
    for n, doc in enumerate(docs):
        doc.setdefault("metric", np.eye(doc["dim"]).tolist())
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        yield cli.load_algebra_file(path, DEFAULT_TOL).algebra


def _tensor_built(rng, tmp_path):
    c = np.array(make_sl2().tensor)
    c[1, 0, 2] += 1e-13
    c[0, 2, 1] = -0.0
    yield LieAlgebra.from_tensor(c)
    c = rng.normal(size=(5, 5, 5))
    yield LieAlgebra.from_tensor(c - c.transpose(1, 0, 2))


def _direct_sums(rng, tmp_path):
    yield direct_sum(make_sl2(), make_heisenberg(1))
    m = catalog("einstein_solvable", n=1)
    yield direct_sum(change_basis(m, random_invertible(rng, m.dim)).algebra, make_affine())


def _constructed(rng, tmp_path):
    from liemetric import constructions

    from sampling import (random_abelian_extension_spec, random_general_extension_spec,
                          random_nilpotent_extension_spec)

    specs = [random_abelian_extension_spec(rng, 3), random_nilpotent_extension_spec(rng, 4),
             random_general_extension_spec(rng)]
    sl2, h = catalog("sl_killing", n=2), catalog("heisenberg", n=2).algebra
    built = [constructions.double_extension(spec) for spec in specs]
    built += [constructions.complexify(sl2)[0], constructions.type_I_metric(sl2, 1.0, 2.0),
              constructions.central_extension_metric(h), constructions.bordemann_cotangent(h),
              constructions.two_step_parallel(2, (0, 2), [np.array([[0.0, 1.0], [-1.0, 0.0]])])]
    built += [catalog(name, **params) for name, params in CATALOG_CASES]
    return (m.algebra for m in built)


def _rebased(rng, tmp_path):
    for name, params in CATALOG_CASES:
        m = catalog(name, **params)
        yield change_basis(m, random_invertible(rng, m.dim)).algebra


def _frames(rng, tmp_path):
    from liemetric.geometry import frame

    for name, params in CATALOG_CASES:
        m = catalog(name, **params)
        yield frame(change_basis(m, random_invertible(rng, m.dim)))[0].algebra


@pytest.mark.parametrize("build", [_dict_built, _file_loaded, _tensor_built, _direct_sums, _constructed, _rebased,
                                   _frames], ids=lambda build: build.__name__.strip("_"))
def test_every_entry_point_hands_the_core_an_antisymmetric_tensor(build, tmp_path):
    """The tensor is read-only and antisymmetric, and the pair index lists its nonzero upper rows in row-major order."""
    for g in build(np.random.default_rng(22), tmp_path):
        c = g.tensor
        assert not c.flags.writeable
        assert np.array_equal(c, -c.transpose(1, 0, 2))
        rows = [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim) if np.any(c[i, j] != 0.0)]
        assert list(zip(*map(np.ndarray.tolist, g.bracket_pairs))) == rows
