import numpy as np
import pytest
from numpy.testing import assert_allclose

from liemetric import (
    DoubleExtensionSpec,
    LieAlgebra,
    MetricLieAlgebra,
    catalog,
    change_basis,
    check_parallel_conditions,
    classify_ricci,
    connection,
    connection_matrices,
    curvature,
    direct_sum,
    is_ad_invariant,
    is_einstein,
    is_ricci_flat,
    is_ricci_parallel,
    killing_form,
    metric_adjoint,
    nabla_ric,
    ricci,
    ricci_structural,
    trace_functional,
    u_map,
    validate_jacobi,
    verify_isometry,
)
from liemetric.errors import DimensionMismatchError, JacobiError
from liemetric.linalg import DEFAULT_TOL, DEGREES, Tolerance, exponent, pseudo_orthonormal_basis
from sampling import random_invertible, random_metric_lie_algebra

from conftest import CATALOG_CASES, make_affine


@pytest.fixture
def affine():
    return catalog("affine_plane")


@pytest.fixture
def h1():
    return catalog("heisenberg", n=1)


@pytest.fixture
def sl2k():
    return catalog("sl_killing", n=2)


@pytest.fixture
def abelian3():
    return catalog("abelian", p=0, q=3)


def random_suite(rng, count=20):
    out = []
    for _ in range(count):
        dim = int(rng.integers(2, 7))
        p = int(rng.integers(0, min(3, dim + 1)))
        out.append(random_metric_lie_algebra(rng, dim, (p, dim - p)))
    return out


def test_u_map_affine(affine):
    assert_allclose(u_map(affine, [0, 1], [0, 1]), [1.0, 0.0], atol=1e-15)


def test_u_map_vanishes_ad_invariant(sl2k, rng):
    for _ in range(5):
        x, y = rng.normal(size=(2, 3))
        assert_allclose(u_map(sl2k, x, y), np.zeros(3), atol=1e-12)


def test_u_map_vanishes_abelian(abelian3, rng):
    x, y = rng.normal(size=(2, 3))
    assert_allclose(u_map(abelian3, x, y), np.zeros(3), atol=1e-15)


def test_u_map_symmetric(rng):
    for m in random_suite(rng, 5):
        x, y = rng.normal(size=(2, m.dim))
        assert_allclose(u_map(m, x, y), u_map(m, y, x), atol=1e-10)


def test_connection_affine_values(affine):
    n = connection(affine)
    assert_allclose(n[1, 1], [1.0, 0.0], atol=1e-15)   # nabla_{e2} e2 = e1
    assert_allclose(n[1, 0], [0.0, -1.0], atol=1e-15)  # nabla_{e2} e1 = -e2
    assert_allclose(n[0, 0], [0.0, 0.0], atol=1e-15)
    assert_allclose(n[0, 1], [0.0, 0.0], atol=1e-15)


def test_connection_ad_invariant_is_half_bracket(sl2k):
    assert_allclose(connection(sl2k), 0.5 * sl2k.algebra.tensor, atol=1e-13)


def test_connection_abelian_zero(abelian3):
    assert_allclose(connection(abelian3), np.zeros((3, 3, 3)))


def test_connection_torsion_free_and_metric_compatible(rng):
    for m in random_suite(rng, 10):
        n = connection(m)
        c = m.algebra.tensor
        scale = m.residual_scale()
        torsion = n - n.transpose(1, 0, 2) - c
        assert np.max(np.abs(torsion)) < 1e-10 * scale
        # <nabla_i e_j, e_k> + <e_j, nabla_i e_k> = 0
        low = np.einsum("ijm,mk->ijk", n, m.gram)
        assert np.max(np.abs(low + low.transpose(0, 2, 1))) < 1e-10 * scale


def test_curvature_affine(affine):
    riem = curvature(affine)
    assert_allclose(riem[0, 1, 1], [-1.0, 0.0], atol=1e-15)  # R(e1,e2)e2 = -e1


def test_curvature_ad_invariant_quarter_double_bracket(sl2k, rng):
    riem = curvature(sl2k)
    c = sl2k.algebra.tensor
    expected = -0.25 * np.einsum("ijm,mkl->ijkl", c, c)
    assert_allclose(riem, expected, atol=1e-12)


def test_curvature_abelian_zero(abelian3):
    assert_allclose(curvature(abelian3), np.zeros((3, 3, 3, 3)))


def test_curvature_symmetries_and_bianchi(rng):
    for m in random_suite(rng, 10):
        riem = curvature(m)
        scale = max(1.0, np.max(np.abs(riem)))
        assert np.max(np.abs(riem + riem.transpose(1, 0, 2, 3))) < 1e-10 * scale
        low = np.einsum("ijkl,lm->ijkm", riem, m.gram)
        assert np.max(np.abs(low + low.transpose(0, 1, 3, 2))) < 1e-9 * scale
        bianchi = riem + riem.transpose(1, 2, 0, 3) + riem.transpose(2, 0, 1, 3)
        assert np.max(np.abs(bianchi)) < 1e-9 * scale


def test_ricci_heisenberg(h1):
    assert_allclose(ricci(h1).operator, np.diag([-1 / 3, -1 / 3, 1 / 3]), atol=1e-14)


def test_ricci_affine_einstein(affine):
    data = ricci(affine)
    assert_allclose(data.tensor, -affine.gram, atol=1e-15)
    c, res = is_einstein(affine)
    assert c == pytest.approx(-1.0, abs=1e-12)
    assert res < 1e-12


def test_ricci_abelian(abelian3):
    data = ricci(abelian3)
    assert_allclose(data.tensor, np.zeros((3, 3)))
    assert_allclose(data.mean_curvature, np.zeros(3))


def test_ricci_operator_contracts(rng):
    for m in random_suite(rng, 10):
        data = ricci(m)
        scale = m.residual_scale()
        assert np.max(np.abs(m.gram @ data.operator - data.tensor)) < 1e-10 * scale
        assert np.max(np.abs(metric_adjoint(data.operator, m.metric) - data.operator)) < 1e-9 * scale
        assert data.scalar == pytest.approx(np.trace(data.operator))


def test_ricci_structural_heisenberg(h1):
    assert_allclose(ricci_structural(h1), np.diag([-1 / 3, -1 / 3, 1 / 3]), atol=1e-14)


def test_ricci_structural_sl2_killing(sl2k):
    # ad-invariant metric: ric = -K/4 and the metric here is K itself
    assert_allclose(ricci_structural(sl2k), -0.25 * sl2k.gram, atol=1e-12)
    assert_allclose(ricci_structural(sl2k), -0.25 * killing_form(sl2k.algebra), atol=1e-12)


def test_ricci_structural_abelian_any_metric(rng):
    gram = np.diag([-2.0, 3.0, 1.0, 5.0])
    m = MetricLieAlgebra(LieAlgebra(4, {}), gram)
    assert_allclose(ricci_structural(m), np.zeros((4, 4)))


def test_oracle_equivalence(rng):
    # the module's central property: two independent Ricci routes agree
    for m in random_suite(rng, 30):
        res = np.max(np.abs(ricci(m).tensor - ricci_structural(m)))
        assert res < 1e-9 * m.residual_scale()


def test_nabla_ric_einstein_zero(affine):
    assert_allclose(nabla_ric(affine), np.zeros((2, 2, 2)), atol=1e-14)


def test_nabla_ric_ad_invariant_zero(sl2k):
    assert_allclose(nabla_ric(sl2k), np.zeros((3, 3, 3)), atol=1e-12)


def test_nabla_ric_product_with_flat_line():
    g = direct_sum(make_affine(), LieAlgebra(1, {}))
    m = MetricLieAlgebra(g, np.eye(3))
    assert_allclose(ricci(m).tensor, np.diag([-1.0, -1.0, 0.0]), atol=1e-14)
    assert_allclose(nabla_ric(m), np.zeros((3, 3, 3)), atol=1e-14)


def test_nabla_ric_symmetric_last_two(rng):
    for m in random_suite(rng, 5):
        arr = nabla_ric(m)
        assert_allclose(arr, arr.transpose(0, 2, 1), atol=1e-10 * m.residual_scale())


def test_is_ricci_parallel_cases(sl2k, h1, affine):
    assert is_ricci_parallel(sl2k).ok
    check = is_ricci_parallel(h1)
    assert not check.ok and check.commutator_residual > 1e-3
    assert is_ricci_parallel(affine).ok


def test_is_einstein_cases(h1, abelian3):
    c, _ = is_einstein(h1)
    assert c is None
    c, _ = is_einstein(abelian3)
    assert c == pytest.approx(0.0)
    flat, _ = is_ricci_flat(abelian3)
    assert flat


def test_is_ad_invariant_cases(sl2k, h1, abelian3):
    assert is_ad_invariant(sl2k)[0]
    ok, res = is_ad_invariant(h1)
    assert not ok and res > 0.1
    assert is_ad_invariant(abelian3)[0]


def test_ad_invariant_specializations(sl2k):
    # ad-invariance forces nabla = ad/2 and ric = -K/4
    assert np.max(np.abs(connection(sl2k) - 0.5 * sl2k.algebra.tensor)) < 1e-12
    assert np.max(np.abs(ricci(sl2k).tensor + 0.25 * killing_form(sl2k.algebra))) < 1e-12


def test_parallel_verdict_in_unequal_scales_needs_the_commutator():
    # |nabla ric| ~ 0.12 in the sampled basis.  Under diag(geomspace(1, 1e3, 5)), max|C| grows to 1.5e5
    # (k_C = 17), so the nabla_ric residual of 1.6e6 passes its own degree-(3, 0) bound; the commutator
    # [Ric, nabla_i], judged at (3, -1), is what keeps the verdict False
    m = random_metric_lie_algebra(np.random.default_rng(2935), 5)
    assert not is_ricci_parallel(m).ok
    m = change_basis(m, np.diag(np.geomspace(1.0, 1e3, 5)))
    check = is_ricci_parallel(m)
    assert DEFAULT_TOL.passes(check.nabla_residual, "nabla_ric", m.exponents)
    assert not check.ok


def test_einstein_implies_parallel(rng):
    for m in random_suite(rng, 20):
        c, _ = is_einstein(m)
        if c is not None:
            assert is_ricci_parallel(m).ok


def test_verify_isometry_identity(affine):
    assert verify_isometry(np.eye(2), affine, affine).ok


def test_verify_isometry_permutation_of_abelian(abelian3):
    perm = np.eye(3)[[2, 0, 1]]
    assert verify_isometry(perm, abelian3, abelian3).ok


def test_verify_isometry_scaling_fails(affine):
    check = verify_isometry(2.0 * np.eye(2), affine, affine)
    assert not check.ok
    assert check.metric_residual == pytest.approx(3.0)  # |G - 4G| on the diagonal


@pytest.mark.parametrize("s", [1e-9, 1e-3, 1.0, 1e3, 1e9])
def test_verify_isometry_invertibility_cut_is_unit_free(s):
    # s * Id maps sl(3) onto its copy with brackets C / s and metric g / s^2
    m = catalog("sl_killing", n=3)
    algebra = LieAlgebra.from_tensor(m.algebra.tensor / s).validate(m.tol)
    copy = MetricLieAlgebra(algebra, m.gram / s ** 2, m.tol)
    check = verify_isometry(s * np.eye(m.dim), m, copy)
    assert check.invertible and check.ok
    zero = verify_isometry(np.zeros((m.dim, m.dim)), m, copy)
    assert not zero.invertible and not zero.ok


def test_verify_isometry_dim_mismatch(affine, abelian3):
    with pytest.raises(DimensionMismatchError):
        verify_isometry(np.eye(3), affine, abelian3)


def test_verify_isometry_after_change_basis(rng):
    for m in random_suite(rng, 5):
        p = np.eye(m.dim) + 0.3 * rng.normal(size=(m.dim, m.dim))
        while abs(np.linalg.det(p)) < 1e-2:
            p = np.eye(m.dim) + 0.3 * rng.normal(size=(m.dim, m.dim))
        m2 = change_basis(m, p)
        assert verify_isometry(p, m2, m).ok


def test_connection_matrices_act(affine, rng):
    nm = connection_matrices(affine)
    w = rng.normal(size=2)
    assert_allclose(nm[1] @ w, w[0] * connection(affine)[1, 0] + w[1] * connection(affine)[1, 1])


def _assert_ricci_is_curvature_trace(m):
    ref = np.einsum("ijki->jk", curvature(m))
    ref = 0.5 * (ref + ref.T)
    assert np.max(np.abs(ricci(m).tensor - ref), initial=0.0) <= m.tol.threshold(m.residual_scale())


def test_ricci_matches_curvature_trace_on_random_algebras(rng):
    for dim in range(2, 13):
        for _ in range(3):
            p = int(rng.integers(0, dim + 1))
            _assert_ricci_is_curvature_trace(random_metric_lie_algebra(rng, dim, sig=(p, dim - p)))


@pytest.mark.parametrize("name, params", CATALOG_CASES)
def test_ricci_matches_curvature_trace_on_catalog(name, params):
    _assert_ricci_is_curvature_trace(catalog(name, **params))


def _scaled(m, s, t):
    """The metric algebra with brackets s*C and metric t*g."""
    return MetricLieAlgebra(LieAlgebra.from_tensor(s * m.algebra.tensor), t * m.gram)


def _random_case(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 8))
    p = int(rng.integers(0, dim + 1))
    return rng, random_metric_lie_algebra(rng, dim, (p, dim - p))


def test_ricci_is_natural_under_change_of_basis():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(hypothesis.strategies.integers(0, 2 ** 32 - 1))
    def check(seed):
        rng, m = _random_case(seed)
        p = random_invertible(rng, m.dim)
        ric = ricci(m).tensor
        expected = p.T @ ric @ p
        atol = 1e-10 * max(1.0, np.max(np.abs(ric))) * np.max(np.abs(p)) ** 2
        assert_allclose(ricci(change_basis(m, p)).tensor, expected, rtol=0, atol=atol)

    check()


def test_ricci_scales_with_the_square_of_the_brackets_and_not_with_the_metric():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    powers = st.floats(-4, 4)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, 2 ** 32 - 1), powers, powers, st.sampled_from([-1.0, 1.0]))
    def check(seed, log_s, log_t, sign):
        _, m = _random_case(seed)
        s, t = 10.0 ** log_s, sign * 10.0 ** log_t
        ric = ricci(m).tensor
        atol = 1e-12 * max(1.0, np.max(np.abs(ric)))
        assert_allclose(ricci(_scaled(m, 1.0, t)).tensor, ric, rtol=0, atol=atol)
        assert_allclose(ricci(_scaled(m, s, 1.0)).tensor, s ** 2 * ric, rtol=0, atol=s ** 2 * atol)

    check()


def _degree_sample(rng):
    """A metric algebra, matrices and double-extension data on which every table residual is nonzero."""
    # almost abelian, [e0, e_j] = A e_j, in a Lorentz metric: not unimodular, Einstein, parallel or ad-invariant
    t4 = np.zeros((4, 4, 4))
    t4[0, 1:, 1:] = rng.normal(size=(3, 3))
    form = random_invertible(rng, 4)
    m = MetricLieAlgebra(LieAlgebra.from_tensor(t4 - t4.transpose(1, 0, 2)), form.T @ np.diag([-1.0, 1, 1, 1]) @ form)
    non_lie = rng.normal(size=(4, 4, 4))
    return dict(m=m, phi=rng.normal(size=(4, 4)), j=rng.normal(size=(4, 4)),
                non_lie=non_lie - non_lie.transpose(1, 0, 2), base=random_metric_lie_algebra(rng, 4, (1, 3)),
                d=rng.normal(size=(4, 4)), k=rng.normal(size=(4, 4)), lvec=rng.normal(size=4))


def _table_residuals(x, s, t):
    """Each table entry's residual on the sample with brackets scaled by s and metrics by t.

    The double-extension data scale as a homothety of the extension that keeps <u, v> = 1:
    (s C0, t g0, s D/t, s K/t, s L/t^2).
    """
    m = _scaled(x["m"], s, t)
    op = ricci(m).operator
    unit = op / np.max(np.abs(op))
    nm = connection_matrices(m)
    iso = verify_isometry(x["phi"], m, m)
    cls = classify_ricci(m)
    par = is_ricci_parallel(m)
    spec = DoubleExtensionSpec(_scaled(x["base"], s, t), s * x["d"] / t, s * x["k"] / t, s * x["lvec"] / t ** 2)
    return {
        "bracket": iso.bracket_residual,
        "trace_ad": np.max(np.abs(trace_functional(m.algebra))),
        "connection": np.max(np.abs(x["j"] @ nm - nm @ x["j"])),
        "metric": iso.metric_residual,
        "unit_free": np.max(np.abs(unit @ unit)),
        "jacobi": validate_jacobi(LieAlgebra.from_tensor(s * x["non_lie"])),
        "ric": is_einstein(m)[1],
        "Ric": cls.residuals["einstein"],
        "nabla_ric": par.nabla_residual,
        "ric_commutator": par.commutator_residual,
        "ad_invariance": is_ad_invariant(m)[1],
        "Ric2": cls.residuals["type_II_square"],
        **spec.validate(),
        **check_parallel_conditions(spec).conditions,
    }


def test_every_degree_in_the_table_is_the_degree_of_its_residual():
    sample = _degree_sample(np.random.default_rng(2024))
    s, t = 1.7, 0.6
    before, after = _table_residuals(sample, 1.0, 1.0), _table_residuals(sample, s, t)
    assert sorted(before) == sorted(DEGREES)
    for kind, (a, b) in DEGREES.items():
        assert before[kind] > 1e-3, kind
        assert after[kind] / before[kind] == pytest.approx(s ** a * t ** b, rel=1e-9), kind


# The einsum definitions that the matmul kernels replaced, kept as references.

def _ref_killing(c):
    ads = c.transpose(0, 2, 1)
    k = np.einsum("iab,jba->ij", ads, ads)
    return 0.5 * (k + k.T)


def _ref_connection(c, g):
    b = np.einsum("ijm,mk->ijk", c, g)
    u_low = 0.5 * (b.transpose(1, 2, 0) + b.transpose(2, 1, 0))
    return 0.5 * c + np.einsum("km,ijm->ijk", np.linalg.inv(g), u_low)


def _ref_ricci(c, n):
    nm = n.transpose(0, 2, 1)
    idx = np.arange(c.shape[0])
    d = nm[idx, idx]
    terms = (np.einsum("ib,jbk->ijk", d, nm) - np.einsum("jib,ibk->ijk", nm, nm)
             - np.einsum("ijm,mik->ijk", c, nm))
    ric = np.einsum("ijk->jk", terms)
    return 0.5 * (ric + ric.T)


def _ref_ricci_structural(m):
    c, g = m.algebra.tensor, m.gram
    basis, signs = pseudo_orthonormal_basis(m.metric)
    eps = signs.astype(float)
    z = m.metric.solve(np.einsum("iaa->i", c.transpose(0, 2, 1)))
    azg = np.einsum("ijk,i->kj", c, z).T @ g
    br = np.einsum("ijk,ja->iak", c, basis)
    term3 = -0.5 * np.einsum("iak,kl,jal,a->ij", br, g, br, eps, optimize=True)
    bb = np.einsum("ijk,ia,jb->abk", c, basis, basis, optimize=True)
    p = np.einsum("abk,ki->abi", bb, g)
    term4 = 0.25 * np.einsum("abi,abj,a,b->ij", p, p, eps, eps, optimize=True)
    out = -0.5 * _ref_killing(c) - 0.5 * (azg + azg.T) + term3 + term4
    return 0.5 * (out + out.T)


def _ref_nabla_ric(n, ric):
    return -np.einsum("ijm,mk->ijk", n, ric) - np.einsum("ikm,jm->ijk", n, ric)


def _ref_commutator(op, n):
    nm = n.transpose(0, 2, 1)
    return np.einsum("ab,ibc->iac", op, nm) - np.einsum("iab,bc->iac", nm, op)


def _ref_pull_back(c, p, pinv):
    return np.einsum("abm,ai,bj,lm->ijl", c, p, p, pinv, optimize=True)


def _equivalence_cases():
    rng = np.random.default_rng(11)
    cases = [MetricLieAlgebra(LieAlgebra(0, {}), np.zeros((0, 0)))]
    for dim in range(1, 13):
        for _ in range(2):
            p = int(rng.integers(0, dim + 1))
            cases.append(random_metric_lie_algebra(rng, dim, (p, dim - p)))
    return rng, cases


def test_matmul_kernels_agree_with_their_einsum_references():
    rng, cases = _equivalence_cases()
    for m in cases:
        c, g, dim = m.algebra.tensor, m.gram, m.dim

        def agrees(new, ref, kind, exponents=m.exponents):
            assert new.shape == ref.shape, kind
            assert m.tol.passes(np.max(np.abs(new - ref), initial=0.0), kind, exponents), (dim, kind)

        n_ref = _ref_connection(c, g)
        ric_ref = _ref_ricci(c, n_ref)
        op_ref = m.metric.solve(ric_ref)
        agrees(connection(m), n_ref, "connection")
        agrees(ricci(m).tensor, ric_ref, "ric")
        agrees(ricci_structural(m), _ref_ricci_structural(m), "ric")
        agrees(nabla_ric(m), _ref_nabla_ric(n_ref, ric_ref), "nabla_ric")
        comm_res = np.max(np.abs(_ref_commutator(op_ref, n_ref)), initial=0.0)
        agrees(np.array(is_ricci_parallel(m).commutator_residual), np.array(comm_res), "ric_commutator")
        agrees(killing_form(m.algebra), _ref_killing(c), "ric")

        p = random_invertible(rng, dim) if dim else np.zeros((0, 0))
        moved = change_basis(m, p)
        ref_c = _ref_pull_back(c, p, np.linalg.inv(p))
        ref_c = 0.5 * (ref_c - ref_c.transpose(1, 0, 2))
        agrees(moved.algebra.tensor, ref_c, "bracket", moved.exponents)
        agrees(moved.gram, p.T @ g @ p, "metric", moved.exponents)

        # phi is no isometry, so the bracket residual is of order one
        phi = rng.normal(size=(dim, dim))
        iso = verify_isometry(phi, m, moved)
        lhs = np.einsum("ijm,lm->ijl", c, phi)
        rhs = _ref_pull_back(moved.algebra.tensor, phi, np.eye(dim))
        ref_res = np.max(np.abs(lhs - rhs), initial=0.0)
        k_bracket = exponent(max(np.max(np.abs(lhs), initial=0.0), np.max(np.abs(rhs), initial=0.0)))
        assert m.tol.passes(abs(iso.bracket_residual - ref_res), "bracket", (k_bracket, 0)), dim


def test_validation_under_a_looser_tolerance_does_not_carry_to_a_stricter_one():
    # Jacobi residual 2e-3: within 1e-1, far outside the default tolerance
    g = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 1e-3]})
    g.validate(Tolerance(abs=1e-1))
    assert g.is_validated
    with pytest.raises(JacobiError):
        MetricLieAlgebra(g, np.eye(3))


def test_change_basis_carries_validation_without_a_second_check(monkeypatch, rng):
    import liemetric.lie as lie_mod

    m = catalog("sl_killing", n=2)
    calls = []
    monkeypatch.setattr(lie_mod, "validate_jacobi", lambda g: calls.append(g) or 0.0)
    moved = change_basis(m, random_invertible(rng, m.dim))
    assert moved.algebra.is_validated and calls == []
    moved.algebra.validate(Tolerance(abs=1e-12, rel=1e-12))  # not passed yet: checked now
    assert calls == [moved.algebra]
