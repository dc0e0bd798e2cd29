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
    connection,
    connection_matrices,
    curvature,
    decompose_double_extension,
    direct_sum,
    double_extension,
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
    type_I_decomposition,
    type_II_canonical_basis,
    validate_jacobi,
    verify_isometry,
)
from liemetric import classify
from liemetric.classify import RicciClassification
from liemetric.errors import (DegenerateFormError, DimensionMismatchError, JacobiError, StructureMismatchError,
                              ValidationError, VerificationError)
from liemetric.geometry import frame
from liemetric.linalg import (DEFAULT_TOL, DEGREES, SymmetricForm, Tolerance, exponent, operator_residual,
                              pseudo_orthonormal_basis)
from references import (ad_invariance_out_of_place, change_basis_out_of_place, connection_out_of_place, max_abs,
                        nabla_ric_out_of_place, ricci_out_of_place, ricci_structural_out_of_place,
                        ricci_structural_unblocked, u_map)
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


def test_curvature_leaves_no_dim4_array_in_the_cache():
    m = catalog("sl_killing", n=3)
    riem = curvature(m)
    assert riem.shape == (8,) * 4 and not riem.flags.writeable
    cached = [v for v in m._cache.values() if isinstance(v, np.ndarray)]
    assert cached and all(v.ndim < 4 for v in cached)
    assert_allclose(curvature(m), riem, rtol=0, atol=0)


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
    assert not check.ok and check.residual > 1e-3
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


def test_parallel_verdict_in_unequal_scales_is_judged_in_the_frame():
    # |nabla ric| ~ 0.12 in the sampled basis.  Under diag(geomspace(1, 1e3, 5)), max|C| grows to 1.5e5
    # (k_C = 17), so the given-basis nabla_ric residual of 1.6e6 passes its degree-(3, 0) bound there; in
    # the frame, where g = diag(+-1), the bound fits the residual again and the verdict stays False
    m = random_metric_lie_algebra(np.random.default_rng(2935), 5)
    assert not is_ricci_parallel(m).ok
    m = change_basis(m, np.diag(np.geomspace(1.0, 1e3, 5)))
    assert DEFAULT_TOL.passes(np.max(np.abs(nabla_ric(m))), "nabla_ric", m.exponents)
    assert not is_ricci_parallel(m).ok


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


def test_metric_of_the_wrong_size_is_rejected(affine):
    with pytest.raises(DimensionMismatchError, match="metric dim 3 does not match algebra dim 2"):
        MetricLieAlgebra(affine.algebra, np.eye(3))


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


def _scaled(m, s, t, tol=DEFAULT_TOL):
    """The metric algebra with brackets s*C and metric t*g."""
    return MetricLieAlgebra(LieAlgebra.from_tensor(s * m.algebra.tensor), t * m.gram, tol)


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


def test_the_frame_is_judged_at_k_g_zero():
    # P^T g P can round max|g_F| to 1 - ulp (sl(2): 0.9999999999999998), whose exponent is -1
    f = frame(catalog("sl_killing", n=2))[0]
    assert f.exponents == (f.algebra.exponent, 0)
    rng = np.random.default_rng(0)
    for _ in range(400):
        dim = int(rng.integers(2, 10))
        p = int(rng.integers(0, dim + 1))
        f = frame(random_metric_lie_algebra(rng, dim, (p, dim - p)))[0]
        assert f.exponents == (f.algebra.exponent, 0)


def _degree_sample(rng):
    """A metric algebra, matrices and double-extension data on which every table residual is nonzero."""
    # almost abelian, [e0, e_j] = A e_j, in a Lorentz metric: not unimodular, Einstein, parallel or ad-invariant
    t4 = np.zeros((4, 4, 4))
    t4[0, 1:, 1:] = rng.normal(size=(3, 3))
    form = random_invertible(rng, 4)
    m = MetricLieAlgebra(LieAlgebra.from_tensor(t4 - t4.transpose(1, 0, 2)), form.T @ np.diag([-1.0, 1, 1, 1]) @ form)
    non_lie = rng.normal(size=(4, 4, 4))
    # the e(2) double extension of test_classify, which decompose refuses on its base_abelian residual
    e2 = MetricLieAlgebra(LieAlgebra(3, {(0, 2): [0.0, -1.0, 0.0], (1, 2): [1.0, 0.0, 0.0]}), np.eye(3))
    e2_ext = double_extension(DoubleExtensionSpec(e2, np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3)), np.zeros(3)))
    return dict(m=m, phi=rng.normal(size=(4, 4)), j=rng.normal(size=(4, 4)),
                non_lie=non_lie - non_lie.transpose(1, 0, 2), base=random_metric_lie_algebra(rng, 4, (1, 3)),
                d=rng.normal(size=(4, 4)), k=rng.normal(size=(4, 4)), lvec=rng.normal(size=4),
                e2_ext=e2_ext, type_ii=catalog("double_ext_demo", kind="nilpotent", dim=4))


# residuals taken in the frame, where g stays diag(+-1) and the brackets scale by s / sqrt(t), or in the type-II
# canonical basis, where g stays the hyperbolic plane plus the identity and the brackets scale alike
_FRAME_JUDGED = ("ric", "nabla_ric", "ad_invariance", "complex_structure", "einstein", "parallel", "reconstruction",
                 "gram", "ricci_block", "complement_signs", "base_abelian")


def _certificate_residuals(x, m, s, t):
    """Certificate residuals on the sample with brackets scaled by s and metrics by t.

    Taken from failing certificates where one fails on this data: the type-I pair of ``m`` wrongly classified as
    type I, the canonical basis of the nilpotent demo with a timelike complement scaled by 2, and decompose on the
    e(2) extension.  The rest are expressions of the same degree: J* - J of a unit-free J, c - 1 of the companion
    metric ric, a Ricci block in a random basis of the frame, and bracket components.
    """
    op = ricci(m).operator
    lam, mu = np.trace(op) / m.dim, np.sqrt(abs(np.trace(op @ op)) / m.dim)  # both scale as Ric
    on_basis = classify.pseudo_orthonormal_basis
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "classify_ricci", lambda _: RicciClassification(tag="type_I", lam=lam, mu=mu))
        with pytest.raises(VerificationError) as type_i:
            type_I_decomposition(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "pseudo_orthonormal_basis", lambda form: (2 * on_basis(form)[0], -on_basis(form)[1]))
        with pytest.raises(VerificationError) as type_ii:
            type_II_canonical_basis(_scaled(x["type_ii"], s, t))
    with pytest.raises(StructureMismatchError, match="base_abelian") as mismatch:
        decompose_double_extension(_scaled(x["e2_ext"], s, t))
    companion = MetricLieAlgebra(m.algebra, ricci(m).tensor)  # ric as the metric, as a type-I pair's companion
    basis = x["phi"]
    ric_block = np.linalg.inv(basis) @ ricci(frame(m)[0]).operator @ basis
    return {
        **{k: type_i.value.residuals[k] for k in ("complex_structure", "einstein", "parallel", "reconstruction")},
        **{k: type_ii.value.residuals[k] for k in ("gram", "complement_signs")},
        "base_abelian": mismatch.value.residual,
        "symmetric": operator_residual(metric_adjoint(x["j"], m.metric) - x["j"]),
        "einstein_constant": abs(ricci(companion).scalar / m.dim - 1.0),
        "ricci_block": operator_residual(ric_block / np.outer(np.linalg.norm(np.linalg.inv(basis), axis=1),
                                                              np.linalg.norm(basis, axis=0))),
        "v_central": operator_residual(m.algebra.tensor[1]),
        "u_component": operator_residual(m.algebra.tensor[:, :, 1]),
    }


def _table_residuals(x, s, t):
    """Each table entry's residual on the sample with brackets scaled by s and metrics by t.

    The double-extension data scale as a homothety of the extension that keeps <u, v> = 1:
    (s C0, t g0, s D/t, s K/t, s L/t^2).
    """
    m = _scaled(x["m"], s, t)
    op = ricci(m).operator
    unit = op / np.max(np.abs(op))
    iso = verify_isometry(x["phi"], m, m)
    par = is_ricci_parallel(m)
    # check_parallel_conditions admits only data that pass their defining constraints, whose residuals here reach 2
    # at unit brackets and metric: the base's tolerance admits them, and no residual depends on it
    base = _scaled(x["base"], s, t, Tolerance(abs=8.0, rel=8.0))
    spec = DoubleExtensionSpec(base, s * x["d"] / t, s * x["k"] / t, s * x["lvec"] / t ** 2)
    return {
        "bracket": iso.bracket_residual,
        "trace_ad": np.max(np.abs(trace_functional(m.algebra))),
        "connection": np.max(np.abs(connection(m))),
        "metric": iso.metric_residual,
        "unit_free": np.max(np.abs(unit @ unit)),
        "jacobi": validate_jacobi(LieAlgebra.from_tensor(s * x["non_lie"])),
        "ric": is_einstein(m)[1],
        "nabla_ric": par.residual,
        "ad_invariance": is_ad_invariant(m)[1],
        **spec.validate(),
        **check_parallel_conditions(spec).conditions,
        **_certificate_residuals(x, m, s, t),
    }


def test_every_degree_in_the_table_is_the_degree_of_its_residual():
    sample = _degree_sample(np.random.default_rng(2024))
    s, t = 1.7, 0.6
    before, after = _table_residuals(sample, 1.0, 1.0), _table_residuals(sample, s, t)
    assert sorted(before) == sorted(DEGREES)
    for kind, (a, b) in DEGREES.items():
        assert before[kind] > 1e-3, kind
        factor = (s / t ** 0.5) ** a if kind in _FRAME_JUDGED else s ** a * t ** b
        assert after[kind] / before[kind] == pytest.approx(factor, rel=1e-9), kind


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
        agrees(connection(m), n_ref, "connection")
        agrees(ricci(m).tensor, ric_ref, "ric")
        agrees(ricci_structural(m), _ref_ricci_structural(m), "ric")
        agrees(nabla_ric(m), _ref_nabla_ric(n_ref, ric_ref), "nabla_ric")
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


def _in_place_cases():
    """Random-basis algebras of dim 1-12 in two signatures each, sl(7) and the Einstein extension of H_23 in
    their catalog bases, and sl(5) in a random basis."""
    rng = np.random.default_rng(26)
    for dim in range(1, 13):
        for p in (0, (dim + 1) // 2):
            yield random_metric_lie_algebra(rng, dim, (p, dim - p))
    yield catalog("sl_killing", n=7)
    yield catalog("einstein_solvable", n=23)
    yield change_basis(catalog("sl_killing", n=5), random_invertible(rng, 24))


def test_in_place_kernels_match_their_out_of_place_expressions_bit_for_bit():
    # the kernels reuse their buffers but keep every floating-point operation, so no bit may move
    count = 0
    for m in _in_place_cases():
        f = frame(m)[0]
        pairs = [
            (connection(m), connection_out_of_place(m)),
            (connection(f), connection_out_of_place(f)),
            (ricci(f).tensor, ricci_out_of_place(f)),
            (nabla_ric(m), nabla_ric_out_of_place(m)),
            (nabla_ric(f), nabla_ric_out_of_place(f)),
            (ricci_structural(m), ricci_structural_out_of_place(m)),
            (np.float64(is_ad_invariant(m)[1]), np.float64(ad_invariance_out_of_place(f))),
            (np.float64(operator_residual(nabla_ric(f))), np.float64(max_abs(nabla_ric(f)))),
        ]
        for k, (new, ref) in enumerate(pairs):
            assert new.dtype == ref.dtype and new.shape == ref.shape, (m.dim, k)
            assert new.tobytes() == ref.tobytes(), (m.dim, k)
            count += 1
    assert count == 27 * 8

    # change_basis pulls back by blocks into its one result and antisymmetrizes that in place: the frame's basis and
    # a random one on every case above, dims 0 and 1, bases with -0.0 entries (-Id, and a reversed one) and dim 49
    rng, count = np.random.default_rng(30), 0
    cases = [(m, p) for m in _in_place_cases()
             for p in (pseudo_orthonormal_basis(m.metric)[0], random_invertible(rng, m.dim))]
    cases += [(MetricLieAlgebra(LieAlgebra(0), np.eye(0)), np.eye(0)),
              (MetricLieAlgebra(LieAlgebra(1), -np.eye(1)), np.array([[2.0]])),
              (catalog("sl_killing", n=7), -np.eye(48)), (catalog("heisenberg", n=16), -np.eye(33)[::-1]),
              (random_metric_lie_algebra(rng, 49, (16, 33)), random_invertible(rng, 49))]  # 49 is no multiple of 4
    for m, p in cases:
        new, ref = change_basis(m, p).algebra.tensor, change_basis_out_of_place(m, p)
        assert new.shape == ref.shape and np.array_equal(new, ref), m.dim
        assert np.array_equal(np.signbit(new), np.signbit(ref)), m.dim
        count += np.count_nonzero(np.signbit(m.algebra.tensor) & (m.algebra.tensor == 0.0))
    assert count > 0  # inputs hold -0.0: the mirrored zeros of a lower triangle


def test_ad_invariance_is_read_off_a_connection_nobody_asked_for():
    # is_ad_invariant computes the frame's connection if it has to, and reads the residual its pass kept
    rng = np.random.default_rng(31)
    for m in (catalog("sl_killing", n=3), catalog("heisenberg", n=2), random_metric_lie_algebra(rng, 7, (3, 4)),
              change_basis(catalog("sl_killing", n=7), random_invertible(rng, 48))):
        f = frame(m)[0]
        assert "connection" not in f._cache
        ok, res = is_ad_invariant(m)
        assert "connection" in f._cache
        assert np.float64(res).tobytes() == np.float64(ad_invariance_out_of_place(f)).tobytes(), m.dim
        assert ok == f.tol.passes(res, "ad_invariance", f.exponents)


def test_structural_ricci_reads_killing_form_bit_for_bit():
    # ricci_structural adds -1/2 killing_form where it added -1/4 (K + K^T) of a blocked copy of its own: a power
    # of two scales exactly, so no bit moves, also at the dims where killing_form's last bits moved
    rng = np.random.default_rng(32)
    for dim in (*range(1, 40), 41, 48, 49, 50, 63, 65):
        for p in (0, 1):
            m = random_metric_lie_algebra(rng, dim, (p, dim - p))
            assert ricci_structural(m).tobytes() == ricci_structural_out_of_place(m).tobytes(), (dim, p)


def test_blocked_structural_ricci_agrees_with_the_unblocked_formula_to_a_few_ulps():
    # summing term3 and term4 over blocks of the basis regroups their sums, so the oracle's last bits move: by at
    # most 9 units in the last place of max|ric| on these cases
    for m in _in_place_cases():
        ref = ricci_structural_unblocked(m)
        assert np.max(np.abs(ricci_structural(m) - ref)) <= 16 * np.spacing(np.max(np.abs(ref))), m.dim


def test_a_form_judged_under_another_tolerance_is_judged_again():
    # diag(1, 1e-9) passes a rank cut of 1e-12, not the default 1e-8: a metric algebra judges the form it keeps
    # under its own tolerance, as it judges the same Gram given as an array
    loose = Tolerance(rank=1e-12)
    form = SymmetricForm(np.diag([1.0, 1e-9]), loose)
    for metric in (form, form.gram):
        with pytest.raises(DegenerateFormError, match="1.000e-09 <= rank cutoff 1.000e-08"):
            MetricLieAlgebra(LieAlgebra(2), metric, DEFAULT_TOL)
    assert MetricLieAlgebra(LieAlgebra(2), form, Tolerance(rank=1e-12)).metric is form  # an equal one keeps it
    assert MetricLieAlgebra(LieAlgebra(2), np.eye(2), loose).metric.tol is loose


def test_validation_under_a_looser_tolerance_does_not_carry_to_a_stricter_one():
    # Jacobi residual 2e-3: within 1e-1, far outside the default tolerance
    g = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 1e-3]})
    g.validate(Tolerance(abs=1e-1))
    assert g.is_validated
    with pytest.raises(JacobiError):
        MetricLieAlgebra(g, np.eye(3))


def test_change_basis_bounds_the_brackets_it_computes():
    # p and the brackets are within MAX_ABS; the brackets in the basis p, 1e20 * 1e50, are not
    m = MetricLieAlgebra(LieAlgebra(2, {(0, 1): [0.0, 1e50]}), np.eye(2))
    with pytest.raises(ValidationError, match=r"^brackets in the new basis reach 1\.000e\+70, beyond MAX_ABS = 1e\+50$"):
        change_basis(m, np.diag([1e20, 1e20]))
    m = MetricLieAlgebra(LieAlgebra(2, {(0, 1): [0.0, 1e50]}), 1e-40 * np.eye(2))
    with pytest.raises(ValidationError, match="pseudo-orthonormal frame"):
        is_einstein(m)


def test_change_basis_bounds_the_metric_it_computes():
    # p is within MAX_ABS; the metric in the basis p, 1e30 * 1e30, is not
    m = MetricLieAlgebra(LieAlgebra(2, {}), np.eye(2))
    with pytest.raises(ValidationError, match=r"^the metric in the new basis reaches 1\.000e\+60, beyond MAX_ABS = 1e\+50$"):
        change_basis(m, 1e30 * np.eye(2))


def test_change_basis_rejects_a_singular_basis():
    m = catalog("sl_killing", n=2)
    with pytest.raises(ValidationError, match="^the new basis p is not invertible$") as info:
        change_basis(m, np.diag([1.0, 1.0, 0.0]))
    assert info.value.exit_code == 2


def test_change_basis_carries_validation_without_a_second_check(monkeypatch, rng):
    import liemetric.lie as lie_mod

    m = catalog("sl_killing", n=2)
    calls = []
    monkeypatch.setattr(lie_mod, "validate_jacobi", lambda g: calls.append(g) or 0.0)
    moved = change_basis(m, random_invertible(rng, m.dim))
    assert moved.algebra.is_validated and calls == []
    moved.algebra.validate(Tolerance(abs=1e-12, rel=1e-12))  # not passed yet: checked now
    assert calls == [moved.algebra]
