import numpy as np
import pytest
from numpy.testing import assert_allclose

from liemetric import (
    DoubleExtensionSpec,
    LieAlgebra,
    MetricLieAlgebra,
    catalog,
    change_basis,
    classify_ricci,
    connection_matrices,
    decompose_double_extension,
    double_extension,
    is_einstein,
    ricci,
    type_I_decomposition,
    type_I_metric,
    type_II_canonical_basis,
    verify_isometry,
)
from liemetric.cli import build_report
from liemetric.errors import (
    NotTypeIError,
    NotTypeIIError,
    PreconditionError,
    WrongSignatureError,
)
from sampling import random_invertible, random_nilpotent_extension_spec


@pytest.fixture
def solvable_demo():
    # D = identity on a Euclidean abelian plane: type II with Gamma = -2
    return catalog("double_ext_demo", kind="solvable")


@pytest.fixture
def nilpotent_demo():
    # K a rotation: two-step nilpotent, Gamma = 1/2 > 0
    return catalog("double_ext_demo", kind="nilpotent")


def test_abelian_is_einstein_zero():
    cls = classify_ricci(catalog("abelian", p=0, q=3))
    assert cls.tag == "einstein"
    assert cls.constant == pytest.approx(0.0)


@pytest.mark.parametrize("name, params", [("abelian", {"p": 0, "q": 3}), ("sl_killing", {"n": 3})])
def test_mu_is_never_negative_zero(name, params):
    # an Einstein operator can give mu^2 = -0.0, whose square root is -0.0
    mu = classify_ricci(catalog(name, **params)).residuals["mu"]
    assert mu == 0.0 and np.copysign(1.0, mu) == 1.0


def test_double_extension_is_type_ii(solvable_demo):
    cls = classify_ricci(solvable_demo)
    assert cls.tag == "type_II"
    assert cls.residuals["type_II_square"] < 1e-12
    assert cls.residuals["operator_norm"] > 1.0


def test_type_I_classification():
    m = type_I_metric(catalog("affine_plane"), 0.0, 1.0)
    cls = classify_ricci(m)
    assert cls.tag == "type_I"
    assert cls.lam == pytest.approx(0.0, abs=1e-12)
    assert cls.mu == pytest.approx(1.0, abs=1e-12)


def test_type_I_decomposition_recovers_canonical_j():
    m = type_I_metric(catalog("affine_plane"), 0.0, 1.0)
    dec = type_I_decomposition(m)
    block = np.zeros((4, 4))
    block[:2, 2:] = -np.eye(2)
    block[2:, :2] = np.eye(2)
    assert_allclose(dec.J, block, atol=1e-12)
    companion = MetricLieAlgebra(m.algebra, dec.einstein_metric, m.tol)
    c, _ = is_einstein(companion)
    assert c == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("lam,mu", [(0.0, 1.0), (1.0, 1.0), (-3.0, 5.0), (2.0, -7.0)])
def test_type_I_round_trip(lam, mu):
    m = type_I_metric(catalog("affine_plane"), lam, mu)
    cls = classify_ricci(m)
    assert cls.tag == "type_I"
    assert cls.lam == pytest.approx(lam, abs=1e-9)
    assert cls.mu == pytest.approx(abs(mu), abs=1e-9)  # mu is reported positive
    dec = type_I_decomposition(m)
    gp = dec.einstein_metric.gram
    recon = (dec.lam * gp - dec.mu * gp @ dec.J) / (dec.lam ** 2 + dec.mu ** 2)
    assert np.max(np.abs(m.gram - recon)) < 1e-10


def test_type_I_requires_type_I():
    with pytest.raises(NotTypeIError):
        type_I_decomposition(catalog("affine_plane"))


def test_type_I_parallel_j():
    m = type_I_metric(catalog("affine_plane"), 1.0, 2.0)
    dec = type_I_decomposition(m)
    nm = connection_matrices(m)
    res = max(np.max(np.abs(dec.J @ nm[i] - nm[i] @ dec.J)) for i in range(m.dim))
    assert res < 1e-12


def test_classification_invariant_under_isometry(rng):
    m = type_I_metric(catalog("affine_plane"), -3.0, 5.0)
    cls = classify_ricci(m)
    for _ in range(3):
        p = random_invertible(rng, m.dim, spread=1.5)
        cls2 = classify_ricci(change_basis(m, p))
        assert cls2.tag == cls.tag
        assert cls2.lam == pytest.approx(cls.lam, abs=1e-8)
        assert cls2.mu == pytest.approx(cls.mu, abs=1e-8)


def test_uniqueness_up_to_basis_change(rng):
    # the (G', J) pair transforms by exactly the change of basis applied
    m = type_I_metric(catalog("affine_plane"), 1.0, 1.0)
    dec = type_I_decomposition(m)
    p = random_invertible(rng, m.dim, spread=1.5)
    dec2 = type_I_decomposition(change_basis(m, p))
    assert_allclose(dec2.einstein_metric.gram, p.T @ dec.einstein_metric.gram @ p, atol=1e-9)
    assert_allclose(dec2.J, np.linalg.solve(p, dec.J @ p), atol=1e-9)


def test_canonical_basis_negative_gamma(solvable_demo):
    canon = type_II_canonical_basis(solvable_demo)
    # Gamma = -2 < 0: Ric(u) = v exactly, hyperbolic pairing carries the sign
    assert canon.gram_sign == -1
    b = canon.basis
    op = ricci(solvable_demo).operator
    block = np.zeros((4, 4))
    block[1, 0] = 1.0
    assert_allclose(np.linalg.solve(b, op @ b), block, atol=1e-12)
    expected_gram = np.eye(4)
    expected_gram[0, 0] = expected_gram[1, 1] = 0.0
    expected_gram[0, 1] = expected_gram[1, 0] = -1.0
    assert_allclose(b.T @ solvable_demo.gram @ b, expected_gram, atol=1e-12)


def test_canonical_basis_positive_gamma(nilpotent_demo):
    canon = type_II_canonical_basis(nilpotent_demo)
    # Gamma = 1/2 > 0: the full textbook normal form is attained
    assert canon.gram_sign == 1
    b = canon.basis
    expected_gram = np.eye(4)
    expected_gram[0, 0] = expected_gram[1, 1] = 0.0
    expected_gram[0, 1] = expected_gram[1, 0] = 1.0
    assert_allclose(b.T @ nilpotent_demo.gram @ b, expected_gram, atol=1e-12)
    op = ricci(nilpotent_demo).operator
    block = np.zeros((4, 4))
    block[1, 0] = 1.0
    assert_allclose(np.linalg.solve(b, op @ b), block, atol=1e-12)


def test_canonical_basis_invariant_under_isometric_change(nilpotent_demo, rng):
    # an isometric change of basis leaves the canonical Ricci block unchanged
    p = random_invertible(rng, 4, spread=1.3)
    m2 = change_basis(nilpotent_demo, p)
    canon2 = type_II_canonical_basis(m2)
    op2 = ricci(m2).operator
    block = np.zeros((4, 4))
    block[1, 0] = 1.0
    assert_allclose(np.linalg.solve(canon2.basis, op2 @ canon2.basis), block, atol=1e-10)
    assert canon2.gram_sign == 1


def test_canonical_basis_wrong_signature():
    with pytest.raises(WrongSignatureError):
        type_II_canonical_basis(catalog("abelian", p=0, q=3))


def test_canonical_basis_not_type_ii():
    lorentz_flat = catalog("abelian", p=1, q=2)
    with pytest.raises(NotTypeIIError):
        type_II_canonical_basis(lorentz_flat)


def test_decompose_requires_type_ii():
    with pytest.raises(PreconditionError):
        decompose_double_extension(catalog("abelian", p=1, q=2))


def test_decompose_requires_lorentz():
    with pytest.raises(PreconditionError):
        decompose_double_extension(catalog("abelian", p=0, q=3))


def test_decompose_round_trip_symmetric_d(rng):
    # base R^3 Euclidean, random symmetric D, K = 0, L arbitrary
    base = catalog("abelian", p=0, q=3)
    a = rng.normal(size=(3, 3))
    spec = DoubleExtensionSpec(base, 0.5 * (a + a.T), np.zeros((3, 3)), rng.normal(size=3))
    m = double_extension(spec)
    dec = decompose_double_extension(m)
    rebuilt = double_extension(dec.spec)
    iso = verify_isometry(dec.basis, rebuilt, m)
    assert iso.ok
    assert iso.bracket_residual < 1e-9 and iso.metric_residual < 1e-9


def test_decompose_round_trip_skew_k(rng):
    # D = 0, K random skew, L = 0; Gamma = -tr(K^2)/4 > 0
    base = catalog("abelian", p=0, q=4)
    w = rng.normal(size=(4, 4))
    spec = DoubleExtensionSpec(base, np.zeros((4, 4)), w - w.T, np.zeros(4))
    m = double_extension(spec)
    dec = decompose_double_extension(m)
    rebuilt = double_extension(dec.spec)
    assert verify_isometry(dec.basis, rebuilt, m).ok
    rep = dec.spec.validate()
    assert all(res < 1e-9 for res in rep.values())


@pytest.mark.parametrize("dim", range(4, 9))
def test_decompose_round_trip_nilpotent(dim, rng):
    m = None
    for _ in range(20):
        spec = random_nilpotent_extension_spec(rng, dim - 2)
        cand = double_extension(spec)
        if classify_ricci(cand).tag == "type_II":
            m = cand
            break
    assert m is not None, "sampler never produced a type-II extension"
    dec = decompose_double_extension(m)
    rebuilt = double_extension(dec.spec)
    iso = verify_isometry(dec.basis, rebuilt, m)
    assert iso.ok


def test_decompose_dim3_non_nilpotent():
    # base R^1 with D = (d): the smallest Lorentz type-II metric algebra
    base = catalog("abelian", p=0, q=1)
    spec = DoubleExtensionSpec(base, [[1.5]], [[0.0]], [0.7])
    m = double_extension(spec)
    assert classify_ricci(m).tag == "type_II"
    dec = decompose_double_extension(m)
    rebuilt = double_extension(dec.spec)
    assert verify_isometry(dec.basis, rebuilt, m).ok


def test_decompose_recovers_euclidean_abelian_base(solvable_demo):
    dec = decompose_double_extension(solvable_demo)
    assert dec.spec.base.dim == 2
    assert dec.spec.base.algebra.structure == {}
    assert_allclose(dec.spec.base.gram, np.eye(2), atol=1e-12)


def test_small_lorentz_heisenberg_is_not_type_ii():
    # Ric is diagonal and nonzero; only its absolute size (~1e-6) is small
    m = MetricLieAlgebra(LieAlgebra(3, {(0, 1): [0.0, 0.0, 1e-3]}), np.diag([1.0, 1.0, -1.0]))
    cls = classify_ricci(m)
    assert cls.tag == "other"
    assert cls.residuals["operator_norm"] == pytest.approx(5e-7)


def test_scaled_nilpotent_double_extension_is_type_ii(nilpotent_demo):
    m = MetricLieAlgebra(LieAlgebra.from_tensor(1e-3 * nilpotent_demo.algebra.tensor), nilpotent_demo.gram)
    assert classify_ricci(m).tag == "type_II"
    assert type_II_canonical_basis(m).gram_sign == type_II_canonical_basis(nilpotent_demo).gram_sign


def test_type_I_residual_only_reported_for_mu_above_threshold():
    # sl(3) with the Killing metric is Einstein, so mu is rounding noise in every basis
    m = catalog("sl_killing", n=3)
    for seed in range(40):
        cls = classify_ricci(change_basis(m, random_invertible(np.random.default_rng(seed), m.dim)))
        assert cls.tag == "einstein"
        assert cls.residuals["type_I_minpoly"] is None, seed
    assert classify_ricci(type_I_metric(catalog("affine_plane"), 0.0, 1.0)).residuals["type_I_minpoly"] < 1e-12


def test_nilpotent_extensions_in_random_bases_are_type_ii():
    # mu of a nilpotent Ricci operator is the square root of rounding noise: tested on mu itself, some of
    # these would be tagged type I, and the Einstein companion of the type-I pair would be degenerate
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = double_extension(random_nilpotent_extension_spec(rng, int(rng.integers(2, 6))))
        m = change_basis(m, random_invertible(rng, m.dim, 1.5))
        assert classify_ricci(m).tag == "type_II"
        type_II_canonical_basis(m)


def _unequal_scales(rng, dim):
    """q1 diag(geomspace(1, 1e3, dim)) q2, with q1 and q2 the Q factors of two Gaussian draws."""
    q1 = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    q2 = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return q1 @ np.diag(np.geomspace(1.0, 1e3, dim)) @ q2


@pytest.mark.parametrize("n, seed", [(2, 430), (3, 130)])
def test_killing_metric_in_unequal_scales_is_not_type_I(n, seed):
    # cond(g) ~ 3e5: (Ric - lam)^2 + mu^2 is ~1e-16 in absolute terms but not against |Ric - lam|^2,
    # and a type-I tag here would send build_report into a type-I pair that fails verification
    m = catalog("sl_killing", n=n)
    m = change_basis(m, _unequal_scales(np.random.default_rng(seed), m.dim))
    assert classify_ricci(m).tag != "type_I"
    assert build_report(m)["classification"]["tag"] != "type_I"


@pytest.mark.parametrize("base", [("sl_killing", {"n": 2}), ("einstein_solvable", {"n": 1})])
def test_type_I_metric_in_unequal_scales_stays_type_I(base):
    # the unit-free type-I test still finds true type-I metrics in the bases that fooled the absolute one
    m = type_I_metric(catalog(base[0], **base[1]), 1.0, 2.0)
    own = classify_ricci(m)
    rng = np.random.default_rng(5)
    for _ in range(5):
        cls = classify_ricci(change_basis(m, _unequal_scales(rng, m.dim)))
        assert cls.tag == "type_I"
        assert (cls.lam, cls.mu) == pytest.approx((own.lam, own.mu), rel=1e-6)
