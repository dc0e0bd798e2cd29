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
    connection_matrices,
    decompose_double_extension,
    double_extension,
    frame,
    is_einstein,
    ricci,
    type_I_decomposition,
    type_I_metric,
    type_II_canonical_basis,
    verify_isometry,
)
from liemetric import classify
from liemetric.classify import RicciClassification
from liemetric.cli import build_report
from liemetric.errors import (
    NotTypeIError,
    NotTypeIIError,
    NullImageError,
    PreconditionError,
    StructureMismatchError,
    VerificationError,
    WrongSignatureError,
)
from liemetric.linalg import signature
from sampling import random_invertible, random_nilpotent_extension_spec

from basis_corpus import bases
from conftest import CATALOG_CASES


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
    assert cls.residuals["operator_norm"] == pytest.approx(1.0)  # |Ric| in the frame; 2.0 in the catalog's basis


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


def test_type_I_parallel_residual_by_blocks_is_the_whole_commutator_stack():
    # J N_i - N_i J is formed by blocks of i, in place: its largest block residual is the max-norm of the whole
    # stack, to the bit; on sl(5) (dim 48) the blocks are 14 matrices
    rng = np.random.default_rng(12)
    for m in (type_I_metric(catalog("affine_plane"), 1.0, 2.0),
              change_basis(type_I_metric(catalog("sl_killing", n=4), 1.0, 2.0), random_invertible(rng, 30)),
              type_I_metric(catalog("sl_killing", n=5), -1.0, 0.5)):
        dec, f = type_I_decomposition(m), frame(m)[0]
        j, nm = (ricci(f).operator - dec.lam * np.eye(m.dim)) / dec.mu, connection_matrices(f)
        assert dec.residuals["parallel"] == np.max(np.abs(j @ nm - nm @ j)), m.dim


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


def _raises_verification(cls, call):
    """The error ``call`` raises: exactly ``cls``, a VerificationError with exit code 4."""
    with pytest.raises(cls) as info:
        call()
    exc = info.value
    assert type(exc) is cls and exc.exit_code == 4 and isinstance(exc, VerificationError)
    return exc


def test_decompose_non_nilpotent_e2_extension_is_a_structure_mismatch():
    # the flat Euclidean e(2) ([e1, e3] = -e2, [e2, e3] = e1) double-extended by D = diag(1, 1, 0): Lorentz,
    # type II and Ricci-parallel, yet not nilpotent, and its base is not abelian
    e2 = MetricLieAlgebra(LieAlgebra(3, {(0, 2): [0.0, -1.0, 0.0], (1, 2): [1.0, 0.0, 0.0]}), np.eye(3))
    spec = DoubleExtensionSpec(e2, np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3)), np.zeros(3))
    report = check_parallel_conditions(spec)
    assert report.ok and report.invariants.gamma == pytest.approx(-2.0)
    m = double_extension(spec)
    assert tuple(signature(m.metric)) == (1, 4) and classify_ricci(m).tag == "type_II"
    exc = _raises_verification(StructureMismatchError, lambda: decompose_double_extension(m))
    assert exc.residual == 1.0
    assert "base_abelian residual 1.000e+00" in str(exc)


def test_type_I_pair_that_is_not_parallel_fails_verification(monkeypatch):
    m = type_I_metric(catalog("affine_plane"), 0.0, 1.0)
    orig = classify.connection_matrices
    # a diagonal with distinct entries commutes with no complex structure
    monkeypatch.setattr(classify, "connection_matrices", lambda f: orig(f) + np.diag(np.arange(f.dim, dtype=float)))
    exc = _raises_verification(VerificationError, lambda: type_I_decomposition(m))
    assert exc.residuals["parallel"] == pytest.approx(3.0)
    assert all(res < 1e-12 for key, res in exc.residuals.items() if key != "parallel")


def test_non_null_ricci_image_is_a_null_image_error(monkeypatch):
    # e(1, 1) + R, Riemannian on e(1, 1) and timelike on R: Ric = diag(0, 0, -2, 0), a spacelike image
    sol = LieAlgebra(4, {(0, 2): [0.0, 1.0, 0.0, 0.0], (1, 2): [1.0, 0.0, 0.0, 0.0]})
    m = MetricLieAlgebra(sol, np.diag([1.0, 1.0, 1.0, -1.0]))
    assert tuple(signature(m.metric)) == (1, 3) and classify_ricci(m).tag == "other"
    monkeypatch.setattr(classify, "classify_ricci", lambda m: RicciClassification(tag="type_II"))
    exc = _raises_verification(NullImageError, lambda: type_II_canonical_basis(m))
    assert str(exc) == "Ricci image is not null: <v, v> = 1.000e+00"
    assert exc.residual == 1.0


def test_canonical_basis_with_a_timelike_complement_fails_verification(monkeypatch, nilpotent_demo):
    orig = classify.pseudo_orthonormal_basis

    def flipped(form):
        on, signs = orig(form)
        return on, -signs

    monkeypatch.setattr(classify, "pseudo_orthonormal_basis", flipped)
    exc = _raises_verification(VerificationError, lambda: type_II_canonical_basis(nilpotent_demo))
    assert exc.residuals["complement_signs"] == nilpotent_demo.dim - 2


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


def _type_II_cases():
    yield from (catalog(name, **params) for name, params in CATALOG_CASES)
    yield from (catalog("double_ext_demo", kind=kind, dim=d) for kind in ("solvable", "nilpotent") for d in (2, 3, 7))
    yield from (m for _, m in bases())


def test_type_II_v_column_is_positive_at_its_first_largest_entry():
    # the canonical sign: entries within a relative 1e-8 of the largest magnitude are ties, the first one wins
    count = 0
    for m in _type_II_cases():
        if signature(m.metric).p != 1 or classify_ricci(m).tag != "type_II":
            continue
        v = type_II_canonical_basis(m).basis[:, 1]
        assert v[np.argmax(np.abs(v) >= (1 - 1e-8) * np.abs(v).max())] > 0, m
        count += 1
    assert count == 36
