import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liemetric import (
    DoubleExtensionSpec,
    LieAlgebra,
    MetricLieAlgebra,
    catalog,
    central_extension_metric,
    check_parallel_conditions,
    classify_ricci,
    complexify,
    connection,
    double_extension,
    extension_invariants,
    bordemann_cotangent,
    is_ad_invariant,
    is_einstein,
    is_ricci_flat,
    is_ricci_parallel,
    killing_form,
    metric_adjoint,
    ricci,
    signature,
    structure_report,
    two_step_parallel,
    type_I_metric,
    validate_jacobi,
)
from liemetric.errors import (
    BadParamsError,
    CocycleError,
    CyclicityError,
    DimensionMismatchError,
    InvalidSpecError,
    JacobiError,
    LieMetricError,
    NonCommutingError,
    NotEinsteinError,
    UnknownNameError,
    ZeroMuError,
)
from liemetric.lie import MAX_DIM
from liemetric.linalg import Tolerance
from sampling import (
    ABELIAN_FAMILIES,
    random_abelian_extension_spec,
    random_general_extension_spec,
)

from conftest import make_affine, make_heisenberg, make_sl2


def euclidean_abelian(dim):
    return catalog("abelian", p=0, q=dim)


# ---------------------------------------------------------------------------
# double extension
# ---------------------------------------------------------------------------


def test_double_extension_identity_d():
    spec = DoubleExtensionSpec(euclidean_abelian(2), np.eye(2), np.zeros((2, 2)), np.zeros(2))
    m = double_extension(spec)
    assert m.dim == 4
    assert tuple(signature(m.metric)) == (1, 3)
    assert validate_jacobi(m.algebra) == 0.0
    rep = structure_report(m.algebra)
    assert rep.is_solvable and not rep.is_nilpotent


def test_double_extension_rotation_k():
    k = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = DoubleExtensionSpec(euclidean_abelian(2), np.zeros((2, 2)), k, np.zeros(2))
    m = double_extension(spec)
    rep = structure_report(m.algebra)
    assert rep.is_nilpotent and rep.nilpotency_step == 2
    inv = extension_invariants(spec)
    assert inv.gamma == pytest.approx(0.5)  # -tr(K^2)/4 with tr(K^2) = -2


def test_double_extension_invalid_compatibility():
    # D = I with K != 0 gives K D + D* K = 2K != 0 over an abelian base
    k = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = DoubleExtensionSpec(euclidean_abelian(2), np.eye(2), k, np.zeros(2))
    with pytest.raises(InvalidSpecError) as err:
        double_extension(spec)
    assert err.value.condition == "compatibility"


def test_double_extension_invalid_skew():
    spec = DoubleExtensionSpec(euclidean_abelian(2), np.zeros((2, 2)), np.eye(2), np.zeros(2))
    with pytest.raises(InvalidSpecError) as err:
        double_extension(spec)
    assert err.value.condition == "skew"


def test_double_extension_invalid_derivation():
    aff = catalog("affine_plane")
    d = np.array([[0.0, 1.0], [1.0, 0.0]])  # not a derivation of [e1,e2]=e2
    spec = DoubleExtensionSpec(aff, d, np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(InvalidSpecError) as err:
        double_extension(spec)
    assert err.value.condition == "derivation"


def test_double_extension_cocycle_condition():
    # K rotating a derived direction against a flat one breaks Jacobi on
    # base triples; must be caught as an invalid spec, not a Jacobi crash
    base_alg = LieAlgebra(3, {(0, 1): [0.0, 1.0, 0.0]})  # affine + line
    base = MetricLieAlgebra(base_alg, np.eye(3))
    k = np.zeros((3, 3))
    k[1, 2] = 1.0
    k[2, 1] = -1.0
    spec = DoubleExtensionSpec(base, np.zeros((3, 3)), k, np.zeros(3))
    with pytest.raises(InvalidSpecError) as err:
        double_extension(spec)
    assert err.value.condition == "cocycle"


def test_extension_invariants_abelian_delta_exactly_zero(rng):
    for family in ABELIAN_FAMILIES:
        spec = random_abelian_extension_spec(rng, 4, family)
        inv = extension_invariants(spec)
        assert np.array_equal(inv.delta, np.zeros(4))


def test_extension_invariants_affine_example():
    aff = catalog("affine_plane")
    spec = DoubleExtensionSpec(aff, np.diag([0.0, 1.0]), np.zeros((2, 2)), np.zeros(2))
    inv = extension_invariants(spec)
    assert_allclose(inv.delta, [-1.0, 0.0], atol=1e-14)
    assert_allclose(inv.mean_curvature, [1.0, 0.0], atol=1e-14)


def test_extension_invariants_gamma():
    spec = DoubleExtensionSpec(euclidean_abelian(2), np.eye(2), np.zeros((2, 2)), np.zeros(2))
    assert extension_invariants(spec).gamma == pytest.approx(-2.0)


# ---------------------------------------------------------------------------
# parallelism conditions (the closed-form certificate)
# ---------------------------------------------------------------------------


def test_conditions_abelian_always_pass(rng):
    for _ in range(10):
        spec = random_abelian_extension_spec(rng, int(rng.integers(2, 6)))
        rep = check_parallel_conditions(spec)
        assert rep.ok
        assert is_ricci_parallel(double_extension(spec)).ok


def test_conditions_affine_trivial_extension():
    aff = catalog("affine_plane")
    spec = DoubleExtensionSpec(aff, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
    rep = check_parallel_conditions(spec)
    assert rep.ok
    m = double_extension(spec)
    assert is_ricci_parallel(m).ok
    eig = np.sort(np.linalg.eigvals(ricci(m).operator).real)
    assert_allclose(eig, [-1.0, -1.0, 0.0, 0.0], atol=1e-12)
    assert classify_ricci(m).tag == "other"


def test_conditions_affine_diagonal_derivation_agrees_with_direct():
    # the certificate and the direct check must agree case by case
    aff = catalog("affine_plane")
    spec = DoubleExtensionSpec(aff, np.diag([0.0, 1.0]), np.zeros((2, 2)), np.zeros(2))
    rep = check_parallel_conditions(spec)
    direct = is_ricci_parallel(double_extension(spec))
    assert rep.ok == direct.ok


def test_conditions_violator_affine_with_l():
    aff = catalog("affine_plane")
    spec = DoubleExtensionSpec(aff, np.zeros((2, 2)), np.zeros((2, 2)), [1.0, 0.0])
    rep = check_parallel_conditions(spec)
    assert not rep.ok
    assert rep.conditions["C2"] > 0.5
    assert not is_ricci_parallel(double_extension(spec)).ok


def test_conditions_violator_non_parallel_base():
    h1 = catalog("heisenberg", n=1)
    spec = DoubleExtensionSpec(h1, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3))
    rep = check_parallel_conditions(spec)
    assert not rep.base_parallel.ok and not rep.ok
    assert not is_ricci_parallel(double_extension(spec)).ok


def test_conditions_match_direct_on_general_specs(rng):
    for _ in range(20):
        spec = random_general_extension_spec(rng)
        rep = check_parallel_conditions(spec)
        direct = is_ricci_parallel(double_extension(spec))
        assert rep.ok == direct.ok


def test_extension_flat_iff_base_flat_and_invariants_vanish(rng):
    # flatness of the extension <=> base Ricci-flat, Delta = 0 and Gamma = 0
    aff = catalog("affine_plane")
    k_rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    cases = [
        DoubleExtensionSpec(euclidean_abelian(2), np.zeros((2, 2)), np.zeros((2, 2)), [1.0, 2.0]),
        DoubleExtensionSpec(euclidean_abelian(2), np.zeros((2, 2)), k_rot, np.zeros(2)),
        DoubleExtensionSpec(euclidean_abelian(2), np.eye(2), np.zeros((2, 2)), np.zeros(2)),
        DoubleExtensionSpec(aff, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2)),
        DoubleExtensionSpec(aff, np.diag([0.0, 1.0]), np.zeros((2, 2)), np.zeros(2)),
    ]
    for _ in range(10):
        cases.append(random_abelian_extension_spec(rng, int(rng.integers(2, 5))))
    for spec in cases:
        inv = extension_invariants(spec)
        base_flat, _ = is_ricci_flat(spec.base)
        expected = base_flat and np.max(np.abs(inv.delta), initial=0.0) < 1e-12 and abs(inv.gamma) < 1e-12
        flat, _ = is_ricci_flat(double_extension(spec))
        assert flat == expected


# ---------------------------------------------------------------------------
# complexification
# ---------------------------------------------------------------------------


def test_complexify_abelian_flat():
    m, j = complexify(euclidean_abelian(3))
    assert m.dim == 6
    assert tuple(signature(m.metric)) == (3, 3)
    assert is_ricci_flat(m)[0]
    assert_allclose(j @ j, -np.eye(6))


def test_complexify_doubles_einstein_constant():
    m, _ = complexify(catalog("affine_plane"))
    c, _ = is_einstein(m)
    assert c == pytest.approx(-2.0, abs=1e-12)


def test_complexify_preserves_parallel():
    m, _ = complexify(catalog("sl_killing", n=2))
    assert is_ricci_parallel(m).ok


def test_complexify_j_is_parallel_and_symmetric():
    base = catalog("affine_plane")
    m, j = complexify(base)
    n = connection(m)
    nm = n.transpose(0, 2, 1)
    res = max(np.max(np.abs(j @ nm[i] - nm[i] @ j)) for i in range(m.dim))
    assert res < 1e-13
    assert np.max(np.abs(metric_adjoint(j, m.metric) - j)) < 1e-13


def test_complexify_signature():
    base = catalog("sl_killing", n=2)  # signature (1, 2)
    m, _ = complexify(base)
    assert tuple(signature(m.metric)) == (3, 3)


# ---------------------------------------------------------------------------
# type-I builder
# ---------------------------------------------------------------------------


def test_type_I_metric_ric_is_j_for_pure_imaginary():
    m = type_I_metric(catalog("affine_plane"), 0.0, 1.0)
    op = ricci(m).operator
    assert_allclose(op @ op, -np.eye(4), atol=1e-12)  # Ric = J, so Ric^2 = -I


def test_type_I_metric_classifies():
    m = type_I_metric(catalog("affine_plane"), 1.0, 1.0)
    cls = classify_ricci(m)
    assert cls.tag == "type_I"
    op = ricci(m).operator
    shifted = op - np.eye(4)
    assert np.max(np.abs(shifted @ shifted + np.eye(4))) < 1e-12


def test_type_I_metric_zero_mu_rejected():
    with pytest.raises(ZeroMuError):
        type_I_metric(catalog("affine_plane"), 1.0, 0.0)


def test_type_I_metric_needs_einstein_base():
    with pytest.raises(NotEinsteinError):
        type_I_metric(catalog("heisenberg", n=1), 0.0, 1.0)
    with pytest.raises(NotEinsteinError):
        # Ricci-flat base has c = 0, also rejected
        type_I_metric(euclidean_abelian(2), 0.0, 1.0)


@pytest.mark.parametrize("p, q, scale", [(0, 2, 1.0), (1, 2, 1.0), (0, 3, 1e-6), (2, 1, 1e6)])
def test_type_I_metric_on_abelian_base_names_the_zero_constant(p, q, scale):
    base = catalog("abelian", p=p, q=q)
    base = MetricLieAlgebra(base.algebra, scale * base.gram)
    with pytest.raises(NotEinsteinError, match=r"^base Einstein constant must be nonzero$"):
        type_I_metric(base, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Example families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dalg_factory,flat", [
    (lambda: make_heisenberg(1), True),
    (make_sl2, False),
    (make_affine, False),
])
def test_central_extension_identities(dalg_factory, flat):
    m = central_extension_metric(dalg_factory())
    kg = killing_form(m.algebra)
    assert np.max(np.abs(ricci(m).tensor + 0.5 * kg)) < 1e-12
    assert is_ricci_parallel(m).ok
    assert is_ricci_flat(m)[0] == flat
    assert flat == (np.max(np.abs(kg)) < 1e-12)


def test_central_extension_signature():
    m = central_extension_metric(make_sl2())
    assert tuple(signature(m.metric)) == (3, 3)


def test_central_extension_rejects_non_cocycle():
    # affine + line: [e0, e1] = e1, so the cyclic sum reduces to theta(e1, e2)
    dalg = LieAlgebra(3, {(0, 1): [0.0, 1.0, 0.0]})
    theta = np.zeros((3, 3, 3))
    theta[1, 2, 0] = 1.0
    theta[2, 1, 0] = -1.0
    with pytest.raises(CocycleError):
        central_extension_metric(dalg, theta)


def test_central_extension_nontrivial_cocycle():
    # on an abelian algebra every antisymmetric theta is a cocycle
    theta = np.zeros((2, 2, 2))
    theta[0, 1] = [1.0, 0.5]
    theta[1, 0] = [-1.0, -0.5]
    m = central_extension_metric(LieAlgebra(2, {}), theta)
    assert is_ricci_parallel(m).ok
    assert structure_report(m.algebra).is_nilpotent


@pytest.mark.parametrize("dalg_factory", [lambda: LieAlgebra(2, {}),
                                          lambda: make_heisenberg(1), make_affine])
def test_bordemann_is_ad_invariant(dalg_factory):
    m = bordemann_cotangent(dalg_factory())
    ok, res = is_ad_invariant(m)
    assert ok and res < 1e-13
    assert np.max(np.abs(ricci(m).tensor + 0.25 * killing_form(m.algebra))) < 1e-12
    assert is_ricci_parallel(m).ok


def test_bordemann_heisenberg_is_nilpotent_flat():
    m = bordemann_cotangent(make_heisenberg(1))
    assert m.dim == 6
    assert structure_report(m.algebra).is_nilpotent
    assert is_ricci_flat(m)[0]


def test_bordemann_rejects_non_cyclic_theta():
    theta = np.zeros((2, 2, 2))
    theta[0, 1] = [1.0, 0.0]
    theta[1, 0] = [-1.0, 0.0]
    # antisymmetric but theta(x,y)(z) + theta(x,z)(y) != 0
    with pytest.raises(CyclicityError):
        bordemann_cotangent(LieAlgebra(2, {}), theta)


def test_bordemann_cyclic_theta_accepted():
    # a totally antisymmetric 3-form works on an abelian algebra
    theta = np.zeros((3, 3, 3))
    for perm, sgn in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                      ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]:
        theta[perm] = sgn
    m = bordemann_cotangent(LieAlgebra(3, {}), theta)
    assert is_ad_invariant(m)[0]


def _three_form(dim, axes):
    """theta with theta[a, b, c] the sign of (a, b, c) as a permutation of ``axes``, else 0."""
    theta = np.zeros((dim, dim, dim))
    for perm in itertools.permutations(range(3)):
        theta[tuple(axes[i] for i in perm)] = np.linalg.det(np.eye(3)[list(perm)])
    return theta


def test_bordemann_accepts_coadjoint_cocycle_on_non_abelian_base():
    # aff + R with theta = e^0 ^ e^1 ^ e^2: on a 3-dimensional base every cyclic theta is a coadjoint cocycle
    m = bordemann_cotangent(LieAlgebra(3, {(0, 1): [0.0, 1.0, 0.0]}), _three_form(3, (0, 1, 2)))
    assert validate_jacobi(m.algebra) == 0.0
    assert is_ad_invariant(m)[0]
    assert np.max(np.abs(ricci(m).tensor + 0.25 * killing_form(m.algebra))) == pytest.approx(0.0, abs=1e-12)
    assert is_ricci_parallel(m).ok
    assert classify_ricci(m).tag == "type_II"


def test_bordemann_rejects_non_cocycle_through_jacobi():
    # aff + R^2 with theta = e^1 ^ e^2 ^ e^3 is cyclic but not a coadjoint cocycle
    dalg = LieAlgebra(4, {(0, 1): [0.0, 1.0, 0.0, 0.0]})
    with pytest.raises(CocycleError) as info:
        bordemann_cotangent(dalg, _three_form(4, (1, 2, 3)))
    assert isinstance(info.value.__cause__, JacobiError)


def test_dual_extensions_reject_a_non_lie_base_as_jacobi():
    # a base passed under a looser tolerance is judged again by the construction's
    bad = LieAlgebra(3, {(0, 1): [0.0, 0.0, 1.0], (0, 2): [-2.0, 0.0, 0.0], (1, 2): [0.0, 2.0, 1e-3]})
    bad.validate(Tolerance(abs=1e-1))
    for build in (central_extension_metric, bordemann_cotangent):
        with pytest.raises(JacobiError):
            build(bad)


def test_two_step_flat_case():
    m = two_step_parallel(2, (0, 2), [np.zeros((2, 2))])
    assert is_ricci_flat(m)[0]
    assert is_ricci_parallel(m).ok


def test_two_step_heisenberg_presentations():
    theta = np.zeros((2, 2, 1))
    theta[0, 1, 0] = 1.0
    theta[1, 0, 0] = -1.0
    m = two_step_parallel(1, (0, 1), [np.zeros((1, 1))], theta=theta)
    assert m.dim == 3
    rep = structure_report(m.algebra)
    assert rep.is_nilpotent and rep.nilpotency_step == 2
    assert is_ricci_parallel(m).ok


def test_two_step_derivation_instance_nonflat():
    d = np.zeros((2, 2))
    d[1, 0] = 1.0
    m = two_step_parallel(2, (0, 2), [d])
    assert is_ricci_parallel(m).ok
    assert np.max(np.abs(ricci(m).operator)) > 1e-3


def test_two_step_with_theta_nonflat():
    d = np.zeros((2, 2))
    d[1, 0] = 1.0
    theta = np.zeros((3, 3, 1))
    theta[0, 1, 0] = 1.0
    theta[1, 0, 0] = -1.0
    m = two_step_parallel(2, (0, 2), [d], theta=theta)
    assert is_ricci_parallel(m).ok
    assert np.max(np.abs(ricci(m).operator)) > 1e-3


def test_two_step_signature():
    m = two_step_parallel(3, (1, 2), [np.zeros((3, 3))] * 2)
    assert tuple(signature(m.metric)) == (2 + 1, 2 + 2)


def test_two_step_rejects_non_commuting():
    d1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    d2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NonCommutingError):
        two_step_parallel(2, (0, 2), [d1, d2])


def test_two_step_rejects_bad_alpha():
    # three commuting derivations, alpha violating the cyclic condition
    d = np.eye(2)
    alpha = np.zeros((3, 3, 2))
    alpha[0, 1] = [1.0, 0.0]
    alpha[1, 0] = [-1.0, 0.0]
    with pytest.raises(CocycleError):
        two_step_parallel(2, (0, 2), [d, d, d], alpha=alpha)


def test_two_step_rejects_theta_that_is_not_a_cocycle():
    # theta(e_0, e_1) = 1 on g0: [d, e_0] = e_0 and [d, e_1] = e_1 make the cyclic sum 2
    theta = np.zeros((3, 3, 1))
    theta[1, 2, 0] = 1.0
    theta[2, 1, 0] = -1.0
    with pytest.raises(CocycleError) as info:
        two_step_parallel(2, (0, 2), [np.eye(2)], theta=theta)
    assert isinstance(info.value.__cause__, JacobiError)


@pytest.mark.parametrize("g0_dim,signature,derivations", [
    (2, (-1, 3), [np.zeros((2, 2))]),
    (-1, (0, -1), []),
    (2, ("1", "1"), [np.zeros((2, 2))]),
    (2, (1.0, 1), [np.zeros((2, 2))]),
    (2.0, (1, 1), [np.zeros((2, 2))]),
    (True, (0, True), [np.zeros((1, 1))]),
    (2, (1, 1, 0), [np.zeros((2, 2))]),
])
def test_two_step_rejects_bad_sizes(g0_dim, signature, derivations):
    with pytest.raises(BadParamsError):
        two_step_parallel(g0_dim, signature, derivations)


def test_two_step_rejects_dimension_above_max_dim():
    with pytest.raises(BadParamsError, match="above the limit"):
        two_step_parallel(10**6, (0, 10**6), [])
    # a derivation of the wrong shape fails only after the dimension check, so
    # the boundary is probed by size arithmetic alone, without allocating
    wrong_shape = [np.zeros((1, 1))]
    with pytest.raises(BadParamsError, match=f"dimension {MAX_DIM + 1}, above the limit"):
        two_step_parallel(MAX_DIM - 1, (0, MAX_DIM - 1), wrong_shape)
    with pytest.raises(DimensionMismatchError, match="derivation must have shape"):
        two_step_parallel(MAX_DIM - 2, (0, MAX_DIM - 2), wrong_shape)


def test_two_step_accepts_numpy_integer_sizes():
    m = two_step_parallel(np.int64(2), (np.int32(1), np.int64(1)), [np.zeros((2, 2))])
    assert tuple(signature(m.metric)) == (2, 2)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_heisenberg_eigenvalues():
    m = catalog("heisenberg", n=1)
    eig = np.sort(np.linalg.eigvalsh(0.5 * (ricci(m).operator + ricci(m).operator.T)))
    assert_allclose(eig, [-1 / 3, -1 / 3, 1 / 3], atol=1e-12)


def test_catalog_einstein_solvable():
    m = catalog("einstein_solvable", n=2)
    c, res = is_einstein(m)
    assert c == pytest.approx(-1.0, abs=1e-12)
    assert res < 1e-12


def test_catalog_sl_killing_ricci():
    m = catalog("sl_killing", n=2)
    assert_allclose(ricci(m).operator, -0.25 * np.eye(3), atol=1e-13)
    # the catalog gram is the genuine Killing form
    assert_allclose(m.gram, killing_form(m.algebra), atol=1e-12)


def test_catalog_sl_complex_classifies():
    m = catalog("sl_complex_typeI", n=2, lam=1, mu=2)
    cls = classify_ricci(m)
    assert cls.tag == "type_I"
    assert cls.lam == pytest.approx(1.0, abs=1e-10)
    assert cls.mu == pytest.approx(2.0, abs=1e-10)


def test_catalog_unknown_name():
    with pytest.raises(UnknownNameError):
        catalog("so_killing", n=2)


def test_catalog_bad_params():
    with pytest.raises(BadParamsError):
        catalog("heisenberg", n=0)
    with pytest.raises(BadParamsError):
        catalog("heisenberg")
    with pytest.raises(BadParamsError):
        catalog("abelian", p=0, q=0)
    with pytest.raises(BadParamsError):
        catalog("sl_complex_typeI", n=2)
    with pytest.raises(BadParamsError):
        catalog("affine_plane", n=1)


def test_huge_inputs_raise_a_library_error_not_overflow():
    # squaring these as Python floats would raise OverflowError
    with pytest.raises(LieMetricError):
        LieAlgebra(2, {(0, 1): [0.0, 1e200]}).validate()
    with pytest.raises(LieMetricError):
        double_extension(DoubleExtensionSpec(euclidean_abelian(1), [[0.0]], [[0.0]], [1e300]))
    with pytest.raises(LieMetricError):
        type_I_metric(catalog("sl_killing", n=2), 1e200, 1.0)


def test_tensors_reject_strings_and_booleans():
    # a cast to float would read "1" and True as 1.0
    c = make_affine().tensor.tolist()
    c[0][1][1], c[1][0][1] = "1", "-1"
    with pytest.raises(LieMetricError):
        LieAlgebra.from_tensor(c)
    theta = np.zeros((2, 2, 2)).tolist()
    theta[0][1][0], theta[1][0][0] = True, -1.0
    with pytest.raises(LieMetricError):
        central_extension_metric(LieAlgebra(2, {}), theta)
    alpha = np.zeros((1, 1, 1)).tolist()
    alpha[0][0][0] = False
    with pytest.raises(LieMetricError):
        two_step_parallel(1, (0, 1), [[[0.0]]], alpha=alpha)
