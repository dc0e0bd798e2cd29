"""The package's connection, Ricci, parallel verdict and double-extension invariants against exact rational
arithmetic on its own inputs."""

from fractions import Fraction

import numpy as np
import pytest

import exact
from liemetric import LieAlgebra, MetricLieAlgebra, catalog
from liemetric.constructions import (DoubleExtensionSpec, check_parallel_conditions, complexify, double_extension,
                                     type_I_metric)
from liemetric.geometry import connection, is_ricci_parallel, ricci, ricci_structural

# (entry, parameters, whether nabla ric is zero): the Heisenberg nilsolitons are the non-parallel ones
CASES = [
    ("sl_killing", {"n": 2}, True),
    ("sl_killing", {"n": 3}, True),
    ("affine_plane", {}, True),
    ("heisenberg", {"n": 1}, False),
    ("heisenberg", {"n": 2}, False),
    ("heisenberg", {"n": 3}, False),
    ("heisenberg", {"n": 4}, False),
    ("einstein_solvable", {"n": 1}, True),
    ("einstein_solvable", {"n": 2}, True),
    ("einstein_solvable", {"n": 3}, True),
    ("einstein_solvable", {"n": 4}, True),
    ("abelian", {"p": 1, "q": 2}, True),
    ("double_ext_demo", {"kind": "solvable", "dim": 2}, True),
    ("double_ext_demo", {"kind": "solvable", "dim": 4}, True),
    ("double_ext_demo", {"kind": "nilpotent", "dim": 2}, True),
    ("double_ext_demo", {"kind": "nilpotent", "dim": 4}, True),
    ("sl_complex_typeI", {"n": 2, "lam": 1.0, "mu": 2.0}, True),
    ("sl_complex_typeI", {"n": 2, "lam": 0.0, "mu": 1.0}, True),
    ("sl_complex_typeI", {"n": 2, "lam": -1.5, "mu": 0.25}, True),
]
# ulps of the largest exact entry: measured at most 2.47, for ric read back through the frame as Q^T ric_F Q
# (sl(3), the type-I metrics on sl(2, C)); the structural route at most 1.0 and the connection below 0.06
ULPS = 4


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"{case[0]}-{'-'.join(map(str, case[1].values()))}")
def case(request):
    name, params, parallel = request.param
    m = catalog(name, **params)
    return m, exact.geometry(m), parallel


def _ulps(approx, want: np.ndarray) -> float:
    """max |approx - want| in units of eps times max |want|, both taken exactly; a zero ``want`` asks for equality."""
    err, scale = exact.error(approx, want), exact.max_abs(want)
    return float(err / (scale * np.finfo(float).eps)) if scale else (0.0 if err == 0 else np.inf)


def test_connection_and_both_ricci_routes_are_within_a_few_ulps_of_exact(case):
    m, (n_conn, ric, _), _ = case
    assert _ulps(connection(m), n_conn) <= ULPS
    assert _ulps(ricci(m).tensor, ric) <= ULPS
    assert _ulps(ricci_structural(m), ric) <= ULPS


def test_parallel_verdict_agrees_with_exact_nabla_ric(case):
    # exact nabla ric is 0, or at most 1.5e-16 where sqrt entries are rounded (einstein_solvable), or 0.24-0.27 (H_n)
    m, (*_, nabla), parallel = case
    assert m.tol.passes(float(exact.max_abs(nabla)), "nabla_ric", m.exponents) == parallel
    assert is_ricci_parallel(m).ok == parallel


@pytest.mark.parametrize("lam, mu", [(0.0, 1.0), (1.0, 2.0), (-1.5, 0.25)])
def test_type_I_ricci_operator_is_exactly_lam_plus_mu_J(lam, mu):
    # exact g^-1 ric of the metric's own floats against lam Id + mu J, J the block complex structure of complexify;
    # measured 0, 0.25 and 0.25 ulps of max(|lam|, |mu|)
    m = type_I_metric(catalog("sl_killing", n=2), lam, mu)
    operator = exact._inverse(exact.rational(m.gram)) @ exact.geometry(m)[1]
    j = complexify(catalog("sl_killing", n=2))[1]
    want = exact.rational(lam * np.eye(m.dim)) + exact.rational(mu * j)
    assert exact.max_abs(operator - want) <= ULPS * Fraction(np.finfo(float).eps) * Fraction(max(abs(lam), abs(mu)))


def _demo_spec(kind: str, dim: int) -> DoubleExtensionSpec:
    """The data ``catalog("double_ext_demo", kind=kind, dim=dim)`` extends its abelian base by."""
    base, zero = catalog("abelian", p=0, q=dim), np.zeros((dim, dim))
    if kind == "solvable":
        return DoubleExtensionSpec(base, np.eye(dim), zero, np.zeros(dim))
    return DoubleExtensionSpec(base, zero, np.kron(np.eye(dim // 2), [[0.0, 1.0], [-1.0, 0.0]]), np.zeros(dim))


_AFFINE = catalog("affine_plane")
_E2 = MetricLieAlgebra(LieAlgebra(3, {(0, 2): [0.0, -1.0, 0.0], (1, 2): [1.0, 0.0, 0.0]}), np.eye(3))
# every entry but the last has small integer data, on which the package's floats come out exact; the last has a
# skewed base metric and a derivation with rounded entries, so it is the one that measures rounding, and it is not
# Ricci-parallel (C2, C4 and C5 are nonzero)
SPECS = {
    **{f"double_ext_demo-{kind}-{dim}": _demo_spec(kind, dim) for kind in ("solvable", "nilpotent") for dim in (2, 4)},
    "affine_plane-D01": DoubleExtensionSpec(_AFFINE, np.diag([0.0, 1.0]), np.zeros((2, 2)), np.zeros(2)),
    "e2-D110": DoubleExtensionSpec(_E2, np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3)), np.zeros(3)),
    "affine_plane-skewed": DoubleExtensionSpec(MetricLieAlgebra(_AFFINE.algebra, [[2.0, 0.3], [0.3, 1.0]]),
                                               [[0.0, 0.0], [0.7, 1 / 3]], np.zeros((2, 2)), np.zeros(2)),
}
# ulps of the largest exact term a condition sums: measured at most 1.64 (C5 of the skewed entry), 0 on the rest
CONDITION_ULPS = 4


@pytest.fixture(scope="module", params=list(SPECS))
def extension(request):
    spec = SPECS[request.param]
    delta, gamma = exact.extension_invariants(spec)
    return spec, check_parallel_conditions(spec), delta, gamma


def _within(approx, want, scale: Fraction, ulps: int) -> bool:
    """|approx - want| <= ulps * eps * scale, entry by entry and exactly; a zero scale asks for equality."""
    return exact.error(approx, np.asarray(want, dtype=object)) <= ulps * Fraction(np.finfo(float).eps) * scale


def test_demo_specs_are_the_catalogs():
    for kind in ("solvable", "nilpotent"):
        for dim in (2, 4):
            m, built = catalog("double_ext_demo", kind=kind, dim=dim), double_extension(_demo_spec(kind, dim))
            assert np.array_equal(built.algebra.tensor, m.algebra.tensor) and np.array_equal(built.gram, m.gram)


def test_delta_and_gamma_are_within_a_few_ulps_of_exact(extension):
    # measured at most 0.28 ulps for Delta and 0.13 for Gamma (the skewed entry), 0 on the rest
    _, report, delta, gamma = extension
    assert _within(report.invariants.delta, delta, exact.max_abs(delta), ULPS)
    assert _within([report.invariants.gamma], [gamma], abs(gamma), ULPS)


def test_conditions_are_within_a_few_ulps_of_their_largest_term(extension):
    # C_k is often exactly 0, so it is held to the size of the terms that cancel in it
    spec, report, delta, _ = extension
    for name, (residual, largest) in exact.parallel_conditions(spec, delta).items():
        assert _within([report.conditions[name]], [exact.max_abs(residual)], largest, CONDITION_ULPS), name


def test_ricci_of_u_is_delta_plus_gamma_v(extension):
    spec, _, delta, gamma = extension
    m = double_extension(spec)  # basis (u, v, e_1..e_n)
    ric = exact.geometry(m)[1]
    ric_u = exact._inverse(exact.rational(m.gram)) @ ric[:, 0]
    assert list(ric_u) == [0, gamma, *delta]


def test_conditions_vanish_exactly_when_nabla_ric_does(extension):
    spec, report, delta, _ = extension
    conditions = all(exact.max_abs(res) == 0 for res, _ in exact.parallel_conditions(spec, delta).values())
    base_parallel = exact.max_abs(exact.geometry(spec.base)[2]) == 0
    parallel = exact.max_abs(exact.geometry(double_extension(spec))[2]) == 0
    assert (conditions and base_parallel) == parallel == report.ok
