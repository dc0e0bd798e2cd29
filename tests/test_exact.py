"""The package's connection, Ricci and parallel verdict against exact rational arithmetic on its own inputs."""

import numpy as np
import pytest

import exact
from liemetric import catalog
from liemetric.geometry import connection, is_ricci_parallel, ricci, ricci_structural

# (entry, parameters, whether nabla ric is zero): the Heisenberg nilsolitons are the non-parallel ones
CASES = [
    ("sl_killing", {"n": 2}, True),
    ("sl_killing", {"n": 3}, True),
    ("affine_plane", {}, True),
    ("heisenberg", {"n": 1}, False),
    ("heisenberg", {"n": 2}, False),
    ("einstein_solvable", {"n": 1}, True),
    ("double_ext_demo", {"kind": "solvable", "dim": 2}, True),
    ("double_ext_demo", {"kind": "solvable", "dim": 4}, True),
    ("double_ext_demo", {"kind": "nilpotent", "dim": 2}, True),
    ("double_ext_demo", {"kind": "nilpotent", "dim": 4}, True),
    ("sl_complex_typeI", {"n": 2, "lam": 1.0, "mu": 2.0}, True),
]
# ulps of the largest exact entry: measured at most 2.0, for ric read back through the frame as Q^T ric_F Q
# (sl(3), the type-I metric on sl(2, C)); the structural route at most 1.0 and the connection below 0.01
ULPS = 4


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"{case[0]}-{'-'.join(map(str, case[1].values()))}")
def case(request):
    name, params, parallel = request.param
    m = catalog(name, **params)
    return m, exact.geometry(m), parallel


def _ulps(approx, want: np.ndarray) -> float:
    """max |approx - want| in units of eps times max |want|, both taken exactly."""
    return float(exact.error(approx, want) / (exact.max_abs(want) * np.finfo(float).eps))


def test_connection_and_both_ricci_routes_are_within_a_few_ulps_of_exact(case):
    m, (n_conn, ric, _), _ = case
    assert _ulps(connection(m), n_conn) <= ULPS
    assert _ulps(ricci(m).tensor, ric) <= ULPS
    assert _ulps(ricci_structural(m), ric) <= ULPS


def test_parallel_verdict_agrees_with_exact_nabla_ric(case):
    # exact nabla ric is 0, or 2.7e-17 where sqrt entries are rounded (einstein_solvable n=1), or about 0.27
    m, (*_, nabla), parallel = case
    assert m.tol.passes(float(exact.max_abs(nabla)), "nabla_ric", m.exponents) == parallel
    assert is_ricci_parallel(m).ok == parallel
