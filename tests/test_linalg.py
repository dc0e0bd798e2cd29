import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liemetric
from liemetric import (
    DEFAULT_TOL,
    Signature,
    SymmetricForm,
    Tolerance,
    metric_adjoint,
    operator_residual,
    pseudo_orthonormal_basis,
    signature,
)
from liemetric.cli import build_report
from liemetric.errors import DegenerateFormError, DimensionMismatchError, ParseError
from references import max_abs


def random_form(rng, dim, p):
    eps = np.array([-1.0] * p + [1.0] * (dim - p))
    a = rng.normal(size=(dim, dim))
    u, _, vt = np.linalg.svd(a)
    pm = u @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ vt
    return SymmetricForm(pm.T @ np.diag(eps) @ pm)


def test_tolerance_fields_positive():
    with pytest.raises(ValueError):
        Tolerance(abs=0.0)
    with pytest.raises(ValueError):
        Tolerance(rel=-1e-9)


def test_tolerance_threshold():
    tol = Tolerance(abs=1e-9, rel=1e-6, rank=1e-8)
    assert 1e-9 <= tol.threshold(0.0)
    assert 1e-7 <= tol.threshold(1.0)
    assert not 1e-3 <= tol.threshold(1.0)


def test_residual_beyond_the_double_range_at_unit_scale_fails():
    # 1e308 * 2**1200 overflows in ldexp: the residual fails instead of raising
    assert not Tolerance().passes(1e308, "nabla_ric", (-400, 0))


def test_operator_residual_values():
    assert operator_residual(np.zeros((3, 3))) == 0.0
    assert operator_residual(np.eye(3)) == 1.0
    assert operator_residual([[0.0, 2.0], [-1.0, 0.0]]) == 2.0


@pytest.mark.parametrize("a", [np.zeros((2, 3)), -np.zeros(4), np.array([0.0, -0.0]), np.zeros((0, 3)), []])
def test_operator_residual_of_a_zero_or_empty_array_is_positive_zero(a):
    res = operator_residual(a)
    assert type(res) is float and res == 0.0 and math.copysign(1.0, res) == 1.0


@pytest.mark.parametrize("a", [[np.nan], [1.0, np.nan, -2.0], [-np.inf, np.nan], [[0.0, -0.0], [np.nan, 3.0]]])
def test_operator_residual_keeps_nan(a):
    assert math.isnan(operator_residual(a))


def test_operator_residual_is_the_max_of_the_absolute_values_bit_for_bit():
    rng = np.random.default_rng(26)
    for a in [rng.normal(size=(5, 7)), -np.abs(rng.normal(size=9)), np.abs(rng.normal(size=(3, 3, 3))),
              np.array([-np.inf, 1.0]), np.array([5e-324, -5e-324]), np.array([-0.0, 2.0**-1074])]:
        assert np.float64(operator_residual(a)).tobytes() == np.float64(max_abs(a)).tobytes()


def test_signature_diagonal():
    form = SymmetricForm(np.diag([-1.0, 1.0, 1.0]))
    assert signature(form) == Signature(1, 2)


def test_signature_euclidean():
    assert signature(SymmetricForm(np.eye(4))) == Signature(0, 4)


def test_signature_hyperbolic_plane():
    gram = np.array([[0.0, 1.0], [1.0, 0.0]])
    # independent oracle: direct 2x2 eigensolve
    vals = np.linalg.eigvalsh(gram)
    assert_allclose(sorted(vals), [-1.0, 1.0], atol=1e-15)
    assert signature(SymmetricForm(gram)) == Signature(1, 1)


def test_degenerate_form_rejected():
    with pytest.raises(DegenerateFormError):
        SymmetricForm(np.diag([1.0, 0.0]))


def test_degeneracy_cut_is_relative_to_the_form():
    # the cut is tol.rank * 2**k_g, never below 1/MAX_ABS (the inverse must stay a finite double)
    assert signature(SymmetricForm(np.diag([3e-12, -1e-12]))) == Signature(1, 1)
    for gram in (np.diag([1e6, 1e-3]), [[5e-324]], np.diag([1e-60, 1e-60])):
        with pytest.raises(DegenerateFormError):
            SymmetricForm(gram)


def test_asymmetric_gram_rejected():
    with pytest.raises(ValueError):
        SymmetricForm([[1.0, 0.5], [0.0, 1.0]])


def test_non_square_gram_rejected():
    with pytest.raises(DimensionMismatchError, match="must be square"):
        SymmetricForm(np.zeros((2, 3)))


@pytest.mark.parametrize("dim", range(2, 9))
def test_signature_congruence_invariance(rng, dim):
    # Sylvester's law: signature survives any congruence G -> P^T G P
    p = int(rng.integers(0, dim + 1))
    form = random_form(rng, dim, p)
    sig = signature(form)
    for _ in range(3):
        pm = rng.normal(size=(dim, dim))
        while abs(np.linalg.det(pm)) < 1e-3:
            pm = rng.normal(size=(dim, dim))
        assert signature(SymmetricForm(pm.T @ form.gram @ pm)) == sig


def test_ponb_one_dimensional_scaling():
    basis, signs = pseudo_orthonormal_basis(SymmetricForm([[4.0]]))
    assert_allclose(basis, [[0.5]])
    assert list(signs) == [1]


def test_ponb_identity_is_identity():
    basis, signs = pseudo_orthonormal_basis(SymmetricForm(np.eye(5)))
    assert_allclose(basis, np.eye(5))
    assert list(signs) == [1] * 5


def test_ponb_hyperbolic_plane():
    form = SymmetricForm([[0.0, 1.0], [1.0, 0.0]])
    basis, signs = pseudo_orthonormal_basis(form)
    assert list(signs) == [-1, 1]
    assert_allclose(basis.T @ form.gram @ basis, np.diag(signs), atol=1e-14)


@pytest.mark.parametrize("dim", range(2, 7))
def test_ponb_postcondition_random(rng, dim):
    p = int(rng.integers(0, dim + 1))
    form = random_form(rng, dim, p)
    basis, signs = pseudo_orthonormal_basis(form)
    scale = max(1.0, operator_residual(form.gram))
    assert_allclose(basis.T @ form.gram @ basis, np.diag(signs),
                    atol=DEFAULT_TOL.abs * scale * 100)
    # negatives first, counts match the signature
    assert list(signs) == sorted(signs)
    assert int(np.sum(signs < 0)) == signature(form).p


def test_metric_adjoint_euclidean_is_transpose():
    form = SymmetricForm(np.eye(3))
    a = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(metric_adjoint(a, form), a.T)


def test_metric_adjoint_hyperbolic_formula():
    form = SymmetricForm([[0.0, 1.0], [1.0, 0.0]])
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(metric_adjoint(a, form), [[4.0, 2.0], [3.0, 1.0]], atol=1e-15)


def test_metric_adjoint_skew_negates(rng):
    form = random_form(rng, 4, 1)
    w = rng.normal(size=(4, 4))
    w = w - w.T
    k = np.linalg.solve(form.gram, w)  # G K is skew => K* = -K
    assert_allclose(metric_adjoint(k, form), -k, atol=1e-12)


def test_metric_adjoint_defining_identity_and_involution(rng):
    for dim in (2, 3, 5):
        p = int(rng.integers(0, dim + 1))
        form = random_form(rng, dim, p)
        a = rng.normal(size=(dim, dim))
        astar = metric_adjoint(a, form)
        for _ in range(5):
            x, y = rng.normal(size=dim), rng.normal(size=dim)
            assert abs(form.inner(a @ x, y) - form.inner(x, astar @ y)) < 1e-10
        assert_allclose(metric_adjoint(astar, form), a, atol=1e-10)


def test_form_is_diagonalised_once(rng, monkeypatch):
    form = random_form(rng, 5, 2)
    calls = []
    for name in ("eig", "eigh", "eigvalsh", "eigvals"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k))
    assert signature(form) == Signature(2, 3)
    basis, signs = pseudo_orthonormal_basis(form)
    assert_allclose(basis.T @ form.gram @ basis, np.diag(signs), atol=1e-12)
    assert calls == []


def test_stored_spectrum_is_checked_against_the_given_tolerance():
    form = SymmetricForm(np.diag([1e-3, -1.0]))
    assert signature(form) == Signature(1, 1)
    with pytest.raises(DegenerateFormError):
        SymmetricForm(np.diag([1e-3, -1.0]), Tolerance(rank=1e-2))


def test_tolerance_policy_lives_in_linalg():
    # every pass/fail decision goes through Tolerance.passes and its degree table
    for path in Path(liemetric.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\.residual_scale\(", text), path.name
        if path.name != "linalg.py":
            assert ".threshold(" not in text, path.name


def test_only_constructors_take_a_tolerance():
    # every other verdict uses the tolerance of its metric algebra or spec base
    public = {"cli.build_report": build_report}
    for name in liemetric.__all__:
        obj = getattr(liemetric, name)
        if callable(obj):
            public[name] = obj
        if inspect.isclass(obj):
            public.update({f"{name}.{attr}": getattr(obj, attr) for attr in vars(obj)
                           if not attr.startswith("_") and callable(getattr(obj, attr))})
    takes_tol = {name for name, fn in public.items() if "tol" in inspect.signature(fn).parameters}
    assert takes_tol == {"SymmetricForm", "MetricLieAlgebra", "LieAlgebra.validate", "structure_report", "catalog",
                         "central_extension_metric", "bordemann_cotangent", "two_step_parallel"}
    assert "cls" not in inspect.signature(liemetric.type_I_decomposition).parameters


@pytest.mark.parametrize("dtype", [bool, str, complex])
def test_empty_array_of_any_dtype_reads_as_zeros(dtype):
    for shape in [(0,), (0, 3), (0, 0, 0)]:
        arr = liemetric.linalg.as_real_array(np.zeros(shape, dtype=dtype))
        assert arr.dtype == float and arr.shape == shape
    g = liemetric.LieAlgebra.from_tensor(np.zeros((0, 0, 0), dtype=dtype))
    assert g.dim == 0 and g.tensor.shape == (0, 0, 0)


def test_plain_numbers_are_checked_in_bulk(monkeypatch):
    from liemetric import linalg

    calls = []
    is_real = linalg._is_real
    monkeypatch.setattr(linalg, "_is_real", lambda x: calls.append(x) or is_real(x))
    gram = [[float(r == c) for c in range(48)] for r in range(48)]
    gram[0][1] = 2
    assert np.array_equal(linalg.as_real_array(gram), np.array(gram, dtype=float))
    assert calls == []
    # the bulk check fails over to the search by _is_real, which names the entry
    assert np.array_equal(linalg.as_real_array([np.float64(0.5), 2]), [0.5, 2.0])
    for bad, shown in ((10 ** 400, str(10 ** 400)), (10 ** 60, str(10 ** 60)), (float("nan"), "nan"), (True, "True")):
        with pytest.raises(ParseError, match=rf"value for index \(1, 0\) is {shown}, "):
            linalg.as_real_array([[1.0, 2.0], [bad, 3.0]])


def _nested(leaf, depth: int):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


@pytest.mark.parametrize("depth", [33, 64, 65, 900])
def test_lists_nested_past_numpys_dimension_limit_are_dimension_mismatches(depth):
    from liemetric.linalg import as_matrix, as_real_array, as_vector

    # numpy builds at most 64 dimensions and keeps deeper lists as entries; both must fail on the shape
    for coerce in (lambda a: as_matrix(a, name="m"), lambda a: as_vector(a, name="m")):
        with pytest.raises(DimensionMismatchError, match="^m "):
            coerce(_nested(1.0, depth))
    if depth > 64:
        with pytest.raises(DimensionMismatchError, match="^m nests lists more than 64 deep$"):
            as_real_array(_nested(1.0, depth), "m")


def test_a_bad_entry_past_32_dimensions_is_named():
    from liemetric.linalg import as_real_array

    with pytest.raises(ParseError, match=r"^m value for index \(0(, 0){39}\) is 'x', "):
        as_real_array(_nested("x", 40), "m")
