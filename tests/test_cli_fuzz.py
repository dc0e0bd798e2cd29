"""Fuzzed algebra, extension and catalog inputs: every command exits 0, 2, 3 or 4, never with a traceback.

A document with a field the file format forbids, or whose only fault is a
string or a boolean in place of a number, exits 2.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from liemetric.cli import main
from liemetric.constructions import CATALOG_NAMES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# finite numbers of every size, the bounds of the accepted range, NaN and the infinities
numbers = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1e-300, 5e-324, 1e50, -1e50, 1.0000001e50, 1e154, 1e300]),
    st.integers(-10 ** 400, 10 ** 400),
)
junk = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=3),
                 st.lists(st.integers(-1, 3), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def matrices(n):
    return st.lists(st.lists(st.one_of(numbers, junk), min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def well_formed(draw):
    """An algebra document of the right shape: dim 1-4, i < j, a diagonal metric; any numbers."""
    dim = draw(st.integers(1, 4))
    keys = st.sampled_from([str(k) for k in range(dim)])
    brackets = [{"i": i, "j": j, "coeffs": draw(st.dictionaries(keys, numbers, max_size=dim))}
                for i in range(dim) for j in range(i + 1, dim) if draw(st.booleans())]
    diag = draw(st.lists(numbers, min_size=dim, max_size=dim))
    metric = [[diag[r] if r == c else 0 for c in range(dim)] for r in range(dim)]
    return {"dim": dim, "brackets": brackets, "metric": metric}


def format_allows(field: str, value, dim: int) -> bool:
    """Whether the file format (README, "Command line") allows ``value`` in ``field`` of a ``dim``-dimensional file.

    The rest of the document may still make it invalid.
    """
    if field in ("dim", "i", "j"):
        return type(value) is int  # a bool is not an integer here
    if field == "brackets":
        return isinstance(value, list) and all(isinstance(rec, dict) for rec in value)
    if field == "metric":
        return isinstance(value, list) and len(value) == dim and all(isinstance(row, list) for row in value)
    if field == "basis_names":
        return value is None or isinstance(value, list) and len(value) == dim and all(isinstance(s, str) for s in value)
    return isinstance(value, dict)  # coeffs


@st.composite
def corrupted(draw):
    """A valid document with one field, or one field of its bracket record, replaced by junk.

    The document is [e_0, e_1] = c e_(dim-1) in dim 2-4 with a diagonal metric of
    any signature.  Returns it and whether the file format allows the replaced value.
    """
    dim = draw(st.integers(2, 4))
    diag = draw(st.lists(st.sampled_from([-1.0, 1.0, 2.5]), min_size=dim, max_size=dim))
    doc = {"dim": dim, "brackets": [{"i": 0, "j": 1, "coeffs": {str(dim - 1): draw(st.floats(0.5, 2.0))}}],
           "metric": np.diag(diag).tolist()}
    field = draw(st.sampled_from(["dim", "brackets", "metric", "basis_names", "i", "j", "coeffs"]))
    value = draw(junk)
    if field in ("i", "j", "coeffs"):
        doc["brackets"][0][field] = value
    else:
        doc[field] = value
    return doc, format_allows(field, value, dim)


index = st.one_of(st.integers(-1, 4), junk)
record = st.one_of(junk, st.fixed_dictionaries({"i": index, "j": index}, optional={
    "coeffs": st.one_of(junk, st.dictionaries(st.sampled_from(["0", "1", "2", "-1", "x", "1.0"]), st.one_of(numbers, junk),
                                              max_size=3))}))
malformed = st.one_of(junk, st.fixed_dictionaries({}, optional={
    "dim": st.one_of(st.integers(-1, 4), junk),
    "brackets": st.one_of(junk, st.lists(record, max_size=3)),
    "metric": st.one_of(junk, st.integers(1, 3).flatmap(matrices)),
    "basis_names": st.one_of(junk, st.lists(junk, max_size=3)),
}))
extension = st.one_of(junk, st.fixed_dictionaries({}, optional={
    "D": st.one_of(junk, st.integers(0, 3).flatmap(matrices)),
    "K": st.one_of(junk, st.integers(0, 3).flatmap(matrices)),
    "L": st.one_of(junk, st.lists(numbers, max_size=3)),
}))
params = st.dictionaries(st.sampled_from(["n", "lam", "mu", "p", "q", "kind", "dim"]),
                         st.one_of(numbers, st.integers(-1, 4), st.sampled_from(["solvable", "nilpotent"]), junk),
                         max_size=3)


def exit_code(args) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main([str(a) for a in args])
        except SystemExit as exc:  # argparse rejecting an argument
            return exc.code


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                     suppress_health_check=list(hypothesis.HealthCheck))
@hypothesis.given(st.one_of(well_formed().map(lambda d: (d, True)), corrupted(), malformed.map(lambda d: (d, True))),
                  extension, st.sampled_from(CATALOG_NAMES), params, numbers, numbers)
def test_cli_exit_codes_are_documented(case, ext_doc, name, catalog_params, lam, mu):
    # every command but catalog reads the algebra file first, so a field the format forbids exits 2
    doc, may_be_valid = case
    with tempfile.TemporaryDirectory() as tmp:
        algebra, ext = Path(tmp) / "a.json", Path(tmp) / "ext.json"
        algebra.write_text(json.dumps(doc), encoding="utf-8")
        ext.write_text(json.dumps(ext_doc), encoding="utf-8")
        for args in (["validate", algebra], ["report", algebra], ["report", tmp], ["decompose", algebra],
                     ["complexify", algebra], ["complexify", algebra, "--type1", lam, mu],
                     ["double-extend", algebra, ext]):
            assert exit_code(args) in ((0, 2, 3, 4) if may_be_valid else (2,)), args
        args = ["catalog", name, "--params", json.dumps(catalog_params)]
        assert exit_code(args) in (0, 2, 3, 4), args


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                     suppress_health_check=list(hypothesis.HealthCheck))
@hypothesis.given(corrupted())
def test_fields_the_format_forbids_are_parse_errors(case):
    doc, allowed = case
    with tempfile.TemporaryDirectory() as tmp:
        algebra = Path(tmp) / "a.json"
        algebra.write_text(json.dumps(doc), encoding="utf-8")
        assert exit_code(["validate", algebra]) in ((0, 2) if allowed else (2,))


non_number = st.one_of(st.booleans(), st.sampled_from(["1", "0", "", "1e3", "nan"]))


@st.composite
def one_non_number(draw):
    """An algebra document and extension data that are well-formed but for one string or boolean.

    It sits in a metric entry of the document, or in a D, K or L entry of
    the extension data, whose base is then the Euclidean abelian algebra.
    """
    doc = draw(well_formed())
    dim = doc["dim"]
    finite = st.floats(-1e3, 1e3)
    ext = {"D": draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=dim, max_size=dim)),
           "K": draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=dim, max_size=dim)),
           "L": draw(st.lists(finite, min_size=dim, max_size=dim))}
    field = draw(st.sampled_from(["metric", "D", "K", "L"]))
    r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    if field == "metric":
        doc["metric"][r][c] = draw(non_number)
    else:
        doc = {"dim": dim, "brackets": [], "metric": np.eye(dim).tolist()}
        if field == "L":
            ext["L"][r] = draw(non_number)
        else:
            ext[field][r][c] = draw(non_number)
    return field, doc, ext


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                     suppress_health_check=list(hypothesis.HealthCheck))
@hypothesis.given(one_non_number())
def test_strings_and_booleans_are_parse_errors(case):
    field, doc, ext_doc = case
    with tempfile.TemporaryDirectory() as tmp:
        algebra, ext = Path(tmp) / "a.json", Path(tmp) / "ext.json"
        algebra.write_text(json.dumps(doc), encoding="utf-8")
        ext.write_text(json.dumps(ext_doc), encoding="utf-8")
        commands = [["double-extend", algebra, ext]]
        if field == "metric":
            commands += [["validate", algebra], ["report", algebra], ["report", tmp], ["decompose", algebra],
                         ["complexify", algebra], ["complexify", algebra, "--type1", 1, 2]]
        for args in commands:
            assert exit_code(args) == 2, (field, args)
