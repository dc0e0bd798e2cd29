import functools
import inspect
import json
import random
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from liemetric import (LieAlgebra, MetricLieAlgebra, catalog, change_basis, cli, constructions, errors, frame, lie, linalg,
                       ricci_structural, structure_report)
from liemetric.cli import (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, algebra_to_dict, build_report, load_algebra_file,
                           main)
from sampling import random_invertible, random_metric_lie_algebra
from working_set import change_basis_peak, report_peak, traced_peak


def write_catalog(tmp_path, name, filename, **params):
    path = tmp_path / filename
    path.write_text(json.dumps(algebra_to_dict(catalog(name, **params))), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


def test_validate_ok(tmp_path, capsys):
    path = write_catalog(tmp_path, "heisenberg", "h1.json", n=1)
    assert run(["validate", path]) == EXIT_OK
    assert "OK" in capsys.readouterr().out


def test_validate_degenerate_metric(tmp_path, capsys):
    doc = {"dim": 2, "brackets": [], "metric": [[1.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert "nondegeneracy" in capsys.readouterr().err


def test_validate_asymmetric_metric(tmp_path, capsys):
    doc = {"dim": 2, "brackets": [], "metric": [[1, 0.5], [0, 1]]}
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert "ValidationError" in (err := capsys.readouterr().err) and "metric symmetry fails" in err


def test_validate_bad_bracket_order(tmp_path, capsys):
    doc = {"dim": 2, "brackets": [{"i": 1, "j": 0, "coeffs": {"0": 1.0}}],
           "metric": [[1.0, 0.0], [0.0, 1.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert "ParseError" in capsys.readouterr().err


def test_validate_jacobi_failure(tmp_path):
    doc = {"dim": 3,
           "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1.0}},
                        {"i": 0, "j": 2, "coeffs": {"0": 1.0}}],
           "metric": np.eye(3).tolist()}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE


@pytest.mark.parametrize("doc, field", [
    ({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": float("nan")}}]}, "coefficient value for index 1"),
    ({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": float("-inf")}}]}, "coefficient value for index 0"),
    ({"dim": 2, "metric": [[1.0, 0.0], [0.0, float("inf")]]}, "field 'metric'"),
])
def test_non_finite_numbers_are_parse_errors(tmp_path, capsys, doc, field):
    doc = {"brackets": [], "metric": np.eye(2).tolist(), **doc}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity, as Python's json writes them
    assert run(["validate", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "ParseError" in err and field in err and "finite" in err


def test_non_finite_extension_data_is_parse_error(tmp_path, capsys):
    base = write_catalog(tmp_path, "abelian", "base.json", p=0, q=2)
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"D": [[float("nan"), 0.0], [0.0, 1.0]]}), encoding="utf-8")
    assert run(["double-extend", base, ext]) == EXIT_PARSE
    assert "finite" in capsys.readouterr().err


def test_validate_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE


# a UTF-16 byte-order mark, a lone continuation byte, the euro sign's three bytes cut after two
NOT_UTF8 = {"bom_ff_fe": b'\xff\xfe{\x00}\x00',
            "lone_0x80": b'{"dim": 1, "x": "\x80"}',
            "truncated": b'{"dim": 1, "x": "\xe2\x82"}'}


@pytest.mark.parametrize("raw", NOT_UTF8.values(), ids=NOT_UTF8.keys())
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, raw):
    bad_dir = tmp_path / "batch"
    bad_dir.mkdir()
    bad = bad_dir / "a_bad.json"
    bad.write_bytes(raw)
    write_catalog(bad_dir, "heisenberg", "b_h1.json", n=1)
    base = write_catalog(tmp_path, "abelian", "base.json", p=0, q=2)
    for args in (["validate", bad], ["report", bad], ["double-extend", base, bad]):
        assert run(args) == EXIT_PARSE, args
        assert "ParseError" in capsys.readouterr().err
    assert run(["report", bad_dir]) == EXIT_PARSE
    records = json.loads(capsys.readouterr().out)
    assert [r["file"] for r in records] == ["a_bad.json", "b_h1.json"]
    assert set(records[0]) == {"file", "error", "exit_code"} and records[0]["exit_code"] == EXIT_PARSE
    assert records[0]["error"].startswith("ParseError: ")
    assert records[1]["report"]["structure"]["is_nilpotent"]


# past the parser's recursion limit json raises RecursionError; an integer of over 4300 digits, ValueError
DEEP_JSON = "[" * 100000 + "]" * 100000
LONG_INT = "1" * 5000


def test_files_beyond_the_json_parsers_limits_are_parse_errors(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a_deep.json").write_text(DEEP_JSON, encoding="utf-8")
    (batch / "b_long.json").write_text(f'{{"dim": 1, "metric": [[{LONG_INT}]]}}', encoding="utf-8")
    write_catalog(batch, "heisenberg", "c_h1.json", n=1)
    base = write_catalog(tmp_path, "abelian", "base.json", p=0, q=2)
    for name, message in (("a_deep.json", "maximum recursion depth"), ("b_long.json", "Exceeds the limit")):
        bad = batch / name
        for args in (["validate", bad], ["report", bad], ["double-extend", base, bad]):
            assert run(args) == EXIT_PARSE, args
            err = capsys.readouterr().err
            assert err.startswith(f"error: ParseError: {bad}: beyond the JSON parser's limits: {message}"), args
    assert run(["report", batch]) == EXIT_PARSE
    records = json.loads(capsys.readouterr().out)
    assert [r["file"] for r in records] == ["a_deep.json", "b_long.json", "c_h1.json"]
    assert [r.get("exit_code") for r in records] == [EXIT_PARSE, EXIT_PARSE, None]
    assert records[2]["report"]["structure"]["is_nilpotent"]


def test_lists_nested_past_numpys_dimension_limit_are_parse_errors(tmp_path, capsys):
    deep = 1.0
    for _ in range(65):
        deep = [deep]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"dim": 1, "metric": deep}), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: ParseError: {path}: field 'metric' nests lists more than 64 deep\n"
    base, ext = _double_extend_inputs(tmp_path)
    for field in ("D", "K", "L"):
        ext.write_text(json.dumps({field: deep}), encoding="utf-8")
        assert run(["double-extend", base, ext]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: ParseError: {ext}: {field} nests lists more than 64 deep\n"


def test_report_heisenberg(tmp_path, capsys):
    path = write_catalog(tmp_path, "heisenberg", "h1.json", n=1)
    assert run(["report", path, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["tag"] == "other"
    assert report["ricci_parallel"]["flag"] is False
    eig = sorted(e["re"] for e in report["ricci_eigenvalues"])
    assert eig[0] == pytest.approx(-1 / 3, abs=1e-12)
    assert eig[1] == pytest.approx(-1 / 3, abs=1e-12)
    assert eig[2] == pytest.approx(1 / 3, abs=1e-12)


def test_report_einstein_solvable(tmp_path, capsys):
    path = write_catalog(tmp_path, "einstein_solvable", "es2.json", n=2)
    assert run(["report", path, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["einstein"]["flag"] is True
    assert report["einstein"]["constant"] == pytest.approx(-1.0, abs=1e-12)


def test_report_abelian(tmp_path, capsys):
    path = write_catalog(tmp_path, "abelian", "ab.json", p=0, q=3)
    assert run(["report", path, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["tag"] == "einstein"
    assert report["classification"]["constant"] == pytest.approx(0.0)
    assert report["ricci_flat"]["flag"] is True
    assert report["ricci_parallel"]["flag"] is True


def test_report_byte_determinism(tmp_path):
    path = write_catalog(tmp_path, "sl_killing", "sl2.json", n=2)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["report", path, "--out", out1]) == EXIT_OK
    assert run(["report", path, "--out", out2]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_report_directory_batch(tmp_path, capsys):
    write_catalog(tmp_path, "heisenberg", "a_h1.json", n=1)
    write_catalog(tmp_path, "abelian", "b_ab.json", p=0, q=2)
    assert run(["report", tmp_path]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    assert [r["file"] for r in reports] == ["a_h1.json", "b_ab.json"]


def test_report_directory_into_itself_skips_its_own_output(tmp_path):
    write_catalog(tmp_path, "heisenberg", "a_h1.json", n=1)
    write_catalog(tmp_path, "abelian", "b_ab.json", p=0, q=2)
    out = tmp_path / "all.json"
    assert run(["report", tmp_path, "--out", out]) == EXIT_OK
    first = out.read_bytes()
    assert run(["report", tmp_path, "--out", out]) == EXIT_OK  # the second run must not read all.json
    assert out.read_bytes() == first
    assert [r["file"] for r in json.loads(first)] == ["a_h1.json", "b_ab.json"]


def test_report_directory_keeps_going_past_a_bad_file(tmp_path, capsys):
    doc = {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": float("nan")}}], "metric": np.eye(2).tolist()}
    (tmp_path / "a_nan.json").write_text(json.dumps(doc), encoding="utf-8")
    write_catalog(tmp_path, "heisenberg", "b_h1.json", n=1)
    assert run(["report", tmp_path]) == EXIT_PARSE
    records = json.loads(capsys.readouterr().out)
    assert [r["file"] for r in records] == ["a_nan.json", "b_h1.json"]
    assert records[0]["exit_code"] == EXIT_PARSE
    assert records[0]["error"].startswith("ParseError: ") and "finite" in records[0]["error"]
    assert set(records[0]) == {"file", "error", "exit_code"}
    assert records[1]["report"]["structure"]["is_nilpotent"]


def test_report_directory_gives_a_record_for_a_minus_zero_key(tmp_path, capsys):
    # "-0" passes a digits test once its sign is read off; the per-record rule must still name it
    doc = {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"-0": 1.0}}], "metric": np.eye(2).tolist()}
    (tmp_path / "a_minus_zero.json").write_text(json.dumps(doc), encoding="utf-8")
    write_catalog(tmp_path, "heisenberg", "b_h1.json", n=1)
    assert run(["report", tmp_path]) == EXIT_PARSE
    records = json.loads(capsys.readouterr().out)
    assert [r["file"] for r in records] == ["a_minus_zero.json", "b_h1.json"]
    assert records[0]["exit_code"] == EXIT_PARSE
    assert records[0]["error"].endswith("brackets[0]: coefficient index -0 out of range")


def test_report_directory_skips_construction_sidecars(tmp_path):
    base = write_catalog(tmp_path, "abelian", "base.json", p=0, q=2)
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"D": [[1.0, 0.0], [0.0, 1.0]]}), encoding="utf-8")
    sc = tmp_path / "sc"
    sc.mkdir()
    assert run(["double-extend", base, ext, "--out", sc / "ext.json"]) == EXIT_OK
    assert run(["decompose", sc / "ext.json", "--out", sc / "base.json"]) == EXIT_OK
    assert sorted(p.name for p in sc.iterdir()) == ["base.json", "base.json.sidecar.json",
                                                    "ext.json", "ext.json.sidecar.json"]
    out = tmp_path / "all.json"
    assert run(["report", sc, "--out", out]) == EXIT_OK
    assert [r["file"] for r in json.loads(out.read_text(encoding="utf-8"))] == ["base.json", "ext.json"]


def test_report_empty_directory(tmp_path, capsys):
    empty, out = tmp_path / "empty", tmp_path / "all.json"
    empty.mkdir()
    assert run(["report", empty, "--out", out]) == EXIT_OK
    assert out.read_bytes() == b"[]\n"
    assert run(["report", empty]) == EXIT_OK
    assert capsys.readouterr().out == "[]\n"


def _report_batch_peak(directory, out) -> int:
    tracemalloc.start()
    try:
        assert run(["report", directory, "--out", out]) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_directory_memory_grows_with_the_output_not_the_reports(tmp_path):
    # directory mode keeps each file's record as encoded text only: the traced peak may grow by
    # less than 4 bytes per added output byte (keeping every report and encoding them at once: 9)
    rng = np.random.default_rng(18)
    small, large = tmp_path / "small", tmp_path / "large"
    small.mkdir()
    large.mkdir()
    for k in range(40):
        dim = 3 + k % 10
        p = int(rng.integers(0, dim + 1))
        m = random_metric_lie_algebra(rng, dim, sig=(p, dim - p))
        text = json.dumps(algebra_to_dict(m))
        (small / f"{k:03d}.json").write_text(text, encoding="utf-8")
        for copy in range(8):
            (large / f"{copy}_{k:03d}.json").write_text(text, encoding="utf-8")
    small_out, large_out = tmp_path / "small.out.json", tmp_path / "large.out.json"
    assert run(["report", small, "--out", small_out]) == EXIT_OK  # fills the per-process caches
    small_peak = _report_batch_peak(small, small_out)
    large_peak = _report_batch_peak(large, large_out)
    added = large_out.stat().st_size - small_out.stat().st_size
    assert added > 7 * small_out.stat().st_size
    assert large_peak - small_peak < 4 * added


def test_size_bounds_reject_before_allocating(tmp_path, capsys):
    assert run(["catalog", "heisenberg", "--params", json.dumps({"n": 10 ** 40})]) == EXIT_PRECONDITION
    assert "BadParamsError" in capsys.readouterr().err
    assert run(["catalog", "sl_killing", "--params", '{"n": 17}']) == EXIT_PRECONDITION  # dim 288
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 1000000, "brackets": [], "metric": []}), encoding="utf-8")
    assert run(["report", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "ParseError" in err and "dim" in err and "Traceback" not in err
    # every record is checked before the dim^3 tensor is allocated
    brackets = [{"i": 0, "j": j, "coeffs": {"0": 1.0}} for j in range(1, 256)] + [{"i": 3, "j": 3}]
    path.write_text(json.dumps({"dim": 256, "brackets": brackets, "metric": []}), encoding="utf-8")
    tracemalloc.start()
    try:
        assert run(["validate", path]) == EXIT_PARSE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "brackets[255]: need 0 <= i < j < dim" in capsys.readouterr().err
    assert peak < 256 ** 3


def test_report_path_builds_no_dim4_array():
    tracemalloc.start()
    try:
        m = catalog("sl_killing", n=7)  # dim 48: dim^4 doubles are 40.5 MiB
        build_report(m)
        ricci_structural(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 48 ** 4 * 8


@pytest.mark.parametrize("name, n, basis_seed", [("sl_killing", 7, None), ("sl_killing", 7, 26),
                                                 ("heisenberg", 32, 26)])
def test_report_path_holds_at_most_three_dim3_arrays(name, n, basis_seed):
    # every dim^3 kernel runs by blocks of its first index, so the frame's tensor and connection are the only dim^3
    # arrays kept: above the algebra, sl(7) peaks at 2.8 (catalog) and 2.9 (random basis) dim^3 arrays, H_32 (dim 65)
    # at 2.5 in a random basis; before the blocks, 4.3, 4.7 and 4.6
    assert report_peak(name, n, basis_seed) <= 3


@pytest.mark.parametrize("name, n", [("sl_killing", 7), ("einstein_solvable", 23)])
def test_change_basis_holds_its_result_and_less_than_one_dim3_array_more(name, n):
    # the pull-back runs by blocks into the one result tensor, which is then antisymmetrized in place by blocks:
    # 1.67 dim^3 arrays above the algebra on both (dim 48), 2.09 when the pull-back and (X - X^T)/2 were out of place
    assert change_basis_peak(name, n) <= 1.75


def test_structure_report_holds_at_most_one_dim3_array():
    # the series stacks are formed and reduced by blocks: 0.64 dim^3 arrays on the Einstein extension of H_23
    # (dim 48), whose whole [g, g]-by-[g, g] stack alone would be 0.96; 2.11 before the blocks
    g = catalog("einstein_solvable", n=23).algebra
    assert traced_peak(lambda: structure_report(g)) <= 48 ** 3 * 8


def test_report_path_contracts_no_three_index_operand_by_einsum(monkeypatch):
    # every dim^3 contraction on the report path is a BLAS product, never einsum's C loop
    rng = np.random.default_rng(5)
    cases = [random_metric_lie_algebra(rng, 12, (p, 12 - p)) for p in (0, 1, 5)]
    cases.append(change_basis(catalog("sl_complex_typeI", n=2, lam=1.0, mu=2.0), random_invertible(rng, 6)))
    shapes = []
    einsum = np.einsum

    def recording(*operands, **kwargs):
        shapes.extend(np.shape(x) for x in operands if not isinstance(x, str))
        return einsum(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    reports = [build_report(m) for m in cases]
    assert reports[-1]["type_I"] is not None
    assert all(len(shape) < 3 for shape in shapes), shapes


def test_report_tolerance_override(tmp_path, capsys):
    path = write_catalog(tmp_path, "abelian", "ab.json", p=0, q=2)
    assert run(["report", path, "--json", "--tol-abs", "1e-6"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["tolerance"]["abs"] == pytest.approx(1e-6)


def test_double_extend_pipeline(tmp_path):
    base = write_catalog(tmp_path, "abelian", "base.json", p=0, q=2)
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"D": [[1.0, 0.0], [0.0, 1.0]]}), encoding="utf-8")
    out = tmp_path / "ext_out.json"
    assert run(["double-extend", base, ext, "--out", out]) == EXIT_OK
    sidecar = json.loads((tmp_path / "ext_out.json.sidecar.json").read_text())
    assert sidecar["delta"] == [0.0, 0.0]
    assert sidecar["gamma"] == pytest.approx(-2.0)
    assert all(abs(v) < 1e-12 for v in sidecar["conditions"].values())
    assert sidecar["conditions_verdict"] is True


def test_double_extend_invalid_spec_exit_code(tmp_path, capsys):
    base = write_catalog(tmp_path, "abelian", "base.json", p=0, q=2)
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"D": [[1.0, 0.0], [0.0, 1.0]],
                               "K": [[0.0, 1.0], [-1.0, 0.0]]}), encoding="utf-8")
    assert run(["double-extend", base, ext]) == EXIT_PRECONDITION
    assert "compatibility" in capsys.readouterr().err


def test_complexify_type1_end_to_end(tmp_path, capsys):
    base = write_catalog(tmp_path, "affine_plane", "aff.json")
    out = tmp_path / "c.json"
    assert run(["complexify", base, "--type1", "0", "1", "--out", out]) == EXIT_OK
    sidecar = json.loads((tmp_path / "c.json.sidecar.json").read_text())
    assert sidecar["lambda"] == pytest.approx(0.0, abs=1e-12)
    assert sidecar["mu"] == pytest.approx(1.0, abs=1e-12)
    assert run(["report", out, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["tag"] == "type_I"
    assert report["classification"]["mu"] == pytest.approx(1.0, abs=1e-10)
    assert report["type_I"] is not None


def test_complexify_plain(tmp_path, capsys):
    base = write_catalog(tmp_path, "affine_plane", "aff.json")
    assert run(["complexify", base]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["algebra"]["dim"] == 4
    assert "J" in doc["sidecar"]


def test_complexify_type1_rejects_non_einstein(tmp_path):
    base = write_catalog(tmp_path, "heisenberg", "h1.json", n=1)
    assert run(["complexify", base, "--type1", "0", "1"]) == EXIT_PRECONDITION


def test_decompose_round_trip(tmp_path, capsys):
    base = write_catalog(tmp_path, "abelian", "base.json", p=0, q=2)
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"D": [[1.0, 0.0], [0.0, 1.0]]}), encoding="utf-8")
    built = tmp_path / "built.json"
    assert run(["double-extend", base, ext, "--out", built]) == EXIT_OK
    recovered = tmp_path / "recovered.json"
    assert run(["decompose", built, "--out", recovered]) == EXIT_OK
    doc = json.loads(recovered.read_text())
    assert doc["dim"] == 2
    assert doc["brackets"] == []
    assert np.allclose(doc["metric"], np.eye(2))
    sidecar = json.loads((tmp_path / "recovered.json.sidecar.json").read_text())
    assert np.asarray(sidecar["D"]).shape == (2, 2)


def test_unwritable_out_is_a_parse_error(tmp_path, capsys):
    sl2 = write_catalog(tmp_path, "sl_killing", "sl2.json", n=2)
    abelian = write_catalog(tmp_path, "abelian", "ab.json", p=0, q=2)
    lorentz = write_catalog(tmp_path, "double_ext_demo", "de.json", kind="solvable", dim=3)
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"D": [[1.0, 0.0], [0.0, 1.0]]}), encoding="utf-8")
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "sl2.json").write_text(sl2.read_text(encoding="utf-8"), encoding="utf-8")
    commands = [
        ["catalog", "heisenberg", "--params", '{"n": 1}'],
        ["validate", sl2],
        ["report", sl2],
        ["report", batch],
        ["double-extend", abelian, ext],
        ["complexify", sl2],
        ["complexify", sl2, "--type1", "1", "2"],
        ["decompose", lorentz],
    ]
    for out in (tmp_path / "missing" / "out.json", batch):  # a missing directory, an existing directory
        for args in commands:
            capsys.readouterr()
            assert run(args + ["--out", out]) == EXIT_PARSE, (args, out)
            err = capsys.readouterr().err
            assert "cannot write" in err and "Traceback" not in err, err


def test_decompose_precondition_exit(tmp_path):
    path = write_catalog(tmp_path, "abelian", "flat.json", p=1, q=2)
    assert run(["decompose", path]) == EXIT_PRECONDITION


def test_catalog_round_trip_all_entries(tmp_path, capsys):
    cases = [
        ("heisenberg", {"n": 1}, {"tag": "other"}),
        ("heisenberg", {"n": 3}, {"tag": "other"}),
        ("einstein_solvable", {"n": 1}, {"tag": "einstein", "constant": -1.0}),
        ("sl_killing", {"n": 2}, {"tag": "einstein", "constant": -0.25}),
        ("sl_complex_typeI", {"n": 2, "lam": 1, "mu": 2}, {"tag": "type_I", "mu": 2.0}),
        ("affine_plane", {}, {"tag": "einstein", "constant": -1.0}),
        ("abelian", {"p": 1, "q": 2}, {"tag": "einstein", "constant": 0.0}),
        ("double_ext_demo", {"kind": "solvable"}, {"tag": "type_II"}),
        ("double_ext_demo", {"kind": "nilpotent"}, {"tag": "type_II"}),
    ]
    for idx, (name, params, expected) in enumerate(cases):
        out = tmp_path / f"cat{idx}.json"
        args = ["catalog", name, "--out", out]
        if params:
            args += ["--params", json.dumps(params)]
        assert run(args) == EXIT_OK, (name, params)
        assert run(["report", out, "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        cls = report["classification"]
        assert cls["tag"] == expected["tag"], (name, params)
        if "constant" in expected:
            assert cls["constant"] == pytest.approx(expected["constant"], abs=1e-10)
        if "mu" in expected:
            assert cls["mu"] == pytest.approx(expected["mu"], abs=1e-9)


def test_params_that_are_not_an_object_exit_3(capsys):
    assert run(["catalog", "heisenberg", "--params", "[1]"]) == EXIT_PRECONDITION
    assert "BadParamsError: --params must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("params, message", [
    (DEEP_JSON, "--params is beyond the JSON parser's limits: maximum recursion depth"),
    (f'{{"n": {LONG_INT}}}', "--params is beyond the JSON parser's limits: Exceeds the limit"),
    (f'{{"n": {LONG_INT[:4200]}}}', "sl_killing: the result would have dimension beyond 10^20, above the limit"),
], ids=["deep", "long_int", "long_dimension"])
def test_params_beyond_the_json_parsers_limits_exit_3(capsys, params, message):
    # the last parses, but its dimension n^2 - 1 has 8400 digits, which str() refuses as int() refused the second
    assert run(["catalog", "sl_killing", "--params", params]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith(f"error: BadParamsError: {message}")


def test_complexify_above_max_dim_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lie, "MAX_DIM", 8)  # the loader's bound stays 256, so both files load
    base = write_catalog(tmp_path, "abelian", "ab.json", p=1, q=4)
    assert run(["complexify", base]) == EXIT_PRECONDITION
    sl3 = write_catalog(tmp_path, "sl_killing", "sl3.json", n=3)
    assert run(["complexify", sl3, "--type1", "0", "1"]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.count("BadParamsError: complexify: the result would have dimension") == 2
    assert "dimension 10, above the limit 8" in err and "dimension 16, above the limit 8" in err


def test_default_tolerance_is_default_tol(tmp_path, capsys):
    path = write_catalog(tmp_path, "heisenberg", "h1.json", n=1)
    assert run(["report", path, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["tolerance"] == asdict(linalg.DEFAULT_TOL)


def test_catalog_unknown_and_bad_params(tmp_path):
    assert run(["catalog", "nonsense"]) == EXIT_PRECONDITION
    assert run(["catalog", "heisenberg", "--params", '{"n": 0}']) == EXIT_PRECONDITION
    assert run(["catalog", "heisenberg", "--params", "not json"]) == EXIT_PRECONDITION
    for name, params in [
        ("heisenberg", {"n": 1, "bogus": 3}),
        ("heisenberg", {"name": 1}),
        ("heisenberg", {"tol": 1}),
        ("double_ext_demo", {"dim": "x"}),
        ("double_ext_demo", {"dim": 2.7}),
        ("double_ext_demo", {"kind": "x"}),
        ("sl_complex_typeI", {"n": 2, "lam": "x", "mu": 1}),
    ]:
        assert run(["catalog", name, "--params", json.dumps(params)]) == EXIT_PRECONDITION, (name, params)


def test_verification_failures_map_to_exit_4(tmp_path, monkeypatch, capsys):
    from liemetric import cli as cli_mod
    from liemetric.errors import StructureMismatchError

    def boom(m):
        raise StructureMismatchError("bracket data outside the double-extension pattern")

    monkeypatch.setattr(cli_mod, "decompose_double_extension", boom)
    path = write_catalog(tmp_path, "double_ext_demo", "de.json", kind="nilpotent")
    assert run(["decompose", path]) == 4
    assert "StructureMismatchError" in capsys.readouterr().err


def test_decompose_of_a_non_nilpotent_type_ii_extension_exits_4(tmp_path, capsys):
    # e(2) ([e1, e3] = -e2, [e2, e3] = e1), flat and Euclidean, double-extended by D = diag(1, 1, 0)
    e2 = MetricLieAlgebra(LieAlgebra(3, {(0, 2): [0.0, -1.0, 0.0], (1, 2): [1.0, 0.0, 0.0]}), np.eye(3))
    base, ext, out = tmp_path / "e2.json", tmp_path / "ext.json", tmp_path / "e2_ext.json"
    base.write_text(json.dumps(algebra_to_dict(e2)), encoding="utf-8")
    ext.write_text(json.dumps({"D": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]}), encoding="utf-8")
    assert run(["double-extend", base, ext, "--out", out]) == EXIT_OK
    assert json.loads((tmp_path / "e2_ext.json.sidecar.json").read_text())["conditions_verdict"] is True
    capsys.readouterr()
    assert run(["decompose", out]) == cli.EXIT_VERIFY
    assert capsys.readouterr().err == ("error: StructureMismatchError: bracket data outside the double-extension "
                                       "pattern (base_abelian residual 1.000e+00)\n")


def test_encoder_rejects_what_is_not_json():
    for obj in ({1, 2}, object()):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._ENCODER.encode({"value": obj})


def test_algebra_file_round_trip_exact(tmp_path):
    # shortest-repr floats parse back to identical doubles
    m = catalog("heisenberg", n=2)
    path = tmp_path / "h2.json"
    path.write_text(json.dumps(algebra_to_dict(m)), encoding="utf-8")
    doc = json.loads(path.read_text())
    coeff = doc["brackets"][0]["coeffs"]["4"]
    assert coeff == np.sqrt(2.0 / 4.0)


def test_validate_rejects_scaled_perturbed_sl2(tmp_path, capsys):
    # sl(2) scaled by 1e3 with [E, F] given an E-component of 0.0025: Jacobi residual 5.0
    doc = {"dim": 3,
           "brackets": [{"i": 0, "j": 1, "coeffs": {"0": 2.5e-3, "2": 1e3}},
                        {"i": 0, "j": 2, "coeffs": {"0": -2e3}},
                        {"i": 1, "j": 2, "coeffs": {"1": 2e3}}],
           "metric": np.eye(3).tolist()}
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert "Jacobi" in capsys.readouterr().err


def test_report_small_lorentz_heisenberg(tmp_path, capsys):
    doc = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1e-3}}], "metric": np.diag([1.0, 1.0, -1.0]).tolist()}
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["report", path, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["tag"] == "other" and report["type_II"] is None


def test_ricci_eigenvalue_order_follows_the_imaginary_parts(tmp_path, capsys):
    # Ric = Id + 2J: three conjugate pairs 1 +- 2i, whose real parts differ only by rounding
    m = catalog("sl_complex_typeI", n=2, lam=1.0, mu=2.0)
    for seed in range(40):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(algebra_to_dict(change_basis(m, random_invertible(np.random.default_rng(seed), m.dim)))))
        assert run(["report", path, "--json"]) == EXIT_OK
        eigs = json.loads(capsys.readouterr().out)["ricci_eigenvalues"]
        assert "".join("-" if e["im"] < 0 else "+" for e in eigs) == "---+++", seed


@pytest.mark.parametrize("doc", [
    {"dim": 2, "brackets": 5},
    {"dim": 2, "brackets": {"i": 0, "j": 1}},
    {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [1, 2]}]},
    {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": None}]},
    {"dim": True},
    {"dim": 2, "brackets": [{"i": False, "j": 1, "coeffs": {"1": 1.0}}]},
    {"dim": 2, "brackets": [{"i": 0, "j": True, "coeffs": {"1": 1.0}}]},
    {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": 1e300}}]},
    {"dim": 2, "metric": [[1e300, 0.0], [0.0, 1.0]]},
])
def test_malformed_algebra_files_are_parse_errors(tmp_path, capsys, doc):
    doc = {"brackets": [], "metric": np.eye(2).tolist(), **doc}
    (tmp_path / "a_bad.json").write_text(json.dumps(doc), encoding="utf-8")
    write_catalog(tmp_path, "affine_plane", "b_aff.json")
    assert run(["validate", tmp_path / "a_bad.json"]) == EXIT_PARSE
    assert "ParseError" in capsys.readouterr().err
    assert run(["report", tmp_path]) == EXIT_PARSE
    records = json.loads(capsys.readouterr().out)
    assert records[0]["error"].startswith("ParseError: ") and "report" in records[1]


@pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel", "--tol-rank"])
def test_infinite_tolerance_is_rejected(tmp_path, capsys, flag):
    path = write_catalog(tmp_path, "affine_plane", "aff.json")
    assert run(["report", path, "--json", flag, "inf"]) == EXIT_PARSE
    assert "finite" in capsys.readouterr().err


def test_out_of_range_numbers_elsewhere(tmp_path, capsys):
    base = write_catalog(tmp_path, "affine_plane", "aff.json")
    assert run(["complexify", base, "--type1", "nan", "1"]) == EXIT_PARSE
    assert run(["complexify", base, "--type1", "1", "1e300"]) == EXIT_PARSE
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"L": [1e300, 0.0]}), encoding="utf-8")
    assert run(["double-extend", base, ext]) == EXIT_PARSE
    params = {"n": 2, "lam": 1e300, "mu": 1}
    assert run(["catalog", "sl_complex_typeI", "--params", json.dumps(params)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.count("magnitude at most 1e+50") == 4 and "Traceback" not in err


def test_bracket_overflow_in_the_frame_is_a_validation_error(tmp_path, capsys):
    # every entry is within MAX_ABS, but the frame of a metric of scale 1e-40 scales the brackets by 1e20
    doc = {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": 1e50}}], "metric": [[1e-40, 0], [0, 1e-40]]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", path]) == EXIT_OK
    capsys.readouterr()
    assert run(["report", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: brackets in the new basis reach 1.000e+70, beyond MAX_ABS")
    assert "pseudo-orthonormal frame" in err and "index" not in err


def test_strings_and_booleans_are_not_numbers(tmp_path, capsys):
    # a cast to float would read the metric as signature (0, 2) and L = [true] as [1.0]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [], "metric": [["1", False], [False, True]]}), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert run(["report", path]) == EXIT_PARSE
    base = write_catalog(tmp_path, "abelian", "r1.json", p=0, q=1)
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"L": [True]}), encoding="utf-8")
    assert run(["double-extend", base, ext]) == EXIT_PARSE
    assert capsys.readouterr().err.count("must hold real numbers") == 3


@pytest.mark.parametrize("brackets, message", [
    ([5], "brackets[0]: each record needs integer fields 'i' and 'j'"),
    ([{"i": 0, "coeffs": {}}], "brackets[0]: each record needs integer fields 'i' and 'j'"),
    ([{"i": True, "j": 1}], "brackets[0]: 'i' and 'j' must be integers"),
    ([{"i": 1, "j": 1}], "brackets[0]: need 0 <= i < j < dim, got i=1, j=1"),
    ([{"i": 0, "j": 1}, {"i": 0, "j": 1}], "brackets[1]: duplicate bracket pair (0, 1)"),
    ([{"i": 0, "j": 1, "coeffs": [1.0]}], "brackets[0]: 'coeffs' must be an object from index to value"),
    ([{"i": 0, "j": 1, "coeffs": {"x": 1.0}}], "brackets[0]: coefficient index 'x' is not an integer"),
    ([{"i": 0, "j": 1, "coeffs": {"3": 1.0}}], "brackets[0]: coefficient index 3 out of range"),
    ([{"i": 0, "j": 1, "coeffs": {"1": 1.0, "01": 2.0}}], "brackets[0]: two coefficient keys name the same index"),
    ([{"i": 0, "j": 1, "coeffs": {"1": float("nan")}}],
     "[e_0, e_1] coefficient value for index 1 is nan, but entries must hold real numbers, "
     "finite and of magnitude at most 1e+50"),
    ([{"i": 0, "j": 1, "coeffs": {"0": [1], "1": [2], "2": [3]}}],
     "[e_0, e_1] coefficient value for index 0 is [1], but entries must hold real numbers, "
     "finite and of magnitude at most 1e+50"),
    ([{"i": 0, "j": 1, "coeffs": {"2": None, "1": True}}],
     "[e_0, e_1] coefficient value for index 1 is True, but entries must hold real numbers, "
     "finite and of magnitude at most 1e+50"),
    ([{"i": 0, "j": 1, "coeffs": {"0": 10 ** 400}}],
     f"[e_0, e_1] coefficient value for index 0 is {10 ** 400}, but entries must hold real numbers, "
     "finite and of magnitude at most 1e+50"),
    ([{"i": 0, "j": 1, "coeffs": {"0": "x", "5": 1.0}}], "brackets[0]: coefficient index 5 out of range"),
    ([{"i": 0, "j": 1, "coeffs": {"9" * 30: 1.0}}], f"brackets[0]: coefficient index {'9' * 30} out of range"),
    ([{"i": 0, "j": 1, "coeffs": {"1": 1.0, "01": 2.0}}, {"i": 0, "j": 2, "coeffs": {"x": 1.0}}],
     "brackets[0]: two coefficient keys name the same index"),
    ([{"i": 0, "j": 1, "coeffs": {"2": 1.0}}, {"i": 0, "j": 2, "coeffs": {"-1": 1.0}}, {"i": 2, "j": 1}],
     "brackets[1]: coefficient index -1 out of range"),
    ([{"i": 0, "j": 1}, {"i": 1, "j": 2, "coeffs": {"0": "1"}}, {"i": 0, "j": 1}],
     "[e_1, e_2] coefficient value for index 0 is '1', but entries must hold real numbers, "
     "finite and of magnitude at most 1e+50"),
    ([{"i": 0, "j": 1, "coeffs": {"2": 1.0}}, {"i": 0, "j": 2, "coeffs": {"": 1.0}},
      {"i": 1, "j": 2, "coeffs": {"3": 1}}],
     "brackets[1]: coefficient index '' is not an integer"),
    ([{"i": 0, "j": 1, "coef": {"2": 1.0}}], "brackets[0]: unknown field 'coef'"),
    ([{"i": 0, "j": 1, "coeffs": {"x": 1.0}, "k": 2}], "brackets[0]: unknown field 'k'"),
    ([{"i": 0, "j": 1, "coeffs": {"2": 1.0}}, {"i": 0, "j": 2, "coef": {}}], "brackets[1]: unknown field 'coef'"),
    ([{"i": 0, "j": 1, "coeffs": {"3": 1.0}}, {"i": 0, "j": 2, "coef": {}}],
     "brackets[0]: coefficient index 3 out of range"),
    ([{"i": 0, "j": 1, "coeffs": {"-0": 1.0}}], "brackets[0]: coefficient index -0 out of range"),
    ([{"i": 0, "j": 1, "coeffs": {"2": 1.0, "-00": 1.0}}], "brackets[0]: coefficient index -0 out of range"),
])
def test_bracket_record_messages(tmp_path, capsys, brackets, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "brackets": brackets, "metric": np.eye(3).tolist()}), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: ParseError: {path}: {message}\n"


@pytest.mark.parametrize("key", ["1_0", " 2\n", "+1", "\u0661", "\uff11", "1 "])
def test_coefficient_keys_are_ascii_digits(tmp_path, capsys, key):
    # int() reads each of these (as 10, 2, 1, 1, 1 and 1), which would silently move a coefficient
    path = tmp_path / "bad.json"
    brackets = [{"i": 0, "j": 1, "coeffs": {"2": 1.0}}, {"i": 0, "j": 2, "coeffs": {key: 1.0}}]
    path.write_text(json.dumps({"dim": 11, "brackets": brackets, "metric": np.eye(11).tolist()}), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: ParseError: {path}: brackets[1]: coefficient index {key!r} is not an integer\n"


def test_coefficient_keys_past_the_int_digit_limit(tmp_path, capsys):
    # int() and str() refuse more than 4300 digits: a zero-padded key keeps its index, a long one is out of range
    path = tmp_path / "keys.json"

    def load(coeffs):
        doc = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": coeffs}], "metric": np.eye(3).tolist()}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return run(["validate", path]), capsys.readouterr().err

    padded = "0" * 5000 + "2"
    assert load({padded: 1.0}) == (EXIT_OK, "")
    assert load_algebra_file(path, linalg.DEFAULT_TOL).algebra.tensor[0, 1, 2] == 1.0
    assert load({padded: 1.0, "3": 1.0}) == (EXIT_PARSE, f"error: ParseError: {path}: brackets[0]: "
                                                         "coefficient index 3 out of range\n")
    for key in ("7" * 5000, "0" * 5000 + "7" * 5000, "-" + "7" * 5000):
        shown = "-" * key.startswith("-") + "7" * 50
        assert load({key: 1.0}) == (EXIT_PARSE, f"error: ParseError: {path}: brackets[0]: "
                                                f"coefficient index {shown}... (5000 digits) out of range\n")


@pytest.mark.parametrize("field, value, shape", [("D", None, "2-dimensional, got ndim=0"),
                                                 ("K", "x", "2-dimensional, got ndim=0"),
                                                 ("D", 3, "2-dimensional, got ndim=0"),
                                                 ("L", None, "1-dimensional, got ndim=0"),
                                                 ("L", True, "1-dimensional, got ndim=0")])
def test_scalar_extension_data_fails_on_its_shape(tmp_path, capsys, field, value, shape):
    # a scalar has no index to name, so its shape is checked before its value
    base, ext = _double_extend_inputs(tmp_path)
    ext.write_text(json.dumps({"L": [1.0, 0.0, 0.0], field: value}), encoding="utf-8")
    assert run(["double-extend", base, ext]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: ParseError: {ext}: {field} must be {shape}\n"


def test_unknown_fields_are_parse_errors(tmp_path, capsys):
    # a misspelt field would otherwise load the algebra as abelian, or build a zero D
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"dim": 3, "brackets_": [{"i": 0, "j": 1, "coeffs": {"2": 1.0}}],
                                "metric": np.eye(3).tolist()}), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: ParseError: {path}: unknown field 'brackets_'\n"
    base, ext = _double_extend_inputs(tmp_path)
    ext.write_text(json.dumps({"L": [1.0, 0.0, 0.0], "d": np.eye(3).tolist()}), encoding="utf-8")
    assert run(["double-extend", base, ext]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: ParseError: {ext}: unknown field 'd'\n"
    # a rejected key is shown by the first 80 characters of its repr and its length
    long_key = "k" * 10 ** 6
    shown = f"'{long_key[:79]}... (1000002 characters)"
    brackets = [{"i": 0, "j": 1, "coeffs": {long_key: 1.0}}]
    for doc, message in (({"dim": 1, "metric": [[1.0]], long_key: 0}, f"unknown field {shown}"),
                         ({"dim": 2, "metric": np.eye(2).tolist(), "brackets": brackets},
                          f"brackets[0]: coefficient index {shown} is not an integer")):
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["validate", path]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: ParseError: {path}: {message}\n"


@pytest.mark.parametrize("names", [[{"x": 1}, None], ["x"], ["x", 2], "xy", {"0": "x", "1": "y"}])
def test_basis_names_must_be_dim_strings(tmp_path, capsys, names):
    # a name that is not a string used to be written back as its str(), "{'x': 1}" or "None"
    path = tmp_path / "a.json"
    doc = {"dim": 2, "basis_names": ["x", "y"], "brackets": [{"i": 0, "j": 1, "coeffs": {"1": 1.0}}],
           "metric": np.eye(2).tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_algebra_file(path, linalg.Tolerance()).algebra.basis_names == ("x", "y")
    path.write_text(json.dumps({**doc, "basis_names": names}), encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: ParseError: {path}: basis_names must list 2 strings\n"


_JUNK = [True, False, 1.0, "1", None, [1], {"a": 1}, -1, 7]


def _bracket_list(r: random.Random):
    """A dim 3-5 list of bracket records, each field, key or value now and then replaced by junk."""
    dim = r.randint(3, 5)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    records = []
    for i, j in r.sample(pairs, r.randint(0, len(pairs))):
        coeffs = {}
        for _ in range(r.randint(0, dim)):
            key = (str(r.randrange(dim)) if r.random() < 0.96 else
                   r.choice(["01", " 1", "-1", "-0", "-00", "", "9" * 30, str(dim)]))
            coeffs[key] = (r.choice([r.uniform(-2.0, 2.0), r.randint(-3, 3), -0.0, 1e50]) if r.random() < 0.97 else
                           r.choice([True, False, None, "1", [1.0], float("nan"), 10 ** 400, 1e60]))
        rec, fault = {"i": i, "j": j, "coeffs": coeffs}, r.random()
        if fault < 0.02:
            rec[r.choice("ij")] = r.choice(_JUNK)
        elif fault < 0.03:
            del rec[r.choice("ij")]
        elif fault < 0.04:
            rec["coeffs"] = r.choice(_JUNK)
        elif fault < 0.05:
            rec["coef"] = rec.pop("coeffs")
        elif fault < 0.15:
            del rec["coeffs"]
        records.append(rec)
    if records and r.random() < 0.05:
        records.append(dict(r.choice(records)))  # a repeated pair
    if r.random() < 0.02:
        records.insert(r.randint(0, len(records)), r.choice(_JUNK))  # not a record
    return dim, records


_RULES = ("each record needs integer fields", "'i' and 'j' must be integers", "need 0 <= i < j < dim",
          "duplicate bracket pair", "'coeffs' must be an object", "unknown field", "is not an integer", "out of range",
          "two coefficient keys name the same index", "must hold real numbers")


def test_bulk_check_agrees_with_the_per_record_rule():
    # the bulk check only says yes or no: on a no it must raise what the walk over the records names, and the
    # walk must find a bad record (else an AssertionError escapes); on a yes the rows are the records' own numbers
    r, kinds, good = random.Random(19), set(), 0
    for _ in range(5000):
        dim, records = _bracket_list(r)
        try:
            i, j, rows = cli._bracket_rows("f.json", records, dim)
        except errors.ParseError as exc:
            assert str(exc) == str(cli._first_bad_record("f.json", records, dim))
            kinds.update(rule for rule in _RULES if rule in str(exc))
            continue
        good += 1
        with pytest.raises(AssertionError):  # the walk finds no bad record either
            cli._first_bad_record("f.json", records, dim)
        assert list(zip(i.tolist(), j.tolist())) == [(rec["i"], rec["j"]) for rec in records]
        dense = np.zeros((dim, dim, dim))
        for rec in records:
            for key, val in rec.get("coeffs", {}).items():
                dense[rec["i"], rec["j"], int(key)] = val
        assert rows.tobytes() == dense[i, j].tobytes()
    assert 1000 < good < 4000 and kinds == set(_RULES), (good, kinds)  # both answers, and every rule names some


def test_loader_hands_over_the_pair_index_a_scan_would_find(tmp_path, monkeypatch):
    # records out of order, one all zero and one of -0.0 only: the pairs of the nonzero rows, sorted row-major, are
    # the scan of the dim^3 tensor, and the Jacobi check reads them without a scan
    records = [{"i": 2, "j": 3, "coeffs": {"4": 1.0}}, {"i": 0, "j": 1, "coeffs": {"2": 0.0}},
               {"i": 0, "j": 3, "coeffs": {"4": 2.0}}, {"i": 1, "j": 3, "coeffs": {"0": -0.0, "4": -0.0}},
               {"i": 1, "j": 2, "coeffs": {"4": -1.0}}, {"i": 0, "j": 2, "coeffs": {}}, {"i": 0, "j": 4}]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"dim": 5, "brackets": records, "metric": np.eye(5).tolist()}), encoding="utf-8")
    scan = functools.cached_property(lambda g: pytest.fail("the loaded tensor was scanned for its pair index"))
    scan.__set_name__(LieAlgebra, "bracket_pairs")
    with monkeypatch.context() as patch:
        patch.setattr(LieAlgebra, "bracket_pairs", scan)
        g = load_algebra_file(path, linalg.DEFAULT_TOL).algebra
    i, j = g.bracket_pairs
    assert not (i.flags.writeable or j.flags.writeable)
    assert np.array_equal(np.stack((i, j)), np.nonzero(np.triu(g.tensor.any(axis=2), 1)))
    assert list(zip(i.tolist(), j.tolist())) == [(0, 3), (1, 2), (2, 3)]


def test_loader_checks_only_the_given_coefficients(tmp_path, monkeypatch):
    # one array check for the metric in the loader and one in SymmetricForm, however many records
    m = catalog("sl_killing", n=7)
    path = tmp_path / "sl7.json"
    path.write_text(json.dumps(algebra_to_dict(m)), encoding="utf-8")
    orig, calls = linalg.as_real_array, []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(linalg, "as_real_array", counted)
    loaded = load_algebra_file(path, m.tol)
    assert len(calls) <= 2
    assert np.array_equal(loaded.algebra.tensor, m.algebra.tensor)


def test_loader_scans_no_dim3_array(tmp_path, monkeypatch):
    # the loader and the Jacobi check read the nonzero bracket rows, never a scan of the whole tensor
    m = catalog("sl_killing", n=7)
    path = tmp_path / "sl7.json"
    path.write_text(json.dumps(algebra_to_dict(m)), encoding="utf-8")
    sizes = []
    for name in ("nonzero", "flatnonzero", "count_nonzero"):
        def scan(a, *args, _orig=getattr(np, name), **kwargs):
            sizes.append(np.size(a))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np, name, scan)
    loaded = load_algebra_file(path, m.tol)
    assert sizes and max(sizes) < m.dim ** 3
    assert np.array_equal(loaded.algebra.tensor, m.algebra.tensor)


def test_frames_never_index_their_brackets(monkeypatch):
    # no reader of a change-of-basis output needs the pair index, so neither the frame nor the report scans for it
    m, calls = catalog("sl_killing", n=3), []

    def counted(a, *args, _orig=np.nonzero, **kwargs):
        calls.append(np.shape(a))
        return _orig(a, *args, **kwargs)

    monkeypatch.setattr(np, "nonzero", counted)
    f, p = frame(m)
    build_report(m)
    assert not np.array_equal(p, np.eye(m.dim)) and f is not m
    assert calls == []


@pytest.mark.parametrize("text, key", [
    ('{"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1.0, "2": 5.0}}], "metric": %s}' % np.eye(3).tolist(),
     "'2'"),
    ('{"dim": 3, "brackets": [], "metric": %s, "metric": %s}' % (np.eye(3).tolist(), np.diag([-1, 1, 1]).tolist()),
     "'metric'"),
    ('{"dim": 2, "brackets": [{"i": 0, "j": 1, "i": 0}], "metric": [[1, 0], [0, 1]]}', "'i'"),
])
def test_a_key_given_twice_is_rejected(tmp_path, capsys, text, key):
    # json.loads keeps the last value of a repeated key, which would slip past every later check
    path = tmp_path / "twice.json"
    path.write_text(text, encoding="utf-8")
    assert run(["validate", path]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: ParseError: {path}: key {key} appears twice in one object\n"


def test_a_key_given_twice_is_rejected_in_extension_data_and_params(tmp_path, capsys):
    base, ext = _double_extend_inputs(tmp_path)
    ext.write_text('{"L": [1.0, 0.0, 0.0], "L": [0.0, 0.0, 0.0]}', encoding="utf-8")
    assert run(["double-extend", base, ext]) == EXIT_PARSE
    assert run(["catalog", "heisenberg", "--params", '{"n": 1, "n": 2}']) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"ParseError: {ext}: key 'L' appears twice" in err
    assert "ParseError: --params: key 'n' appears twice" in err


def test_parser_is_built_once():
    from liemetric import cli

    assert cli.build_parser() is cli.build_parser()


def _double_extend_inputs(tmp_path):
    base, ext = tmp_path / "h1.json", tmp_path / "ext.json"
    assert run(["catalog", "heisenberg", "--params", '{"n": 1}', "--out", base]) == EXIT_OK
    ext.write_text(json.dumps({"L": [1.0, 0.0, 0.0]}), encoding="utf-8")
    return base, ext


def test_commands_read_the_tensor_not_the_structure_view(tmp_path, monkeypatch):
    def boom(self):
        raise AssertionError("the structure view was read")

    monkeypatch.setattr(LieAlgebra, "structure", property(boom))
    base, ext = _double_extend_inputs(tmp_path)
    assert run(["validate", base]) == EXIT_OK
    assert run(["report", base, "--json"]) == EXIT_OK
    assert run(["double-extend", base, ext]) == EXIT_OK


def test_double_extend_computes_the_invariants_once(tmp_path, monkeypatch):
    orig, calls = constructions.extension_invariants, []

    def counted(spec):
        calls.append(spec)
        return orig(spec)

    for name, mod in list(sys.modules.items()):
        if name.startswith("liemetric") and getattr(mod, "extension_invariants", None) is orig:
            monkeypatch.setattr(mod, "extension_invariants", counted)
    base, ext = _double_extend_inputs(tmp_path)
    assert run(["double-extend", base, ext]) == EXIT_OK
    assert len(calls) == 1


ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, errors.LieMetricError)]
DOCUMENTED_EXIT_CODES = {"ParseError": 2, "ValidationError": 2,
                         "VerificationError": 4, "StructureMismatchError": 4, "NullImageError": 4}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_its_documented_code(monkeypatch, capsys, cls):
    from liemetric import cli as cli_mod

    def boom(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr(cli_mod, "catalog", boom)
    assert run(["catalog", "heisenberg"]) == DOCUMENTED_EXIT_CODES.get(cls.__name__, EXIT_PRECONDITION)
    assert capsys.readouterr().err == f"error: {cls.__name__}: boom\n"
    assert (cls.exit_code == 4) == issubclass(cls, errors.VerificationError)  # exit 4 is one family


@pytest.mark.parametrize("bad_input", [
    lambda: LieAlgebra.from_tensor(np.ones((2, 2, 2))),
    lambda: linalg.SymmetricForm([[1.0, 1.0], [0.0, 1.0]]),
    lambda: linalg.Tolerance(rank=0.0),
], ids=["from_tensor-antisymmetry", "gram-symmetry", "tolerance-field"])
def test_input_errors_are_validation_errors_and_value_errors(bad_input):
    # the package raises only its own errors; a ValidationError is a ValueError too, for callers that catch those
    with pytest.raises(errors.ValidationError) as info:
        bad_input()
    assert isinstance(info.value, errors.LieMetricError) and isinstance(info.value, ValueError)
    assert info.value.exit_code == 2
