"""Byte-level guard on the command-line outputs.

Each digest is the SHA-256 of one output of ``liemetric`` on fixed inputs.
A refactor of the bracket storage, the constructions or the output path
must leave every byte of these outputs unchanged.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from liemetric import LieAlgebra, MetricLieAlgebra, catalog
from liemetric.cli import EXIT_OK, EXIT_PARSE, build_report, main
from liemetric.errors import LieMetricError

GOLDEN = {
    "catalog/heisenberg": "93bd9029562e499ec47c23258ce2437839c6500dfe7b66d3c1e3175c058ba886",
    "catalog/einstein_solvable": "6b8a6a51245cc55fdf3fd985875d4dd891aa48f367c6a064fd77cedab5d64d8e",
    "catalog/sl_killing": "59dada177877ca7553c7b5a63dcfa9509352328892a9dd38454edae60a335245",
    "catalog/sl_complex_typeI": "757acb4a315b4b9df77aa955cfbdd32867c390f2b5ff1666727050c6c6a8bc33",
    "catalog/affine_plane": "006c7b58d11fd8305ba12460a527413f1e71bdbc437e8b92d8e88d977aade3ca",
    "catalog/abelian": "e907ac360a60b494b8f394ce80367ff0fc54960c9f07a05ed9e1387e44a7123c",
    "catalog/double_ext_solvable": "0b23ff6d77e7c32d314cbba36ce46c296af1592a47ee23129b99a585f7817015",
    "catalog/double_ext_nilpotent": "a51323ae938980dafb63260ba80f5f719a9ca3c4a1496882541ce6732b72054f",
    "double-extend/out": "e31945d49e997578757727fa6f1fe8b38c2e756f54827780a15a31720f65d83f",
    "double-extend/out.sidecar": "6aed4b8f187a67a6e7c7810c5a5d3640c6ea3e7b69410a20e35542d426f112f2",
    "double-extend/stdout": "ced701725cd3c15a64927b3f572234b87869a96f1f9863fa02a25185185a7a04",
    "complexify/stdout": "8b84afa6c8f3570e0433816fac7f6e21353987d5bcd71d9ebbf0ac8f17b00cb8",
    "complexify/type1.out": "757acb4a315b4b9df77aa955cfbdd32867c390f2b5ff1666727050c6c6a8bc33",
    "complexify/type1.out.sidecar": "dbc390e4475eb527055663efd749beae2429cdf7842a33d99029999b1b3b7834",
    "decompose/out": "067199190829edb8b71f1391adf0b2aac1d8cb68652b11f613c66abb7789b82c",
    "decompose/out.sidecar": "c00ca729162a4339711a9d205ec0efbe7d4a428082cb09e63b08e7ad21cd40c3",
    "decompose/stdout": "8dc672fe3e098def99661161b95e407464859eafc10d27e8fd59a97a8291c538",
    "report/sl_killing3": "e0c2266935854fd848f57c768657b54f0b0e4660c907a593aad9203e5844de41",
    "report/directory": "caf67203725e82e93d7819a7ce1441a3d5fddb0e6343688dfa0a2904b57785d6",
}

CATALOG_CASES = {
    "heisenberg": ("heisenberg", {"n": 2}),
    "einstein_solvable": ("einstein_solvable", {"n": 2}),
    "sl_killing": ("sl_killing", {"n": 3}),
    "sl_complex_typeI": ("sl_complex_typeI", {"n": 2, "lam": 1, "mu": 2}),
    "affine_plane": ("affine_plane", None),
    "abelian": ("abelian", {"p": 1, "q": 2}),
    "double_ext_solvable": ("double_ext_demo", {"kind": "solvable", "dim": 3}),
    "double_ext_nilpotent": ("double_ext_demo", {"kind": "nilpotent", "dim": 4}),
}


def _outputs(tmp_path, capsys) -> dict:
    out = {}

    def run(*args):
        capsys.readouterr()
        assert main([str(a) for a in args]) == EXIT_OK, args
        return capsys.readouterr().out.encode("utf-8")

    cat = {}
    for key, (name, params) in CATALOG_CASES.items():
        path = tmp_path / f"cat_{key}.json"
        args = ["catalog", name, "--out", path]
        if params is not None:
            args += ["--params", json.dumps(params)]
        run(*args)
        cat[key] = path
        out[f"catalog/{key}"] = path.read_bytes()

    # Heisenberg base, D = ad(E1), K skew on the (E1, E2) plane, L orthogonal to Z
    c = (2.0 / 3.0) ** 0.5
    run("catalog", "heisenberg", "--params", '{"n": 1}', "--out", tmp_path / "h1.json")
    ext = tmp_path / "ext_h1.json"
    ext.write_text(json.dumps({"D": [[0, 0, 0], [0, 0, 0], [0, c, 0]],
                               "K": [[0, 1.5, 0], [-1.5, 0, 0], [0, 0, 0]],
                               "L": [1.0, 0.0, 0.0]}), encoding="utf-8")
    built = tmp_path / "de_h1.json"
    run("double-extend", tmp_path / "h1.json", ext, "--out", built)
    out["double-extend/out"] = built.read_bytes()
    out["double-extend/out.sidecar"] = (tmp_path / "de_h1.json.sidecar.json").read_bytes()

    run("catalog", "abelian", "--params", '{"p": 0, "q": 2}', "--out", tmp_path / "ab2.json")
    ext2 = tmp_path / "ext_ab2.json"
    ext2.write_text(json.dumps({"D": [[1.0, 2.0], [0.0, -1.0]], "L": [0.5, 1.0]}), encoding="utf-8")
    out["double-extend/stdout"] = run("double-extend", tmp_path / "ab2.json", ext2)

    run("catalog", "sl_killing", "--params", '{"n": 2}', "--out", tmp_path / "sl2.json")
    out["complexify/stdout"] = run("complexify", tmp_path / "sl2.json")
    cx = tmp_path / "cx.json"
    run("complexify", tmp_path / "sl2.json", "--type1", "1", "2", "--out", cx)
    out["complexify/type1.out"] = cx.read_bytes()
    out["complexify/type1.out.sidecar"] = (tmp_path / "cx.json.sidecar.json").read_bytes()

    dec = tmp_path / "dec.json"
    run("decompose", cat["double_ext_solvable"], "--out", dec)
    out["decompose/out"] = dec.read_bytes()
    out["decompose/out.sidecar"] = (tmp_path / "dec.json.sidecar.json").read_bytes()
    out["decompose/stdout"] = run("decompose", cat["double_ext_nilpotent"])

    out["report/sl_killing3"] = run("report", cat["sl_killing"], "--json")

    batch = tmp_path / "batch"
    batch.mkdir()
    for key in ("heisenberg", "einstein_solvable", "sl_complex_typeI", "double_ext_nilpotent"):
        shutil.copy(cat[key], batch / f"{key}.json")
    shutil.copy(built, batch / "de_h1.json")
    out["report/directory"] = run("report", batch)
    return out


def test_cli_outputs_byte_identical(tmp_path, capsys):
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in _outputs(tmp_path, capsys).items()}
    assert sorted(digests) == sorted(GOLDEN)
    changed = [k for k in GOLDEN if digests[k] != GOLDEN[k]]
    assert not changed, {k: digests[k] for k in changed}


# outputs that print the path they were given: run from tmp_path on relative paths
GOLDEN_RELATIVE = {
    "validate/text": "87968fda63fc350b3db86f9e616dc4bf36e2ed7b6cbf8b92d57ef88e158993e8",
    "validate/json": "7bb5581f0056700d753e5e012864a587826f463b5b410a3ba8c502d0f6ba2d7d",
    "report/text": "b1d66f8727cc08c00674a2771c646c95386e5eaef9b76154c867548c67669486",
    "report/directory_with_error": "1c38b324e2961ef33fddbece92d286e8dec9938055b62b3bd174bb3df97c75b1",
}


def _relative_outputs(tmp_path, capsys, monkeypatch) -> dict:
    monkeypatch.chdir(tmp_path)

    def run(code, *args):
        capsys.readouterr()
        assert main(list(args)) == code, args
        return capsys.readouterr().out.encode("utf-8")

    run(EXIT_OK, "catalog", "sl_killing", "--params", '{"n": 2}', "--out", "sl2.json")
    Path("batch").mkdir()
    run(EXIT_OK, "catalog", "heisenberg", "--params", '{"n": 1}', "--out", "batch/h1.json")
    Path("batch/bad.json").write_text('{"dim": 2,\n "brackets": [}', encoding="utf-8")
    return {
        "validate/text": run(EXIT_OK, "validate", "sl2.json"),
        "validate/json": run(EXIT_OK, "validate", "sl2.json", "--json"),
        "report/text": run(EXIT_OK, "report", "sl2.json"),
        "report/directory_with_error": run(EXIT_PARSE, "report", "batch"),
    }


def test_cli_path_outputs_byte_identical(tmp_path, capsys, monkeypatch):
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in _relative_outputs(tmp_path, capsys, monkeypatch).items()}
    assert digests == GOLDEN_RELATIVE


def _verdicts(m) -> tuple:
    rep = build_report(m)
    flags = [rep[key]["flag"] for key in ("einstein", "ricci_flat", "ricci_parallel", "ad_invariant")]
    return rep["classification"]["tag"], flags, rep["structure"], rep["type_I"] is None, rep["type_II"] is None


def _scaled_verdicts(m, s: float, t: float):
    """Verdicts with the brackets scaled by s and the metric by t; a library error is returned, not raised."""
    try:
        return _verdicts(MetricLieAlgebra(LieAlgebra.from_tensor(s * m.algebra.tensor), t * m.gram))
    except LieMetricError as exc:
        return exc


@pytest.mark.parametrize("key", sorted(CATALOG_CASES))
def test_report_verdicts_do_not_depend_on_units(key):
    # every predicate is homogeneous in (s, t), so no verdict may move and no error may appear
    name, params = CATALOG_CASES[key]
    m = catalog(name, **(params or {}))
    expected = _verdicts(m)
    flips = [(s, t) for s in (1e-7, 1e-5, 1e-4, 3e-3, 1e-2, 0.37, 7.0, 1e2, 1e4, 1e5, 1e7)
             for t in (1e-7, 1e-6, 1e-5, 1e-3, 0.3, 1.0, 1e3, 1e5, 1e6, 1e8)
             if _scaled_verdicts(m, s, t) != expected]
    assert not flips
