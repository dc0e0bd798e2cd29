"""Batch command-line interface.

Algebra files are UTF-8 JSON:

    {
      "dim": 3,
      "basis_names": ["E1", "E2", "Z"],          # optional
      "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 0.816}}],
      "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    }

``dim`` may be at most :data:`liemetric.lie.MAX_DIM` and ``basis_names`` must
list ``dim`` strings.  A field the format does not name (in the file, a bracket
record or extension data) exits 2 naming it.  Every number given (in these
files, in extension data and after ``--type1``) must pass the rule of
:func:`liemetric.linalg._is_real`: a list, object, string, boolean, NaN or one
beyond :data:`liemetric.linalg.MAX_ABS` in its place exits 2 naming its index.
The bracket records pass one bulk check that says only yes or no, and are
walked one by one only to name the first bad one, before the dim^3 tensor is
allocated.  An object that names a key twice exits 2 (``json`` keeps the last).
``--tol-abs`` and ``--tol-rel`` hold at unit brackets and unit metric (see
:data:`liemetric.linalg.DEGREES`), ``--tol-rank`` is relative to the size of
what it cuts, and a loaded file's metric algebra keeps these for every verdict.

Exit codes: 0 success; a failure exits with the ``exit_code`` of its error
class in :mod:`liemetric.errors`: 2 parse/validation failure (also an input
file that cannot be read and an ``--out`` that cannot be written), 3
mathematical precondition failure, 4 verification failure (a certified
invariant of a constructed object did not hold).  ``report <dir>`` reports
every ``*.json`` file in name order, except the file ``--out`` names and the
``*.sidecar.json`` files the construction commands write (a report saved under
another name is read as an algebra file and fails); a file that fails gives a
``{"file", "error", "exit_code"}`` record in its place, and the command exits
with the largest code met.  It holds encoded text, not report objects: each
file's record is encoded as soon as it is built, and the parts are written in
order once every file is done.  Every output goes through one encoder, which
turns numpy arrays and scalars into JSON lists and numbers, and one writer.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .classify import (TYPE_I, TYPE_II, TypeIDecomposition, classify_ricci, decompose_double_extension,
                       type_I_decomposition, type_II_canonical_basis)
from .constructions import DoubleExtensionSpec, catalog, check_parallel_conditions, complexify, double_extension, type_I_metric
from .errors import (BadParamsError, DegenerateFormError, JacobiError, LieMetricError, ParseError, ValidationError,
                     VerificationError)
from .geometry import MetricLieAlgebra, is_ad_invariant, is_einstein, is_ricci_flat, is_ricci_parallel, ricci
from .lie import MAX_DIM, LieAlgebra, _is_integer, structure_report
from .linalg import Tolerance, _is_real, _not_real, _plain_reals, as_matrix, signature

EXIT_OK = 0
EXIT_PARSE = ParseError.exit_code
EXIT_PRECONDITION = LieMetricError.exit_code
EXIT_VERIFY = VerificationError.exit_code
SIDECAR_SUFFIX = ".sidecar.json"


def _error_text(exc: LieMetricError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _numpy_to_json(obj):
    """numpy arrays and scalars as Python lists and numbers; anything else is an error, never ``str()``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# stateless between calls, so one encoder serves every output
_ENCODER = json.JSONEncoder(indent=2, allow_nan=False, default=_numpy_to_json)


def _write(parts: list[str], out: str | None):
    """Write the text parts, in order, to the file ``out`` or to stdout."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as f:
                f.writelines(parts)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.writelines(parts)


def _emit(obj, out: str | None):
    _write([_ENCODER.encode(obj), "\n"], out)


def _emit_with_sidecar(m: MetricLieAlgebra, sidecar: dict, out: str | None):
    """Write the algebra file and ``<out>.sidecar.json``, or print both as one object."""
    if out:
        _emit(algebra_to_dict(m), out)
        _emit(sidecar, out + SIDECAR_SUFFIX)
    else:
        _emit({"algebra": algebra_to_dict(m), "sidecar": sidecar}, None)


# ---------------------------------------------------------------------------
# algebra file format
# ---------------------------------------------------------------------------


def _distinct_keys(pairs: list) -> dict:
    """``json.loads``'s object hook: the object, or ParseError for a key it names twice (json keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for n, key in enumerate(keys) if key in keys[:n])
        raise ParseError(f"key {key!r} appears twice in one object")
    return obj


def _read_object(path) -> dict:
    """The JSON object in the file at ``path``; ParseError if unreadable, not JSON or not an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_distinct_keys)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _unknown_field(obj: dict, fields: tuple) -> str | None:
    """The message naming the first key of ``obj`` outside ``fields``, or None."""
    return next((f"unknown field {key!r}" for key in obj if key not in fields), None)


def _field_problem(rec, dim: int, seen) -> str | None:
    """The message for a bracket record's bad 'i', 'j' or 'coeffs' field, a pair in ``seen`` or an unknown field."""
    if not isinstance(rec, dict) or "i" not in rec or "j" not in rec:
        return "each record needs integer fields 'i' and 'j'"
    if not (type(i := rec["i"]) is int and type(j := rec["j"]) is int):  # JSON integers parse to int, true to bool
        return "'i' and 'j' must be integers"
    if not 0 <= i < j < dim:
        return f"need 0 <= i < j < dim, got i={i}, j={j}"
    if (i, j) in seen:
        return f"duplicate bracket pair ({i}, {j})"
    if not isinstance(rec.get("coeffs", {}), dict):
        return "'coeffs' must be an object from index to value"
    return None if len(rec) == 2 + ("coeffs" in rec) else _unknown_field(rec, ("i", "j", "coeffs"))


def _coefficient_error(path, rec_no: int, rec: dict, dim: int) -> ParseError | None:
    """The ParseError of a bracket record's first bad key, else a repeated index, else its lowest bad value; or None."""
    where, coeffs, ks = f"{path}: brackets[{rec_no}]", rec.get("coeffs", {}), []
    for key in coeffs:
        try:
            k = int(key)
        except ValueError:
            return ParseError(f"{where}: coefficient index {key!r} is not an integer")
        if not 0 <= k < dim:
            return ParseError(f"{where}: coefficient index {k} out of range")
        ks.append(k)
    if len(set(ks)) < len(ks):
        return ParseError(f"{where}: two coefficient keys name the same index")
    bad = min(((k, val) for k, val in zip(ks, coeffs.values()) if not _is_real(val)), default=None)
    return None if bad is None else _not_real(f"{path}: [e_{rec['i']}, e_{rec['j']}] coefficient", *bad)


def _first_bad_record(path, brackets: list, dim: int) -> ParseError:
    """The ParseError of the first bracket record with a bad field or coefficient."""
    seen = set()
    for rec_no, rec in enumerate(brackets):
        if problem := _field_problem(rec, dim, seen):
            return ParseError(f"{path}: brackets[{rec_no}]: {problem}")
        if error := _coefficient_error(path, rec_no, rec, dim):
            return error
        seen.add((rec["i"], rec["j"]))
    raise AssertionError(f"{path}: the bulk check rejected bracket records that each pass")


def _bracket_rows(path, brackets: list, dim: int):
    """Pair index arrays (i, j) and the (records, dim) rows of coefficients the bracket records give.

    The bulk check says only yes or no: each record's fields by :func:`_field_problem`, then all keys by one
    ``map(int, ...)``, all values by :func:`liemetric.linalg._plain_reals`, one range test and one test of the
    sorted (record, index) codes.  On a no, :func:`_first_bad_record` names the first bad record.
    """
    seen = {}
    for rec in brackets:
        if _field_problem(rec, dim, seen):
            raise _first_bad_record(path, brackets, dim)
        seen[rec["i"], rec["j"]] = rec.get("coeffs", {})
    maps = list(seen.values())
    try:
        k = np.array(list(map(int, chain.from_iterable(maps))), dtype=np.intp)
    except (ValueError, OverflowError):  # a key that is not an integer, or one beyond the index type
        raise _first_bad_record(path, brackets, dim) from None
    v = _plain_reals(list(chain.from_iterable(map(dict.values, maps))))
    recs = np.repeat(np.arange(len(maps)), list(map(len, maps)))
    code = np.sort(recs * dim + k)  # (record, index) codes, equal neighbours for a repeated index
    if v is None or k.min(initial=0) < 0 or k.max(initial=0) >= dim or (code[1:] == code[:-1]).any():
        raise _first_bad_record(path, brackets, dim)
    rows = np.zeros((len(maps), dim))
    rows[recs, k] = v
    i, j = np.array(list(seen), dtype=np.intp).reshape(len(seen), 2).T
    return i, j, rows


def load_algebra_file(path, tol: Tolerance) -> MetricLieAlgebra:
    doc = _read_object(path)
    if not _is_integer(doc.get("dim")) or not 1 <= doc["dim"] <= MAX_DIM:
        raise ParseError(f"{path}: field 'dim' must be an integer from 1 to {MAX_DIM}")
    if problem := _unknown_field(doc, ("dim", "basis_names", "brackets", "metric")):
        raise ParseError(f"{path}: {problem}")
    dim = doc["dim"]

    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError(f"{path}: field 'brackets' must be a list")
    i, j, rows = _bracket_rows(path, brackets, dim)

    metric = doc.get("metric")
    if metric is None:
        raise ParseError(f"{path}: field 'metric' is required")
    names = doc.get("basis_names")
    if names is not None and not (isinstance(names, list) and len(names) == dim
                                  and all(isinstance(name, str) for name in names)):
        raise ParseError(f"{path}: basis_names must list {dim} strings")

    try:
        gram = as_matrix(metric, dim=dim, name="field 'metric'")
        return MetricLieAlgebra(LieAlgebra._from_rows(dim, i, j, rows, names), gram, tol)
    except JacobiError as exc:
        raise ValidationError(f"{path}: Jacobi identity fails (residual {exc.residual:.3e})") from exc
    except DegenerateFormError as exc:
        raise ValidationError(f"{path}: metric nondegeneracy fails: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: metric symmetry fails: {exc}") from exc
    except LieMetricError as exc:  # the metric's entries or shape
        raise ParseError(f"{path}: {exc}") from exc


def algebra_to_dict(m: MetricLieAlgebra) -> dict:
    i, j = m.algebra.bracket_pairs
    brackets = [{"i": a, "j": b, "coeffs": {str(k): float(row[k]) for k in np.flatnonzero(row)}}
                for a, b, row in zip(i.tolist(), j.tolist(), m.algebra.tensor[i, j])]
    doc = {"dim": m.dim}
    if m.algebra.basis_names is not None:
        doc["basis_names"] = list(m.algebra.basis_names)
    doc["brackets"] = brackets
    doc["metric"] = m.gram.tolist()
    return doc


def _type_I_pair(dec: TypeIDecomposition) -> dict:
    """The (Einstein metric, J) pair behind a type-I metric, with its Ricci lambda and mu."""
    return {"lambda": dec.lam, "mu": dec.mu, "J": dec.J, "einstein_metric": dec.einstein_metric.gram}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def build_report(m: MetricLieAlgebra) -> dict:
    """The ``report`` payload, every verdict judged by ``m.tol``."""
    sig = signature(m.metric)
    rep = structure_report(m.algebra, m.tol)  # before the geometry memo fills, which keeps the peak memory low
    einstein_c, einstein_res = is_einstein(m)
    flat, flat_res = is_ricci_flat(m)
    par = is_ricci_parallel(m)
    adinv, adinv_res = is_ad_invariant(m)
    cls = classify_ricci(m)
    data = ricci(m)

    # by imaginary part first: the real parts of a conjugate pair differ only by rounding
    eig = np.linalg.eigvals(data.operator)
    eigs = sorted(({"re": float(z.real), "im": float(z.imag)} for z in eig),
                  key=lambda e: (e["im"], e["re"]))

    report = {
        "tool": "liemetric",
        "version": __version__,
        "tolerance": asdict(m.tol),
        "dim": m.dim,
        "signature": sig._asdict(),
        "jacobi_residual": m.algebra.jacobi_residual,
        "structure": asdict(rep),
        "einstein": {
            "flag": einstein_c is not None,
            "constant": einstein_c,
            "residual": einstein_res,
        },
        "ricci_flat": {"flag": flat, "residual": flat_res},
        "ricci_parallel": {
            "flag": par.ok,
            "commutator_residual": par.commutator_residual,
            "nabla_ric_residual": par.nabla_residual,
        },
        "ad_invariant": {"flag": adinv, "residual": adinv_res},
        "classification": {
            "tag": cls.tag,
            "constant": cls.constant,
            "lambda": cls.lam,
            "mu": cls.mu,
            "residuals": cls.residuals,
        },
        "scalar_curvature": data.scalar,
        "ricci_eigenvalues": eigs,
        "type_I": None,
        "type_II": None,
    }

    if cls.tag == TYPE_I:
        dec = type_I_decomposition(m)
        report["type_I"] = {**_type_I_pair(dec), "residuals": dec.residuals}
    elif cls.tag == TYPE_II and sig.p == 1:
        canon = type_II_canonical_basis(m)
        report["type_II"] = {"basis": canon.basis, "gram_sign": canon.gram_sign, "residuals": canon.residuals}
    return report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_validate(args, tol: Tolerance) -> int:
    m = load_algebra_file(args.path, tol)
    sig = signature(m.metric)
    diag = {
        "file": str(args.path),
        "dim": m.dim,
        "jacobi_residual": m.algebra.jacobi_residual,
        "metric_signature": sig._asdict(),
        "valid": True,
    }
    if args.json or args.out:
        _emit(diag, args.out)
    else:
        print(f"{args.path}: dim {m.dim}, signature ({sig.p},{sig.q}), "
              f"jacobi residual {diag['jacobi_residual']:.3e}: OK")
    return EXIT_OK


def _cmd_report(args, tol: Tolerance) -> int:
    path = Path(args.path)
    if path.is_dir():
        # json's indent=2 list, one record at a time: a record encoded at the top level is indented
        # one step by indenting each of its lines, since a JSON string holds no raw newline
        parts, code = [], EXIT_OK
        out = Path(args.out).resolve() if args.out else None
        skip = out.name if out is not None and out.parent == path.resolve() else None
        for child in sorted(path.glob("*.json")):
            if child.name == skip or child.name.endswith(SIDECAR_SUFFIX):  # outputs, not algebra files
                continue
            try:
                record = {"file": child.name, "report": build_report(load_algebra_file(child, tol))}
            except LieMetricError as exc:
                print(f"error: {_error_text(exc)}", file=sys.stderr)
                record = {"file": child.name, "error": _error_text(exc), "exit_code": exc.exit_code}
                code = max(code, exc.exit_code)
            parts += (",\n  " if parts else "[\n  "), _ENCODER.encode(record).replace("\n", "\n  ")
            del record  # only encoded text outlives its file, never a report object
        parts.append("\n]\n" if parts else "[]\n")
        _write(parts, args.out)
        return code
    m = load_algebra_file(path, tol)
    report = build_report(m)
    if args.json or args.out:
        _emit(report, args.out)
    else:
        cls = report["classification"]
        print(f"{args.path}: dim {report['dim']}, signature "
              f"({report['signature']['p']},{report['signature']['q']})")
        print(f"  classification: {cls['tag']}")
        print(f"  einstein: {report['einstein']['flag']} (c={report['einstein']['constant']})")
        print(f"  ricci_flat: {report['ricci_flat']['flag']}")
        print(f"  ricci_parallel: {report['ricci_parallel']['flag']}")
        print(f"  ad_invariant: {report['ad_invariant']['flag']}")
    return EXIT_OK


def _cmd_double_extend(args, tol: Tolerance) -> int:
    base = load_algebra_file(args.base, tol)
    doc, n = _read_object(args.ext), base.dim
    if problem := _unknown_field(doc, ("D", "K", "L")):
        raise ParseError(f"{args.ext}: {problem}")
    try:
        spec = DoubleExtensionSpec(base=base, **{"D": np.zeros((n, n)), "K": np.zeros((n, n)), "L": np.zeros(n), **doc})
    except LieMetricError as exc:
        raise ParseError(f"{args.ext}: {exc}") from exc
    ext = double_extension(spec)
    cond = check_parallel_conditions(spec)
    par = is_ricci_parallel(ext)
    sidecar = {
        "delta": cond.invariants.delta,
        "gamma": cond.invariants.gamma,
        "conditions": cond.conditions,
        "base_ricci_parallel": cond.base_parallel.ok,
        "conditions_verdict": cond.ok,
        "extension_ricci_parallel": par.ok,
    }
    _emit_with_sidecar(ext, sidecar, args.out)
    return EXIT_OK


def _cmd_complexify(args, tol: Tolerance) -> int:
    base = load_algebra_file(args.base, tol)
    if args.type1 is not None:
        m = type_I_metric(base, *args.type1)
        sidecar = _type_I_pair(type_I_decomposition(m))
    else:
        m, j = complexify(base)
        sidecar = {"J": j}
    _emit_with_sidecar(m, sidecar, args.out)
    return EXIT_OK


def _cmd_decompose(args, tol: Tolerance) -> int:
    m = load_algebra_file(args.path, tol)
    dec = decompose_double_extension(m)
    sidecar = {"D": dec.spec.D, "K": dec.spec.K, "L": dec.spec.L, "basis": dec.basis, "residuals": dec.residuals}
    _emit_with_sidecar(dec.spec.base, sidecar, args.out)
    return EXIT_OK


def _cmd_catalog(args, tol: Tolerance) -> int:
    try:
        params = json.loads(args.params, object_pairs_hook=_distinct_keys) if args.params else {}
    except json.JSONDecodeError as exc:
        raise BadParamsError(f"--params is not valid JSON: {exc.msg}") from exc
    except ParseError as exc:
        raise ParseError(f"--params: {exc}") from None
    if not isinstance(params, dict):
        raise BadParamsError("--params must be a JSON object")
    m = catalog(args.name, tol, **params)
    _emit(algebra_to_dict(m), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=float, default=1e-9, help="residual floor at unit brackets and metric")
    common.add_argument("--tol-rel", type=float, default=1e-9, help="added to --tol-abs at unit brackets and metric")
    common.add_argument("--tol-rank", type=float, default=1e-8, help="rank cutoff, relative to max|C| or max|g|")
    common.add_argument("--out", default=None, help="write JSON output to this path")

    parser = argparse.ArgumentParser(prog="liemetric",
                                     description="curvature and Ricci classification on metric Lie algebras")
    parser.add_argument("--version", action="version", version=f"liemetric {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, positional):
        p = sub.add_parser(name, help=summary, parents=[common])
        p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    for name, func, summary in (("validate", _cmd_validate, "check an algebra file"),
                                ("report", _cmd_report, "full geometric report (file or directory)")):
        command(name, func, summary, "path").add_argument("--json", action="store_true")
    p = command("double-extend", _cmd_double_extend, "double extension of a base algebra file", "base")
    p.add_argument("ext", help="JSON file with fields D, K, L")
    p = command("complexify", _cmd_complexify, "double the algebra with the split metric", "base")
    p.add_argument("--type1", nargs=2, type=float, metavar=("LAM", "MU"), default=None,
                   help="build the mixed metric with Ricci lambda*Id + mu*J")
    command("decompose", _cmd_decompose, "peel a Lorentz type-II metric into extension data", "path")
    p = command("catalog", _cmd_catalog, "emit a named catalog algebra", "name")
    p.add_argument("--params", default=None, help="JSON object of parameters, e.g. '{\"n\": 2}'")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = Tolerance(abs=args.tol_abs, rel=args.tol_rel, rank=args.tol_rank)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args, tol)
    except LieMetricError as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
