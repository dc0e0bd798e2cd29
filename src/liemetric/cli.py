"""Batch command-line interface.

Algebra files are UTF-8 JSON:

    {
      "dim": 3,
      "basis_names": ["E1", "E2", "Z"],          # optional
      "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 0.816}}],
      "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    }

``dim`` may be at most :data:`liemetric.lie.MAX_DIM`.  Every number given (in
these files, in extension data and after ``--type1``) must pass the rule of
:func:`liemetric.linalg._is_real`: a list, object, string, boolean, NaN or one
beyond :data:`liemetric.linalg.MAX_ABS` in its place exits 2 naming its index.
They are checked in bulk, and searched one by one only to name the bad one.
An object that names a key twice exits 2 (``json`` keeps the last value).
Every bracket record is checked before the dim^3 tensor is allocated.
``--tol-abs`` and ``--tol-rel`` hold at unit brackets and unit metric (see
:data:`liemetric.linalg.DEGREES`), ``--tol-rank`` is relative to the size of
what it cuts, and a loaded file's metric algebra keeps these for every verdict.

Exit codes: 0 success; a failure exits with the ``exit_code`` of its error
class in :mod:`liemetric.errors`: 2 parse/validation failure (also an input
file that cannot be read and an ``--out`` that cannot be written), 3
mathematical precondition failure, 4 verification failure (a certified
invariant of a constructed object did not hold).  ``report <dir>`` reports
every ``*.json`` file in name order, except the file ``--out`` names; a file
that fails gives a ``{"file", "error", "exit_code"}`` record in its place, and
the command exits with the largest code met.  Every output goes through one writer, which turns numpy arrays and
scalars into JSON lists and numbers.
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


def _error_text(exc: LieMetricError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _numpy_to_json(obj):
    """numpy arrays and scalars as Python lists and numbers; anything else is an error, never ``str()``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False, default=_numpy_to_json) + "\n"


def _emit(obj, out: str | None):
    text = _dump(obj)
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_with_sidecar(m: MetricLieAlgebra, sidecar: dict, out: str | None):
    """Write the algebra file and ``<out>.sidecar.json``, or print both as one object."""
    if out:
        _emit(algebra_to_dict(m), out)
        _emit(sidecar, out + ".sidecar.json")
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


def _coefficient_error(path, rec_no: int, rec: dict, dim: int) -> ParseError:
    """The ParseError of a record known to hold a bad coefficient.

    That is its first bad key, else a repeated index, else the value of its lowest bad index.
    """
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
    k, val = min((k, val) for k, val in zip(ks, coeffs.values()) if not _is_real(val))
    return _not_real(f"{path}: [e_{rec['i']}, e_{rec['j']}] coefficient", k, val)


def _bracket_rows(path, brackets: list, dim: int):
    """Pair index arrays (i, j) and the (records, dim) rows of coefficients the bracket records give.

    The records are checked in order and the first bad one raises its
    ParseError: its 'i', 'j' and 'coeffs' fields first, then its first bad
    key, a repeated index, and the value of its lowest bad index.  The fields
    are checked one record at a time, the coefficients of all the records
    before the first bad field at once: keys by ``map(int, ...)`` and array
    masks, values by :func:`liemetric.linalg._plain_reals`.
    """
    seen, problem = {}, None
    for rec in brackets:  # JSON integers parse to int, true and false to bool
        if not isinstance(rec, dict) or "i" not in rec or "j" not in rec:
            problem = "each record needs integer fields 'i' and 'j'"
        elif not (type(i := rec["i"]) is int and type(j := rec["j"]) is int):
            problem = "'i' and 'j' must be integers"
        elif not 0 <= i < j < dim:
            problem = f"need 0 <= i < j < dim, got i={i}, j={j}"
        elif (i, j) in seen:
            problem = f"duplicate bracket pair ({i}, {j})"
        elif not isinstance(coeffs := rec.get("coeffs", {}), dict):
            problem = "'coeffs' must be an object from index to value"
        else:
            seen[i, j] = coeffs
            continue
        break
    maps = list(seen.values())
    counts = list(map(len, maps))
    keys = list(chain.from_iterable(maps))
    rest = iter(keys)
    try:
        ks = list(map(int, rest))
        checked = len(maps)
    except ValueError:  # rest holds the keys after the first one that is not an integer
        checked = int(np.searchsorted(np.cumsum(counts), len(keys) - len(list(rest)) - 1, side="right"))
        ks = list(map(int, keys[:sum(counts[:checked])]))
    try:
        k = np.array(ks, dtype=np.intp)
    except OverflowError:  # beyond the index type, so out of range: clipped to just outside it
        k = np.array(ks, dtype=object).clip(-1, dim).astype(np.intp)
    vals = list(chain.from_iterable(map(dict.values, maps[:checked])))
    v = _plain_reals(vals)
    recs = np.repeat(np.arange(checked), counts[:checked])
    wrapped = k % dim  # an out-of-range key can only repeat an index of its own record
    bad = wrapped != k
    if v is None:
        bad |= ~np.fromiter(map(_is_real, vals), bool, len(vals))
    code = np.sort(recs * dim + wrapped)
    repeated = code[1:] == code[:-1]
    if checked < len(maps) or bad.any() or repeated.any():
        flagged = np.zeros(checked + 1, bool)  # a bad key or value, or a repeated index; and the record at checked
        flagged[recs[bad]] = True
        flagged[code[1:][repeated] // dim] = True
        flagged[checked] = True
        first = int(flagged.argmax())
        raise _coefficient_error(path, first, brackets[first], dim)
    if problem:
        raise ParseError(f"{path}: brackets[{len(maps)}]: {problem}")
    rows = np.zeros((len(maps), dim))
    rows[recs, k] = v
    i, j = np.array(list(seen), dtype=np.intp).reshape(len(seen), 2).T
    return i, j, rows


def load_algebra_file(path, tol: Tolerance) -> MetricLieAlgebra:
    doc = _read_object(path)
    if not _is_integer(doc.get("dim")) or not 1 <= doc["dim"] <= MAX_DIM:
        raise ParseError(f"{path}: field 'dim' must be an integer from 1 to {MAX_DIM}")
    dim = doc["dim"]

    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError(f"{path}: field 'brackets' must be a list")
    i, j, rows = _bracket_rows(path, brackets, dim)

    metric = doc.get("metric")
    if metric is None:
        raise ParseError(f"{path}: field 'metric' is required")
    names = doc.get("basis_names")
    if names is not None and (not isinstance(names, list) or len(names) != dim):
        raise ParseError(f"{path}: basis_names must list {dim} labels")

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
        records, code = [], EXIT_OK
        out = Path(args.out).resolve() if args.out else None
        skip = out.name if out is not None and out.parent == path.resolve() else None
        for child in sorted(path.glob("*.json")):
            if child.name == skip:  # the report an earlier run wrote into this directory
                continue
            try:
                records.append({"file": child.name, "report": build_report(load_algebra_file(child, tol))})
            except LieMetricError as exc:
                print(f"error: {_error_text(exc)}", file=sys.stderr)
                records.append({"file": child.name, "error": _error_text(exc), "exit_code": exc.exit_code})
                code = max(code, exc.exit_code)
        _emit(records, args.out)
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
    try:
        spec = DoubleExtensionSpec(base=base, D=doc.get("D", np.zeros((n, n))), K=doc.get("K", np.zeros((n, n))),
                                   L=doc.get("L", np.zeros(n)))
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
