"""Seeded inputs and the three workloads of the liemetric benchmark.

Every input is generated here from the seed, never by ``liemetric.sampling``,
so a change to the package's samplers cannot change what is measured.
Catalog algebras come from the public ``catalog()``; building them is part of
set-up.

A workload's ``generate`` returns the units of one pass.  A unit is a timed
call sequence into the package (``run``) followed by an untimed correctness
check (``check``) that returns ``{item: reason}`` for every item that failed.
The package is always called through module attributes (``lm.ricci``,
``cli.main``), so the traced run sees the benchmark's own calls too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import liemetric as lm
from liemetric import cli

TOL = lm.DEFAULT_TOL
SPREAD = 1.5  # singular values of the random bases lie in [1/SPREAD, SPREAD]


@dataclass
class Unit:
    """One timed call sequence covering ``items`` items of its workload."""

    name: str
    items: int
    run: Callable[[], object]
    check: Callable[[object, dict], dict]
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_invertible(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random matrix with singular values drawn from [1/SPREAD, SPREAD]."""
    u, _, vt = np.linalg.svd(rng.normal(size=(dim, dim)))
    return u @ np.diag(rng.uniform(1.0 / SPREAD, SPREAD, size=dim)) @ vt


def random_metric(rng: np.random.Generator, p: int, q: int) -> np.ndarray:
    """Well-conditioned Gram matrix with p negative and q positive directions."""
    a = random_invertible(rng, p + q)
    return a.T @ np.diag([-1.0] * p + [1.0] * q) @ a


def almost_abelian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Bracket tensor of R x_A R^(dim-1) for a random (non-nilpotent) A."""
    a = rng.normal(scale=0.7, size=(dim - 1, dim - 1))
    c = np.zeros((dim, dim, dim))
    c[0, 1:, 1:] = a.T  # [e_0, e_j] = sum_i A[i, j] e_i
    c[1:, 0] = -c[0, 1:]
    return c


SIMPLE_3D = {"sl2": (1.0, -1.0, -1.0), "so3": (1.0, 1.0, 1.0)}


def reductive(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Bracket tensor of s + r: s is sl(2) or so(3), r almost-abelian (or abelian) of dim - 3."""
    signs = SIMPLE_3D[str(rng.choice(sorted(SIMPLE_3D)))]
    c = np.zeros((dim, dim, dim))
    for (i, j, k), sign in zip(((0, 1, 2), (1, 2, 0), (2, 0, 1)), signs):
        c[i, j, k], c[j, i, k] = sign, -sign  # [e_i, e_j] = sign * e_k
    if dim - 3 >= 2:
        c[3:, 3:, 3:] = almost_abelian(rng, dim - 3)
    return c


def pull_back(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Bracket tensor in the basis given by the columns of p."""
    new = np.einsum("abm,ai,bj,lm->ijl", c, p, p, np.linalg.inv(p), optimize=True)
    return 0.5 * (new - new.transpose(1, 0, 2))


def skew(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    return 0.5 * (a - a.T)


EXTENSION_FAMILIES = ("k_skew", "nilpotent_d", "split")


def extension_data(rng: np.random.Generator, n: int, family: str):
    """Exact (D, K, L) over the Euclidean abelian R^n (n >= 4).

    Each family keeps K D + D^T K = 0 exactly and D nilpotent, so the double
    extension is nilpotent, Lorentz and of Ricci type II.
    """
    d = np.zeros((n, n))
    k = np.zeros((n, n))
    if family == "k_skew":
        k = skew(rng, n)
    elif family == "nilpotent_d":
        d = np.triu(rng.normal(size=(n, n)), k=1)
    elif family == "split":
        d[0, 1] = rng.normal()
        k[2:, 2:] = skew(rng, n - 2)
    else:
        raise ValueError(f"unknown extension family {family!r}")
    return d, k, rng.normal(size=n)


def write_algebra(path: Path, tensor: np.ndarray, gram: np.ndarray):
    """Write an algebra file in the documented format (brackets for i < j)."""
    dim = gram.shape[0]
    brackets = [
        {"i": i, "j": j, "coeffs": {str(k): float(v) for k, v in enumerate(tensor[i, j]) if v != 0.0}}
        for i in range(dim) for j in range(i + 1, dim) if np.any(tensor[i, j] != 0.0)
    ]
    doc = {"dim": dim, "brackets": brackets, "metric": gram.tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def routes(m) -> tuple:
    """Both Ricci routes and the package's threshold for their agreement."""
    return lm.ricci(m).tensor, lm.ricci_structural(m), TOL.threshold(m.residual_scale())


def route_problem(pair, expect: dict) -> str | None:
    ric, ric_structural, threshold = pair
    res = float(np.max(np.abs(ric - ric_structural + expect.get("route_offset", 0.0))))
    return None if res <= threshold else f"Ricci routes differ by {res:.3e} > {threshold:.3e}"


def close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOL.threshold(scale)


def same_bytes(path: Path, store: dict) -> str | None:
    """The first output read becomes the reference for every later pass."""
    text = path.read_bytes()
    return None if text == store.setdefault("bytes", text) else f"{path.name} differs from the first pass"


def _problems(item: str, *reasons) -> dict:
    found = [r for r in reasons if r]
    return {item: "; ".join(found)} if found else {}


# ---------------------------------------------------------------------------
# report_large
# ---------------------------------------------------------------------------


class ReportLarge:
    name = "report_large"
    why = ("two catalog algebras at dim 48 (sl(7), Einstein solvable ext. of H_23) through `liemetric report` "
           "and the Ricci cross-check: n^4/n^5 lie and geometry kernels dominate")

    def __init__(self, tiny: bool = False):
        self.sl_n, self.es_n = (2, 1) if tiny else (7, 23)

    def generate(self, rng: np.random.Generator, workdir: Path) -> list[Unit]:
        workdir.mkdir(parents=True)
        units = []
        for label, m, check, expect in (
            (f"sl{self.sl_n}", lm.catalog("sl_killing", n=self.sl_n), _check_sl, {"einstein": -0.25}),
            (f"einstein_solvable{self.es_n}", lm.catalog("einstein_solvable", n=self.es_n), _check_solvable,
             {"einstein": -1.0}),
        ):
            path = workdir / f"{label}.json"
            write_algebra(path, m.algebra.tensor, m.gram)
            units.append(Unit(label, 1, _report_run(path, workdir / f"{label}.report.json"),
                              check, expect))
        return units


def _report(argv: list):
    """``liemetric report``; a nonzero exit raises, so none of the call's items count as finished."""
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"liemetric {' '.join(argv)} exited with code {code}")


def _report_run(path: Path, out: Path):
    def run():
        _report(["report", str(path), "--json", "--out", str(out)])
        return out, routes(cli.load_algebra_file(path, TOL))
    return run


def _read_report(result, expect: dict):
    out, pair = result
    return json.loads(out.read_text(encoding="utf-8")), [same_bytes(out, expect), route_problem(pair, expect)]


def _einstein_problems(rep: dict, expect: dict) -> list:
    c = rep["einstein"]["constant"]
    problems = [] if rep["einstein"]["flag"] and close(c, expect["einstein"]) else \
        [f"Einstein constant {c}, expected {expect['einstein']}"]
    if not rep["ricci_parallel"]["flag"]:
        problems.append("not Ricci-parallel")
    return problems


def _check_sl(result, expect: dict) -> dict:
    """sl(n) with its Killing metric: Einstein with c = -1/4, ad-invariant, Ricci-parallel."""
    rep, problems = _read_report(result, expect)
    problems += _einstein_problems(rep, expect)
    if not rep["ad_invariant"]["flag"]:
        problems.append("not ad-invariant")
    return _problems("sl", *problems)


def _check_solvable(result, expect: dict) -> dict:
    """Rank-one extension of H_n: Einstein with c = -1 (ric = -metric), solvable, not nilpotent,
    derived algebra of codimension 1."""
    rep, problems = _read_report(result, expect)
    problems += _einstein_problems(rep, expect)
    structure = rep["structure"]
    if structure["is_nilpotent"] or not structure["is_solvable"] or structure["derived_dim"] != rep["dim"] - 1:
        problems.append(f"structure {structure}, expected solvable, not nilpotent, derived_dim {rep['dim'] - 1}")
    return _problems("einstein_solvable", *problems)


# ---------------------------------------------------------------------------
# report_batch
# ---------------------------------------------------------------------------


class ReportBatch:
    name = "report_batch"
    why = ("400 small algebras (dim 3-12, reductive in random bases or almost-abelian) with random metrics "
           "through one directory-mode `liemetric report`: parsing, set-up, JSON output dominate")

    def __init__(self, tiny: bool = False):
        self.count, self.dims = (6, (3, 5)) if tiny else (400, (3, 12))

    def generate(self, rng: np.random.Generator, workdir: Path) -> list[Unit]:
        """Each dim from 3 to 12 equally often, half reductive (s + r) in a random basis, half
        almost-abelian in its own basis.

        Both kinds keep ``structure_report`` away from exact-zero series steps
        computed from a rounded basis, where the package misreports nilpotent
        and solvable algebras (see ``known_defects.py``).
        """
        indir = workdir / "algebras"
        indir.mkdir(parents=True)
        expect = {}
        dims = range(self.dims[0], self.dims[1] + 1)
        for k in range(self.count):  # the same sizes and kinds for every seed, so a pass costs the same
            dim, solvable = dims[k // 2 % len(dims)], bool(k % 2)
            c = almost_abelian(rng, dim) if solvable else pull_back(reductive(rng, dim), random_invertible(rng, dim))
            p = int(rng.integers(0, dim + 1))
            name = f"{k:03d}.json"
            write_algebra(indir / name, c, random_metric(rng, p, dim - p))
            expect[name] = {"p": p, "q": dim - p, "is_nilpotent": False, "is_solvable": solvable,
                            "nilpotency_step": None}
        batch = _Batch(indir, expect)
        return [Unit("batch", self.count, batch.run, batch.check)]


class _Batch:
    """Directory-mode `liemetric report` over the generated files."""

    def __init__(self, indir: Path, expect: dict):
        self.indir = indir
        self.out = indir.with_suffix(".report.json")
        self.expect = expect          # file name -> generated signature and flags
        self.reference = {}           # bytes of the first pass's output

    def run(self):
        # directory mode stops at the first file that raises and writes nothing
        _report(["report", str(self.indir), "--out", str(self.out)])

    def check(self, _, expect: dict) -> dict:
        """Every file's signature and structure flags match what was generated."""
        ident = same_bytes(self.out, self.reference)
        got = {rec["file"]: rec["report"] for rec in json.loads(self.out.read_text(encoding="utf-8"))}
        failed = {}
        for name, want in self.expect.items():
            rep = got.get(name)
            if rep is None:
                failed[name] = "missing from the batch output"
                continue
            seen = {"p": rep["signature"]["p"], "q": rep["signature"]["q"],
                    **{k: rep["structure"][k] for k in ("is_nilpotent", "is_solvable", "nilpotency_step")}}
            if seen != want or ident:
                failed[name] = ident or f"reported {seen}, generated {want}"
        return failed


# ---------------------------------------------------------------------------
# construct_roundtrip
# ---------------------------------------------------------------------------


class ConstructRoundtrip:
    name = "construct_roundtrip"
    why = ("type II/type I/central and cotangent constructions and their decompositions at dim 6-30: "
           "change_basis, ricci_structural and constructions dominate")

    def __init__(self, tiny: bool = False):
        if tiny:
            self.base_dims, self.type1, self.heis = (4,), (("sl_killing", 2), ("einstein_solvable", 1)), (1,)
        else:
            self.base_dims = tuple(range(4, 17, 2))
            self.type1 = tuple(("sl_killing", n) for n in (2, 3, 4)) + \
                tuple(("einstein_solvable", n) for n in (1, 2, 3, 4))
            self.heis = tuple(range(1, 7))

    def generate(self, rng: np.random.Generator, workdir: Path) -> list[Unit]:
        units = []
        for n in self.base_dims:
            for family in EXTENSION_FAMILIES:
                d, k, lvec = extension_data(rng, n, family)
                units.append(Unit(f"type_II/{family}/{n}", 1, _type_ii_run(n, d, k, lvec), _check_type_ii))
        for name, n in self.type1:
            base = lm.catalog(name, n=n)
            lam = float(rng.uniform(-2.0, 2.0))
            mu = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            units.append(Unit(f"type_I/{name}{n}", 1, _type_i_run(base, lam, mu), _check_type_i,
                              {"lam": lam, "mu": abs(mu)}))
        for n in self.heis:
            units.append(Unit(f"central/heisenberg{n}", 1,
                              _central_run(lm.catalog("heisenberg", n=n).algebra), _check_central))
        return units


def _type_ii_run(n, d, k, lvec):
    def run():
        base = lm.MetricLieAlgebra(lm.LieAlgebra(n, {}), np.eye(n))
        spec = lm.DoubleExtensionSpec(base, d, k, lvec)
        m = lm.double_extension(spec)
        lm.extension_invariants(spec)
        certificate = lm.check_parallel_conditions(spec).ok
        direct = lm.is_ricci_parallel(m).ok
        tag = lm.classify_ricci(m).tag
        dec = lm.decompose_double_extension(m)
        return m, certificate, direct, tag, dec, routes(m)
    return run


def _check_type_ii(result, expect: dict) -> dict:
    """Certificate equals the direct verdict; the decomposition rebuilds an isometric algebra."""
    m, certificate, direct, tag, dec, pair = result
    rebuilt = lm.verify_isometry(dec.basis, lm.double_extension(dec.spec), m).ok
    return _problems(
        "type_II",
        certificate != direct and f"certificate says {certificate}, direct check says {direct}",
        tag != "type_II" and f"classified {tag!r}",
        not rebuilt and "decomposition does not rebuild an isometric algebra",
        route_problem(pair, expect),
    )


def _type_i_run(base, lam, mu):
    def run():
        fresh = lm.MetricLieAlgebra(base.algebra, base.metric)  # empty geometry memo every pass
        m = lm.type_I_metric(fresh, lam, mu)
        dec = lm.type_I_decomposition(m)
        return dec.lam, dec.mu, routes(m)
    return run


def _check_type_i(result, expect: dict) -> dict:
    """classify_ricci gives back lambda and |mu|."""
    lam, mu, pair = result
    scale = max(1.0, abs(expect["lam"]), expect["mu"])
    return _problems(
        "type_I",
        not (close(lam, expect["lam"], scale) and close(mu, expect["mu"], scale))
        and f"recovered ({lam}, {mu}), built ({expect['lam']}, {expect['mu']})",
        route_problem(pair, expect),
    )


def _central_run(algebra):
    def run():
        central = lm.central_extension_metric(algebra)
        central_parallel = lm.is_ricci_parallel(central).ok
        cotangent = lm.bordemann_cotangent(algebra)
        cotangent_parallel = lm.is_ricci_parallel(cotangent).ok
        return central, central_parallel, routes(central), cotangent, cotangent_parallel, routes(cotangent)
    return run


def _check_central(result, expect: dict) -> dict:
    """ric = -1/2 Killing on the central extension; the cotangent extension is ad-invariant."""
    central, central_parallel, central_pair, cotangent, cotangent_parallel, cotangent_pair = result
    half_killing = float(np.max(np.abs(lm.ricci(central).tensor + 0.5 * lm.killing_form(central.algebra))))
    return _problems(
        "central",
        not (central_parallel and cotangent_parallel) and "an extension is not Ricci-parallel",
        half_killing > TOL.threshold(central.residual_scale()) and f"|ric + K/2| = {half_killing:.3e}",
        not lm.is_ad_invariant(cotangent)[0] and "cotangent extension is not ad-invariant",
        route_problem(central_pair, expect),
        route_problem(cotangent_pair, expect),
    )


WORKLOADS = {w.name: w for w in (ReportLarge, ReportBatch, ConstructRoundtrip)}
