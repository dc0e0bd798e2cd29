"""Seeded corpus of metric Lie algebras taken in unequal-scale and boosted bases.

Each base is a catalog entry, a double extension (abelian base, nilpotent or
general, from ``sampling``) or a random metric algebra, and each item is one
base after one change of basis.  Every base gets nine unequal-scale changes:
diag(geomspace(1, s, dim)) for s in 10, 100 and 1e3, the same diagonal with its
entries permuted, and q1 diag q2 with q1 and q2 random orthogonal.  A base of
indefinite signature also gets four boosts of rapidity r in 1, 3, 5 and 7: P B
P^-1, with P its pseudo-orthonormal basis and B the boost mixing the first
negative and the last positive direction.  A boost is an isometry of the
metric, so the Gram matrix stays as it was and only the brackets grow.

A change of basis is an isometry, so the verdicts of ``build_report`` in the
changed basis must be those in the base's own basis.  Run
``PYTHONPATH=src python tests/basis_corpus.py`` to print each item that disagrees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from liemetric import catalog, double_extension
from liemetric.cli import build_report
from liemetric.errors import LieMetricError
from liemetric.geometry import MetricLieAlgebra, change_basis
from liemetric.linalg import pseudo_orthonormal_basis, signature
from sampling import (random_abelian_extension_spec, random_general_extension_spec, random_metric_lie_algebra,
                      random_nilpotent_extension_spec)

SEED = 7001
SCALES = (10.0, 100.0, 1e3)
RAPIDITIES = (1.0, 3.0, 5.0, 7.0)
VERDICTS = ("tag", "einstein", "ricci_flat", "ricci_parallel", "ad_invariant")

# one small instance of each catalog entry
_CATALOG = [
    ("heisenberg", {"n": 1}), ("heisenberg", {"n": 2}), ("einstein_solvable", {"n": 1}),
    ("einstein_solvable", {"n": 2}), ("sl_killing", {"n": 2}), ("sl_killing", {"n": 3}),
    ("sl_complex_typeI", {"n": 2, "lam": 1.0, "mu": 2.0}), ("affine_plane", {}), ("abelian", {"p": 1, "q": 2}),
    ("double_ext_demo", {"kind": "solvable"}), ("double_ext_demo", {"kind": "nilpotent", "dim": 4}),
]


@dataclass(frozen=True)
class Item:
    index: int
    family: str     # the base's family
    change: str     # "scale", "permuted", "rotated" or "boost"
    size: float     # the largest scale s, or the rapidity r of a boost
    base: int       # index of the base in ``bases(seed)``
    m: MetricLieAlgebra


@functools.cache
def bases(seed: int = SEED) -> tuple:
    """(family, metric algebra) pairs: 11 catalog entries, 12 of each double-extension family, 10 random."""
    rng = np.random.default_rng(seed)
    out = [("catalog", catalog(name, **params)) for name, params in _CATALOG]
    out += [("abelian_ext", double_extension(random_abelian_extension_spec(rng, 2 + k % 4))) for k in range(12)]
    out += [("nilpotent_ext", double_extension(random_nilpotent_extension_spec(rng, 2 + k % 4))) for k in range(12)]
    out += [("general_ext", double_extension(random_general_extension_spec(rng))) for _ in range(12)]
    for k in range(10):
        dim = 3 + k % 5
        p = int(rng.integers(0, dim + 1))
        out.append(("random", random_metric_lie_algebra(rng, dim, (p, dim - p))))
    return tuple(out)


def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((dim, dim)))[0]


def basis_changes(rng: np.random.Generator, m: MetricLieAlgebra) -> list:
    """(kind, size, basis matrix) triples: the nine unequal-scale changes, then the boosts of an indefinite metric."""
    d = m.dim
    out = []
    for s in SCALES:
        scales = np.geomspace(1.0, s, d)
        out += [("scale", s, np.diag(scales)), ("permuted", s, np.diag(scales[rng.permutation(d)])),
                ("rotated", s, _orthogonal(rng, d) @ np.diag(scales) @ _orthogonal(rng, d))]
    if 0 < signature(m.metric).p < d:
        frame = pseudo_orthonormal_basis(m.metric)[0]  # negative directions first
        for r in RAPIDITIES:
            boost = np.eye(d)
            boost[0, 0] = boost[-1, -1] = np.cosh(r)
            boost[0, -1] = boost[-1, 0] = np.sinh(r)
            out.append(("boost", r, frame @ boost @ np.linalg.inv(frame)))
    return out


@functools.cache
def corpus(seed: int = SEED) -> tuple:
    """Every item of the corpus, in a fixed order."""
    rng = np.random.default_rng(seed + 2)
    items = []
    for b, (family, m) in enumerate(bases(seed)):
        for kind, size, p in basis_changes(rng, m):
            items.append(Item(len(items), family, kind, size, b, change_basis(m, p)))
    return tuple(items)


def verdicts(m: MetricLieAlgebra):
    """The report's tag and four flags, or the name of the library error it raises."""
    try:
        rep = build_report(m)
    except LieMetricError as exc:
        return type(exc).__name__
    return (rep["classification"]["tag"],) + tuple(rep[key]["flag"] for key in VERDICTS[1:])


@functools.cache
def base_verdicts(seed: int, b: int):
    return verdicts(bases(seed)[b][1])


def disagreement(seed: int, index: int) -> str | None:
    """What differs between an item's verdicts and its base's, or None."""
    item = corpus(seed)[index]
    want, got = base_verdicts(seed, item.base), verdicts(item.m)
    if want == got:
        return None
    if isinstance(want, str) or isinstance(got, str):
        return f"raises {got}" if isinstance(got, str) else f"own basis raises {want}"
    return ", ".join(name for name, a, b in zip(VERDICTS, want, got) if a != b)


if __name__ == "__main__":
    for item in corpus():
        if problem := disagreement(SEED, item.index):
            print(f'    {item.index}: "{item.family} {item.change} {item.size:g}: {problem}",')
