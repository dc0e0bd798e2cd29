"""Program defects that the benchmark's inputs are chosen to stay clear of.

    python3 perfbench/known_defects.py

The benchmark may only use inputs on which every operation succeeds, so its
workloads avoid the cases below.  This script reproduces each of them on the
package in ``src/`` and prints one line per case; it exits 1 while any of
them still shows, so a fix can be confirmed and the workloads widened again.
"""

from __future__ import annotations

import sys

import run

run.import_package()

import numpy as np  # noqa: E402

import liemetric as lm  # noqa: E402
import workloads  # noqa: E402


def nilpotent_heisenberg() -> bool:
    """structure_report cuts rank relative to each series step's own largest singular value,
    so rounding noise in a vanishing step counts as rank: H_24 is reported not nilpotent."""
    return not lm.structure_report(lm.catalog("heisenberg", n=24).algebra).is_nilpotent


def solvable_random_basis() -> bool:
    """The same cut in a random basis: an almost-abelian algebra of dim 6 is reported not solvable."""
    rng = np.random.default_rng(0)
    c = workloads.pull_back(workloads.almost_abelian(rng, 6), workloads.random_invertible(rng, 6))
    algebra = lm.LieAlgebra(6, {(i, j): c[i, j] for i in range(6) for j in range(i + 1, 6)})
    return not lm.structure_report(algebra).is_solvable


def type_ii_floor() -> bool:
    """classify_ricci tests Ric^2 against an absolute floor: H_1 with [e0, e1] = 1e-3 e2 and the
    Lorentz metric diag(1, 1, -1) has a diagonal Ric != 0 yet is tagged type II, so
    `liemetric report` raises NotTypeIIError."""
    m = lm.MetricLieAlgebra(lm.LieAlgebra(3, {(0, 1): [0.0, 0.0, 1e-3]}), np.diag([1.0, 1.0, -1.0]))
    return lm.classify_ricci(m).tag == "type_II"


def main() -> int:
    found = 0
    for case in (nilpotent_heisenberg, solvable_random_basis, type_ii_floor):
        shows = case()
        found += shows
        print(f"{'SHOWS' if shows else 'fixed'} {case.__name__}: {' '.join(case.__doc__.split())}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
