"""Peak working set of the report path under tracemalloc, in dim^3 arrays of doubles above the loaded algebra.

    PYTHONPATH=src:tests python tests/working_set.py

prints the peak of ``change_basis`` into the frame, and of ``build_report`` plus ``ricci_structural``, on sl(7) and
the Einstein extension of H_23 in their catalog bases (the inputs of perfbench's ``report_large``), the latter on
sl(7) and on H_32 in the seed-26 random basis, and the peak of ``killing_form`` on the sl(7) and H_32 catalog tensors.
"""

import tracemalloc

import numpy as np

from liemetric import catalog, change_basis, killing_form, ricci_structural
from liemetric.cli import build_report
from liemetric.linalg import pseudo_orthonormal_basis
from sampling import random_invertible


def traced_peak(fn) -> int:
    """Bytes at the tracemalloc peak of ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def report_peak(name: str, n: int, basis_seed: int | None = None) -> float:
    """Peak of ``build_report`` plus ``ricci_structural`` on a catalog algebra, in dim^3 arrays of doubles."""
    m = catalog(name, n=n)
    if basis_seed is not None:
        m = change_basis(m, random_invertible(np.random.default_rng(basis_seed), m.dim))
    return traced_peak(lambda: (build_report(m), ricci_structural(m))) / (8 * m.dim ** 3)


def change_basis_peak(name: str, n: int) -> float:
    """Peak of ``change_basis`` of a catalog algebra into its pseudo-orthonormal frame, in dim^3 arrays of doubles."""
    m = catalog(name, n=n)
    p = pseudo_orthonormal_basis(m.metric)[0]
    return traced_peak(lambda: change_basis(m, p)) / (8 * m.dim ** 3)


def killing_form_peak(name: str, n: int) -> float:
    """Peak of ``killing_form`` of a catalog algebra, in dim^3 arrays of doubles."""
    g = catalog(name, n=n).algebra
    return traced_peak(lambda: killing_form(g)) / (8 * g.dim ** 3)


if __name__ == "__main__":
    large = (("sl(7)", "sl_killing", 7), ("Einstein ext. of H_23", "einstein_solvable", 23))
    print("change_basis into the frame, catalog basis, dim^3 arrays above the algebra: "
          + ", ".join(f"{label} {change_basis_peak(name, n):.2f}" for label, name, n in large))
    print("build_report + ricci_structural, catalog basis, dim^3 arrays above the algebra: "
          + ", ".join(f"{label} {report_peak(name, n):.2f}" for label, name, n in large))
    peaks = ", ".join(f"{label} {report_peak(name, n, 26):.2f}" for label, name, n in (("sl(7)", "sl_killing", 7),
                                                                                        ("H_32", "heisenberg", 32)))
    print(f"build_report + ricci_structural, seed-26 random basis, dim^3 arrays above the algebra: {peaks}")
    peaks = ", ".join(f"{label} {killing_form_peak(name, n):.2f}" for label, name, n in (("sl(7)", "sl_killing", 7),
                                                                                          ("H_32", "heisenberg", 32)))
    print(f"killing_form, catalog basis, dim^3 arrays above the algebra: {peaks}")
