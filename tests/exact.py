"""Exact reference geometry: the Levi-Civita connection, Ricci and nabla ric over the rationals.

Every float input (the bracket tensor and the Gram matrix) is read as the rational it is: ``Fraction(x)`` of a
double is exact.  So these are the exact values for the package's own inputs, and a difference from the package's
floats is the package's arithmetic, never the rounding of its inputs.  The arrays are numpy object arrays of
``Fraction``, contracted by ``@``.  Each contraction is at most dim^4 rational products, so dim 8 takes well under
a second.
"""

from fractions import Fraction

import numpy as np

from liemetric.geometry import MetricLieAlgebra


def rational(a) -> np.ndarray:
    """``a`` as an object array of the exact ``Fraction`` of each float entry."""
    a = np.asarray(a, dtype=float)
    return np.array([Fraction(x) for x in a.ravel().tolist()], dtype=object).reshape(a.shape)


def _inverse(g: np.ndarray) -> np.ndarray:
    """Exact inverse of a nonsingular rational matrix, by Gauss-Jordan elimination."""
    n = g.shape[0]
    aug = [list(g[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return np.array([row[n:] for row in aug], dtype=object).reshape(n, n)


def connection(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """N[i, j, :] = components of nabla_{e_i} e_j, by the Koszul formula.

    2 <nabla_i e_j, e_k> = <[e_i, e_j], e_k> - <[e_j, e_k], e_i> + <[e_k, e_i], e_j>.
    """
    b = c @ g  # b[i, j, k] = <[e_i, e_j], e_k>
    lowered = (b - b.transpose(2, 0, 1) + b.transpose(1, 2, 0)) * Fraction(1, 2)
    return lowered @ _inverse(g)


def ricci(c: np.ndarray, nm: np.ndarray) -> np.ndarray:
    """The symmetric part of ric_jk = sum_i (N_i N_j - N_j N_i - sum_m c_ijm N_m)_ik, the trace of curvature.

    ``nm`` holds the matrices N_i of nabla_{e_i}, nm[i][l, j] = N[i, j, l].  For exact Lie brackets the trace is
    symmetric already; brackets rounded to doubles (an irrational constant) need not satisfy Jacobi exactly, and
    the package takes the symmetric part too.
    """
    n = c.shape[0]
    trace = nm[np.arange(n), np.arange(n)].sum(axis=0)  # sum_i row i of N_i
    ric = (trace @ nm
           - nm.reshape(n, n * n) @ nm.reshape(n * n, n)
           - c.transpose(1, 0, 2).reshape(n, n * n) @ nm.transpose(1, 0, 2).reshape(n * n, n))
    return (ric + ric.T) * Fraction(1, 2)


def nabla_ric(n_conn: np.ndarray, ric: np.ndarray) -> np.ndarray:
    """(nabla_{e_i} ric)(e_j, e_k) = -ric(nabla_i e_j, e_k) - ric(e_j, nabla_i e_k), ric symmetric."""
    lowered = n_conn @ ric  # ric(nabla_i e_j, e_k)
    return -lowered - lowered.transpose(0, 2, 1)


def geometry(m: MetricLieAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, ric, nabla ric) of ``m`` in its own basis, exact for its float brackets and Gram matrix."""
    c = rational(m.algebra.tensor)
    n_conn = connection(c, rational(m.gram))
    ric = ricci(c, n_conn.transpose(0, 2, 1))
    return n_conn, ric, nabla_ric(n_conn, ric)


def max_abs(a: np.ndarray) -> Fraction:
    """Largest |entry| of a rational array, exactly; 0 when it is empty."""
    return max((abs(x) for x in a.ravel().tolist()), default=Fraction(0))


def error(approx, exact: np.ndarray) -> Fraction:
    """max |approx - exact| over the entries, exactly: each float entry is read as its own rational."""
    return max_abs(rational(approx) - exact)
