"""Exact reference geometry: the Levi-Civita connection, Ricci and nabla ric over the rationals.

Every float input (the bracket tensor and the Gram matrix) is read as the rational it is: ``Fraction(x)`` of a
double is exact.  So these are the exact values for the package's own inputs, and a difference from the package's
floats is the package's arithmetic, never the rounding of its inputs.  The arrays are numpy object arrays of
``Fraction``, contracted by ``@``.  Each contraction is at most dim^4 rational products, so dim 8 takes well under
a second.  The double-extension invariants Delta and Gamma and the conditions C1-C5 are the closed forms of
``liemetric.constructions``, evaluated on the same terms.
"""

import functools
from fractions import Fraction

import numpy as np

from liemetric.constructions import DoubleExtensionSpec
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


def largest_term(*factors) -> Fraction:
    """The largest |a_ik b_kl ... z_mj| over all indices: the largest of the terms summed in a @ b @ ... @ z."""
    out = np.abs(factors[0])
    for f in map(np.abs, factors[1:]):
        out = functools.reduce(np.maximum, (np.multiply.outer(out[..., k], f[k]) for k in range(f.shape[0])))
    return max_abs(np.asarray(out))


def _trace(a: np.ndarray):
    return np.trace(a, axis1=-2, axis2=-1)


def _spec_data(spec: DoubleExtensionSpec):
    """(G0, G0^-1, C0, D, D*, K, L) of the spec, exact."""
    g0 = rational(spec.base.gram)
    g0_inv = _inverse(g0)
    d = rational(spec.D)
    return g0, g0_inv, rational(spec.base.algebra.tensor), d, g0_inv @ d.T @ g0, rational(spec.K), rational(spec.L)


def extension_invariants(spec: DoubleExtensionSpec) -> tuple[np.ndarray, Fraction]:
    """(Delta, Gamma) by the closed forms of ``constructions.extension_invariants``, with Ric(u) = Delta + Gamma v.

    <Delta, e_i>_0 = -1/2 tr((D + D*) ad_0 e_i) + 1/2 <(D - K) Z_0, e_i>_0 - 1/4 tr(K S_i), S_i with columns
    (ad_0 e_j)* e_i; Gamma = -1/2 tr(D^2) - 1/2 tr(D* D) - 1/4 tr(K^2) + <L, Z_0>_0.
    """
    g0, g0_inv, c0, d, dstar, k, lvec = _spec_data(spec)
    ads = c0.transpose(0, 2, 1)
    adstars = g0_inv @ ads.transpose(0, 2, 1) @ g0
    z0 = g0_inv @ _trace(ads)
    rhs = -_trace((d + dstar) @ ads) / 2 + g0 @ ((d - k) @ z0) / 2 - _trace(k @ adstars.transpose(2, 1, 0)) / 4
    gamma = -_trace(d @ d) / 2 - _trace(dstar @ d) / 2 - _trace(k @ k) / 4 + lvec @ g0 @ z0
    return g0_inv @ rhs, gamma


def parallel_conditions(spec: DoubleExtensionSpec, delta: np.ndarray) -> dict:
    """C1-C5 of ``check_parallel_conditions``: each name maps to (its residual array, the largest term it sums).

    The terms are those of the closed forms with A = D - D* - K and B_+- = D + D* +- K expanded, so a residual
    that is exactly 0 still has the size of what cancelled.
    """
    g0, g0_inv, c0, d, dstar, k, lvec = _spec_data(spec)
    nm0 = connection(c0, g0).transpose(0, 2, 1)
    ric0 = g0_inv @ ricci(c0, nm0)
    a_op, b_plus, b_minus = d - dstar - k, d + dstar + k, d + dstar - k
    parts = (d, dstar, k)
    return {
        "C1": (np.array([lvec @ g0 @ delta]), largest_term(lvec, g0, delta)),
        "C2": (ric0 @ lvec + a_op @ delta / 2,
               max(largest_term(ric0, lvec), *(largest_term(x, delta) / 2 for x in parts))),
        "C3": (ric0 @ a_op - a_op @ ric0, max(max(largest_term(ric0, x), largest_term(x, ric0)) for x in parts)),
        "C4": (b_minus @ delta, max(largest_term(x, delta) for x in parts)),
        "C5": (nm0 @ delta + (ric0 @ b_plus).T / 2,
               max(largest_term(nm0, delta), *(largest_term(ric0, x) / 2 for x in parts))),
    }
