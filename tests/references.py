"""Reference maps that the tests read and the package does not."""

import numpy as np

from liemetric.geometry import MetricLieAlgebra, connection, connection_matrices, frame, ricci
from liemetric.lie import _blocks, killing_form, trace_functional
from liemetric.linalg import as_vector, pseudo_orthonormal_basis

# degree of each of invariants() in the structure constants
INVARIANT_DEGREES = (2, 4, 6, 2, 2, 4, 6, 2)


def u_map(m: MetricLieAlgebra, x, y) -> np.ndarray:
    """Symmetric Koszul correction U(x, y) = nabla_x y - 1/2 [x, y], read from the memoised connection.

    It is defined through the metric pairing: <U(x, y), z> = 1/2 (<[z, x], y> + <x, [z, y]>).
    """
    x = as_vector(x, m.dim, name="x")
    y = as_vector(y, m.dim, name="y")
    u = connection(m) - 0.5 * m.algebra.tensor
    n = m.dim
    return y @ (x @ u.reshape(n, n * n)).reshape(n, n)


def _power_traces(op: np.ndarray) -> list:
    """tr op, tr op^2 and tr op^3."""
    return [np.trace(op), np.trace(op @ op), np.trace(op @ op @ op)]


def invariants(m: MetricLieAlgebra) -> np.ndarray:
    """Basis-free invariants taken in the frame, in this order.

    tr Ric^k for k = 1, 2, 3 and |tau|^2_g = tau^T g^-1 tau; tr (g^-1 B)^k for k = 1, 2, 3, B the Killing
    form, and <C, C>_g = g^ia g^jb g_kc C_ij^k C_ab^c, which is sum eps_i eps_j eps_k C_ijk^2 where g = diag(eps).
    """
    f = frame(m)[0]
    c, g, gi = f.algebra.tensor, f.gram, np.linalg.inv(f.gram)
    tau = trace_functional(f.algebra)
    raised = gi @ c.transpose(2, 0, 1) @ gi  # raised[k, a, b] = g^ai g^bj C_ij^k
    return np.array(_power_traces(ricci(f).operator) + [tau @ np.linalg.solve(g, tau)]
                    + _power_traces(gi @ killing_form(f.algebra)) + [np.sum(raised * (c @ g).transpose(2, 0, 1))])


# The out-of-place expressions the geometry kernels compute in place.  Each
# floating-point operation is the same, so the kernels must match them bit for bit.


def max_abs(a) -> float:
    """The max-norm through a temporary |a|."""
    a = np.asarray(a, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def connection_out_of_place(m: MetricLieAlgebra) -> np.ndarray:
    c, g = m.algebra.tensor, m.gram
    b = c @ g
    u_low = 0.5 * (b.transpose(1, 2, 0) + b.transpose(2, 1, 0))
    u = u_low @ np.linalg.inv(g).T
    return 0.5 * c + u


def ricci_out_of_place(f: MetricLieAlgebra) -> np.ndarray:
    """The Ricci tensor of an algebra that is its own frame, from its per-i terms."""
    c, n = f.algebra.tensor, f.dim
    nm = connection_matrices(f)
    idx = np.arange(n)
    d = nm[idx, idx]
    swapped = nm.transpose(1, 0, 2)
    terms = (d @ swapped.reshape(n, n * n)).reshape(n, n, n) - swapped @ nm - c @ swapped
    ric = terms.sum(axis=0)
    return 0.5 * (ric + ric.T)


def nabla_ric_out_of_place(m: MetricLieAlgebra) -> np.ndarray:
    lowered = connection(m) @ ricci(m).tensor
    return -lowered - lowered.transpose(0, 2, 1)


def change_basis_out_of_place(m: MetricLieAlgebra, p: np.ndarray) -> np.ndarray:
    """The bracket tensor in the basis p from one unblocked pull-back and one out-of-place antisymmetrization."""
    c, n = m.algebra.tensor, m.dim
    pulled = p.T @ (p.T @ c.reshape(n, n * n)).reshape(n, n, n)
    new_c = (pulled.reshape(n * n, n) @ np.linalg.inv(p).T).reshape(n, n, n)
    return 0.5 * (new_c - new_c.transpose(1, 0, 2))


def ad_invariance_out_of_place(f: MetricLieAlgebra) -> float:
    b = f.algebra.tensor @ f.gram
    return max_abs(b + b.transpose(0, 2, 1))


def ricci_structural_out_of_place(m: MetricLieAlgebra) -> np.ndarray:
    """The closed formula of ``ricci_structural``, summed over the same blocks of the pseudo-orthonormal basis."""
    c, g, n = m.algebra.tensor, m.gram, m.dim
    basis, signs = pseudo_orthonormal_basis(m.metric)
    neg = int(np.count_nonzero(signs < 0))
    by_first = c.reshape(n, n * n)
    term3, term4 = np.zeros((n, n)), np.zeros((n, n))
    for start, size, eps in ((0, neg, -1.0), (neg, n - neg, 1.0)):
        for s in _blocks(size, n * n):
            s, rows = slice(start + s.start, start + s.stop), s.stop - s.start
            br = (basis[:, s].T @ by_first).reshape(rows, n, n).transpose(1, 0, 2)
            lowered = (br.reshape(n * rows, n) @ g).reshape(n, rows * n)
            term3 = term3 + (-0.5 * eps * br).reshape(n, rows * n) @ lowered.T
            pulled = (basis.T @ lowered).reshape(n * rows, n)
            plus, minus = pulled[neg * rows:], pulled[:neg * rows]
            term4 = term4 + eps * (plus.T @ plus - minus.T @ minus)
    killing = np.zeros((n, n))
    for s in _blocks(n):
        killing[:, s] = by_first @ c[s].transpose(0, 2, 1).reshape(-1, n * n).T
    term_k = -0.25 * (killing + killing.T)
    az = m.algebra.ad(m.metric.solve(trace_functional(m.algebra)))
    azg = az.T @ g
    term_z = -0.5 * (azg + azg.T)
    out = term_k + term_z + term3 + 0.25 * term4
    return 0.5 * (out + out.T)


def ricci_structural_unblocked(m: MetricLieAlgebra) -> np.ndarray:
    """The closed formula with each sum over the basis in one product: ``ricci_structural`` before it took blocks."""
    c, g, n = m.algebra.tensor, m.gram, m.dim
    basis, signs = pseudo_orthonormal_basis(m.metric)
    eps = signs.astype(float)
    term_k = -0.5 * killing_form(m.algebra)
    az = m.algebra.ad(m.metric.solve(trace_functional(m.algebra)))
    azg = az.T @ g
    term_z = -0.5 * (azg + azg.T)
    br = basis.T @ c
    term3 = -0.5 * (br * eps[:, None]).reshape(n, n * n) @ (br @ g).reshape(n, n * n).T
    pulled = basis.T @ (basis.T @ c.reshape(n, n * n)).reshape(n, n, n)
    p = (pulled @ g).reshape(n * n, n)
    term4 = 0.25 * (p.T * np.outer(eps, eps).ravel()) @ p
    out = term_k + term_z + term3 + term4
    return 0.5 * (out + out.T)
