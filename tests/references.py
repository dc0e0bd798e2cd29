"""Reference maps that the tests read and the package does not."""

import numpy as np

from liemetric.geometry import MetricLieAlgebra, connection, frame, ricci
from liemetric.lie import killing_form, trace_functional
from liemetric.linalg import as_vector

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
