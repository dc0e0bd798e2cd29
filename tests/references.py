"""Reference maps that the tests read and the package does not."""

import numpy as np

from liemetric.geometry import MetricLieAlgebra, connection, frame, ricci
from liemetric.lie import trace_functional
from liemetric.linalg import as_vector

# degree of each of invariants() in the structure constants
INVARIANT_DEGREES = (2, 4, 6, 2)


def u_map(m: MetricLieAlgebra, x, y) -> np.ndarray:
    """Symmetric Koszul correction U(x, y) = nabla_x y - 1/2 [x, y], read from the memoised connection.

    It is defined through the metric pairing: <U(x, y), z> = 1/2 (<[z, x], y> + <x, [z, y]>).
    """
    x = as_vector(x, m.dim, name="x")
    y = as_vector(y, m.dim, name="y")
    u = connection(m) - 0.5 * m.algebra.tensor
    n = m.dim
    return y @ (x @ u.reshape(n, n * n)).reshape(n, n)


def invariants(m: MetricLieAlgebra) -> np.ndarray:
    """Basis-free invariants taken in the frame: tr Ric, tr Ric^2, tr Ric^3 and |tau|^2_g = tau^T g^-1 tau."""
    f = frame(m)[0]
    op = ricci(f).operator
    tau = trace_functional(f.algebra)
    return np.array([np.trace(op), np.trace(op @ op), np.trace(op @ op @ op), tau @ np.linalg.solve(f.gram, tau)])
