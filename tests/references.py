"""Reference maps that the tests read and the package does not."""

import numpy as np

from liemetric.geometry import MetricLieAlgebra, connection
from liemetric.linalg import as_vector


def u_map(m: MetricLieAlgebra, x, y) -> np.ndarray:
    """Symmetric Koszul correction U(x, y) = nabla_x y - 1/2 [x, y], read from the memoised connection.

    It is defined through the metric pairing: <U(x, y), z> = 1/2 (<[z, x], y> + <x, [z, y]>).
    """
    x = as_vector(x, m.dim, name="x")
    y = as_vector(y, m.dim, name="y")
    u = connection(m) - 0.5 * m.algebra.tensor
    n = m.dim
    return y @ (x @ u.reshape(n, n * n)).reshape(n, n)
