"""Central finite differences, the yardstick of the gradient tests."""

import numpy as np


def numeric_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
