"""Finite-difference gradients and the error measure the gradient tests compare them with."""

import numpy as np


def central_difference(f, arrays, step=1e-5):
    """Central finite-difference gradients of scalar f w.r.t. each array.

    ``f`` must be a pure function of the arrays' current contents; it is
    re-evaluated 2x per entry with the entry perturbed in place.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    """Elementwise |a - n| / max(|a|, |n|, floor), maximised over entries."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
