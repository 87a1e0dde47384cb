"""Finite-difference gradient checking."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, backward


def grad_check(f, inputs):
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` takes a list of Tensors and returns a scalar Tensor; it must
    be deterministic.  Returns the worst relative error over all input
    coordinates, with denominator max(|analytic|, |numeric|, 1e-8), at
    a central-difference step of 1e-5.
    """
    step = 1e-5
    tensors = [Tensor(np.array(v, dtype=np.float64)) for v in inputs]
    out = f(tensors)
    backward(out)
    worst = 0.0
    for t in tensors:
        flat = t.values.ravel()
        gflat = (np.zeros_like(flat) if t.grad is None else t.grad.ravel())
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(f(tensors).values)
            flat[i] = orig - step
            fm = float(f(tensors).values)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * step)
            analytic = gflat[i]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
