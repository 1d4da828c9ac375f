"""Small shared numerical kernels."""

from __future__ import annotations

import numpy as np

DEFAULT_BUDGET = 2**24


def kahan_cumsum(arr: np.ndarray, axis: int) -> np.ndarray:
    """Compensated running sums along one axis.

    Same contract as np.cumsum but with Kahan-style error carry, so prefix
    sums over ~1e6 terms keep full double precision. Works for real and
    complex input; the loop runs along the chosen axis only, everything else
    is vectorized, with every step written into preallocated buffers.
    """
    moved = np.moveaxis(np.asarray(arr), axis, 0)
    out = np.empty_like(moved)
    # np.array, not moved[0].copy(): for 1-D input moved[0] is a numpy
    # scalar, and the out= calls below need arrays
    total = np.array(moved[0])
    comp = np.zeros_like(total)
    y = np.empty_like(total)
    acc = np.empty_like(total)
    out[0] = total
    for t in range(1, moved.shape[0]):
        np.subtract(moved[t], comp, out=y)
        np.add(total, y, out=acc)
        np.subtract(acc, total, out=comp)
        np.subtract(comp, y, out=comp)
        total, acc = acc, total
        out[t] = total
    return np.moveaxis(out, 0, axis)
