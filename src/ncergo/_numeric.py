"""Small shared numerical kernels."""

from __future__ import annotations

import numpy as np

DEFAULT_BUDGET = 2**24
# working-set size of streamed passes over large arrays (grid chunks, norm
# member chunks), chosen by measurement: large enough that the per-call
# overhead of the vectorized steps stays small. It is not a cache size: a
# chunk near 4 MB is twice the 2 MiB per-core L2 of the 2-CPU Xeon host the
# benchmarks were measured on
CHUNK_BYTES = 4 << 20


def kahan_cumsum(arr: np.ndarray, axis: int, out: np.ndarray | None = None,
                 carry: list | None = None) -> np.ndarray:
    """Compensated running sums along one axis.

    Same contract as np.cumsum but with Kahan-style error carry, so prefix
    sums over ~1e6 terms keep full double precision. Works for real and
    complex input; the loop runs along the chosen axis only, everything else
    is vectorized, with every step written into preallocated buffers.

    `out` (shaped like `arr`; `arr` itself for in-place use) receives the
    sums. `carry` sums a long axis in chunks: pass an empty list with the
    first chunk and the same list with each later one. It holds the
    (total, compensation) pair across calls, so the chunks' outputs are
    bitwise those of one call over the whole axis.
    """
    moved = np.moveaxis(np.asarray(arr), axis, 0)
    res = np.empty_like(moved) if out is None else np.moveaxis(out, axis, 0)
    start = 0
    if carry:
        total, comp = carry
    else:
        # np.array, not moved[0].copy(): for 1-D input moved[0] is a numpy
        # scalar, and the out= calls below need arrays
        total = np.array(moved[0])
        comp = np.zeros_like(total)
        res[0] = total
        start = 1
        if carry is not None:
            carry[:] = total, comp
    y = np.empty_like(total)
    acc = np.empty_like(total)
    for t in range(start, moved.shape[0]):
        np.subtract(moved[t], comp, out=y)
        np.add(total, y, out=acc)
        np.subtract(acc, total, out=comp)
        np.subtract(comp, y, out=comp)
        total, acc = acc, total
        res[t] = total
    if carry is not None and total is not carry[0]:
        carry[0][...] = total
    return np.moveaxis(res, 0, axis)
