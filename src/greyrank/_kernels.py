"""Numeric kernels: 4-D Euclidean distances between normalized 4-tuples.

The pairwise-deviation kernel is quadratic in the number of plans and
dominates runtime on large problems; the distance grid is the inner loop of
every scoring method. Both are plain numpy. ``perfbench/run.py --trace 1``
times each one per solve (``kernels.*_ms``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["distance_grid", "pairwise_deviation_sums", "using_numba"]

_BLOCK = 256  # plans per slab: peak memory O(_BLOCK * n) per attribute


def using_numba() -> bool:
    """Always False: the kernels have one numpy path and no jit variant.

    Kept because ``perfbench/child.py`` records the kernel path of every
    benchmark run under ``"numba"`` with this call.
    """
    return False


def pairwise_deviation_sums(x: np.ndarray) -> np.ndarray:
    """Sum of 4-D distances over all ordered plan pairs, per attribute.

    ``x`` is a float array of shape (n, m, 4); the result has shape (m,).
    """
    n, m, _ = x.shape
    out = np.zeros(m)
    for j in range(m):
        col = x[:, j, :]
        for start in range(0, n, _BLOCK):
            diff = col[start:start + _BLOCK, None, :] - col[None, :, :]
            out[j] += np.sqrt((diff * diff).sum(axis=-1)).sum()
    return out


def distance_grid(y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """4-D distance from every (plan, attribute) cell to a reference vector.

    ``y`` is a float array of shape (n, m, 4), ``ref`` of shape (m, 4); the
    result has shape (n, m).
    """
    diff = y - ref[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))
