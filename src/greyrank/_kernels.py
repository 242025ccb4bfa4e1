"""Numeric kernels: 4-D Euclidean distances between normalized 4-tuples.

``distance_grid`` is the one place a 4-D distance is computed; the score
stage builds one grid per ideal. ``pairwise_deviation_sums`` totals the
distances over all plan pairs per attribute: crisp columns from their sorted
gaps in O(n log n), all other columns through one batched upper-triangle
distance grid built in blocks of a fixed element budget. That grid is
quadratic in the number of plans and dominates runtime on large problems.
``perfbench/run.py --trace 1`` times each kernel per solve (``kernels.*_ms``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["distance_grid", "pairwise_deviation_sums", "using_numba"]

# Distances per block of the pairwise grid. A block's temporaries stay in
# cache (2^16 was fastest on 2000 plans), and memory stays O(_SLAB).
_SLAB = 1 << 16


def using_numba() -> bool:
    """Always False: the kernels have one numpy path and no jit variant.

    Kept because ``perfbench/child.py`` records the kernel path of every
    benchmark run under ``"numba"`` with this call.
    """
    return False


def pairwise_deviation_sums(x: np.ndarray) -> np.ndarray:
    """Sum of 4-D distances over all ordered plan pairs, per attribute.

    ``x`` is a float array of shape (n, m, 4); the result has shape (m,).

    A crisp column, whose four components are equal in every row, has
    distance 2|a - b| between rows a and b. With its values sorted, the gap
    g_k = v_(k) - v_(k-1) lies between k(n - k) unordered pairs, so the
    column sums to 4 * sum_k k(n - k) g_k in O(n log n). Every gap is
    nonnegative, so nothing cancels: the prefix-sum form of the same total,
    4 * sum_k (2k - n + 1) v_(k), loses digits on near-constant columns.
    All other columns go through ``_grid_sums``. When one block holds every
    pair of every column, all columns do: on so small a problem the split
    costs more numpy calls than it saves.
    """
    n, m, _ = x.shape
    if m * n * n <= _SLAB:
        return _grid_sums(x)
    out = np.empty(m)
    crisp = (x == x[:, :, :1]).all(axis=(0, 2))
    if crisp.any():
        v = np.sort(x[:, crisp, 0], axis=0)
        k = np.arange(1.0, n)
        out[crisp] = 4.0 * ((k * (n - k)) @ np.diff(v, axis=0))
    if not crisp.all():
        out[~crisp] = _grid_sums(x[:, ~crisp])
    return out


def _grid_sums(x: np.ndarray) -> np.ndarray:
    """Per-column distance sums over all ordered pairs of rows of ``x``, (n, m, 4).

    One ``distance_grid`` call per block of rows [s, e) against the rows from
    s on, about ``_SLAB`` distances each, covers the upper triangle of plan
    pairs for every column at once. The e - s square columns of a block hold
    both orders of each pair and count once; the rest count twice.
    """
    n, m, _ = x.shape
    # (m, n, 4) over component-major storage: the four components of a
    # block's differences are four contiguous slabs.
    u = np.ascontiguousarray(x.T).transpose(1, 2, 0)
    rows = max(1, _SLAB // (m * n))
    total = np.zeros(m)
    for s in range(0, n, rows):
        b = min(rows, n - s)
        d = distance_grid(u[:, s:s + b, None, :], u[:, None, s:, :])
        total += d[:, :, :b].sum(axis=(1, 2)) + 2.0 * d[:, :, b:].sum(axis=(1, 2))
    return total


def distance_grid(y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """4-D distance between the last-axis 4-tuples of ``y`` and ``ref``.

    ``y`` and ``ref`` broadcast against each other over their leading axes:
    an (n, m, 4) matrix against an (m, 4) reference vector gives an (n, m)
    grid.
    """
    diff = y - ref
    # Squaring in place saves the largest temporary. Adding the components
    # slice by slice is faster than a reduction over an axis of length 4.
    diff *= diff
    d = diff[..., 0] + diff[..., 1]
    d += diff[..., 2]
    d += diff[..., 3]
    return np.sqrt(d, out=d)
