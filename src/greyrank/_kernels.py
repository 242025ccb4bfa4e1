"""Numeric kernels: Euclidean distances between normalized 4-tuples.

``distance_grid`` is the one place a distance is computed; the score stage
builds one grid per ideal. ``pairwise_deviation_sums`` totals the distances
over all plan pairs per attribute. On a problem too large for one block of
the pairwise grid, each column pays only for what it holds, detected from
its values:

* crisp columns (all four components equal) sum from their sorted gaps in
  O(n log n);
* columns with at most n/8 distinct tuples, as every normalized linguistic
  (11 terms) and uncertain (66 term pairs) column on many plans, sum over
  the grid of their distinct tuples weighted by their counts;
* paired columns, (a, a, b, b) in every row as every normalized interval
  column, sum over a grid of two components instead of four;
* all other columns sum over the full 4-component grid.

Every grid covers the upper triangle of pairs in blocks of a fixed element
budget. The full grids are quadratic in the number of plans and dominate
runtime on large problems. ``perfbench/run.py --trace 1`` times each kernel
per solve (``kernels.*_ms``).
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

    When one block holds every pair of every column (m·n² <= ``_SLAB``), all
    columns go through ``_grid_sums``: on so small a problem a split costs
    more numpy calls than it saves. Otherwise each column takes the first of
    these rules that its values allow:

    * crisp (all four components equal in every row): the distance between
      rows a and b is 2|a - b|. With the values sorted, the gap
      g_k = v_(k) - v_(k-1) lies between k(n - k) unordered pairs, so the
      column sums to 4 * sum_k k(n - k) g_k in O(n log n). Every gap is
      nonnegative, so nothing cancels: the prefix-sum form of the same total,
      4 * sum_k (2k - n + 1) v_(k), loses digits on near-constant columns.
    * at most n/8 distinct tuples u with counts c: the column sums to
      c @ D @ c, where D is the grid of u against itself.
    * paired (components 0 = 1 and 2 = 3 in every row): the distance is
      sqrt(2) times the 2-D distance of components 0 and 2.
    * any other: the 4-D grid over all plan pairs.
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
    rest = np.flatnonzero(~crisp)
    if rest.size:
        few, u, c = _distinct_tuples(x[:, rest], n // 8)
        if few.any():
            out[rest[few]] = _grid_sums(u, c)
        rest = rest[~few]
        y = x[:, rest]
        paired = ((y[:, :, 0] == y[:, :, 1]) & (y[:, :, 2] == y[:, :, 3])).all(axis=0)
        if paired.any():
            out[rest[paired]] = np.sqrt(2.0) * _grid_sums(y[:, paired, ::2])
        if not paired.all():
            out[rest[~paired]] = _grid_sums(y[:, ~paired])
    return out


def _distinct_tuples(x: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of ``x`` (n, r, 4) with at most ``limit`` distinct tuples.

    Returns the (r,) mask of those f columns, their distinct tuples padded to
    the largest such count k, shape (k, f, 4), and the count of each, (k, f).
    A padding slot repeats its column's first tuple with count zero. A column
    with more than ``limit`` distinct values of component 0 has more distinct
    tuples too, so one sort of component 0 rules it out. One lexsort along the
    rows of every column left finds their distinct tuples.
    """
    n, r = x.shape[:2]
    v = np.sort(x[:, :, 0], axis=0)
    candidates = np.flatnonzero((v[1:] != v[:-1]).sum(axis=0) < limit)
    x = x[:, candidates]
    order = np.lexsort(x.T[::-1], axis=-1)  # a row order per column, component 0 first
    t = np.take_along_axis(x.transpose(1, 0, 2), order[:, :, None], axis=1)
    # A group of equal tuples starts at a column's first sorted row or where a
    # tuple differs from the one before it.
    new = np.ones(order.shape, dtype=bool)
    new[:, 1:] = (t[:, 1:] != t[:, :-1]).any(axis=2)
    distinct = new.sum(axis=1)
    kept = distinct <= limit
    t, new = t[kept], new[kept]
    f, k = len(t), int(distinct[kept].max(initial=0))
    slot = np.cumsum(new, axis=1) - 1 + k * np.arange(f)[:, None]  # flat (f, k) index
    u = np.repeat(t[:, :1], k, axis=1).reshape(f * k, 4)
    u[slot[new]] = t[new]
    c = np.bincount(slot.ravel(), minlength=f * k).astype(float)
    few = np.zeros(r, dtype=bool)
    few[candidates[kept]] = True
    return few, u.reshape(f, k, 4).transpose(1, 0, 2), c.reshape(f, k).T


def _grid_sums(x: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """Per-column distance sums over all ordered pairs of rows of ``x``, (n, m, k).

    One ``distance_grid`` call per block of rows [s, e) against the rows from
    s on, about ``_SLAB`` distances each, covers the upper triangle of plan
    pairs for every column at once. The e - s square columns of a block hold
    both orders of each pair and count once; the rest count twice. With
    ``counts`` (n, m), the distance between rows a and b counts
    ``counts[a] * counts[b]`` times.
    """
    n, m, _ = x.shape
    # (m, n, k) over component-major storage: the components of a block's
    # differences are contiguous slabs.
    u = np.ascontiguousarray(x.T).transpose(1, 2, 0)
    w = None if counts is None else np.ascontiguousarray(counts.T)
    rows = max(1, _SLAB // (m * n))
    total = np.zeros(m)
    for s in range(0, n, rows):
        b = min(rows, n - s)
        d = distance_grid(u[:, s:s + b, None, :], u[:, None, s:, :])
        if w is not None:
            d *= w[:, s:s + b, None]
            d *= w[:, None, s:]
        total += d[:, :, :b].sum(axis=(1, 2)) + 2.0 * d[:, :, b:].sum(axis=(1, 2))
    return total


def distance_grid(y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Euclidean distance between the last-axis tuples of ``y`` and ``ref``.

    The tuples are the normalized 4-tuples, or the two distinct components of
    paired tuples. ``y`` and ``ref`` broadcast against each other over their
    leading axes: an (n, m, 4) matrix against an (m, 4) reference vector
    gives an (n, m) grid.
    """
    diff = y - ref
    # Squaring in place saves the largest temporary. Adding the components
    # slice by slice is faster than a reduction over a short axis.
    diff *= diff
    d = diff[..., 0] + diff[..., 1]
    for k in range(2, diff.shape[-1]):
        d += diff[..., k]
    return np.sqrt(d, out=d)
