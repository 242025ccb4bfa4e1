import tracemalloc

import numpy as np

from greyrank import AttributeSpec
from greyrank._kernels import _SLAB, distance_grid, pairwise_deviation_sums, using_numba
from greyrank.normalize import DIRECTIONS, KINDS, normalize_matrix

from oracles import brute_deviation_coefficients, loop_distance_grid, random_generalized_matrix


def test_pairwise_deviation_matches_brute_force():
    rng = np.random.default_rng(72)
    x = random_generalized_matrix(rng, 6, 4)
    np.testing.assert_allclose(
        pairwise_deviation_sums(x), brute_deviation_coefficients(x), rtol=1e-12
    )


def normalized_kinds(rng, n):
    """(n, 8, 4) normalized matrix: each of the four kinds in both directions."""
    specs, cols = [], []
    for kind in KINDS:
        for direction in DIRECTIONS:
            specs.append(AttributeSpec(f"A{len(specs)}", kind, direction))
            if kind == "real":
                cols.append(np.repeat(rng.uniform(1.0, 100.0, (n, 1)), 2, axis=1))
            elif kind == "interval":
                lo = rng.uniform(1.0, 100.0, n)
                cols.append(np.column_stack((lo, lo + rng.uniform(0.0, 20.0, n))))
            elif kind == "linguistic":
                cols.append(np.repeat(rng.integers(-4, 5, (n, 1)), 2, axis=1))
            else:
                cols.append(np.sort(rng.integers(-4, 5, (n, 2)), axis=1))
    return normalize_matrix(np.stack(cols, axis=1).astype(float), specs)


def test_pairwise_deviation_paths_agree():
    rng = np.random.default_rng(71)
    # one block holds every pair of every column: no crisp split
    one_block = [random_generalized_matrix(rng, n, m, 10.0) for n, m in [(1, 1), (2, 3), (7, 5)]]
    one_block += [normalized_kinds(rng, 1), normalized_kinds(rng, 30)]
    assert all(x.shape[1] * x.shape[0] ** 2 <= _SLAB for x in one_block)
    # 130 plans in eight non-crisp columns: several row blocks, the last partial
    blocks = random_generalized_matrix(rng, 130, 9, scale=10.0)
    blocks[:, 0] = blocks[:, 0, :1]
    rows = _SLAB // (8 * 130)
    assert 130 > 2 * rows and 130 % rows
    # the prefix-sum form 4 * sum (2k - n + 1) v_(k) is off by 4.6e-11 here
    near_constant = np.repeat(1e6 + 1e-3 * np.arange(600.0), 4).reshape(600, 1, 4)
    identical = np.tile([0.1, 0.2, 0.3, 0.4], (200, 2, 1))
    identical[:, 1] = 0.3
    split = [
        normalized_kinds(rng, 100),
        np.repeat(rng.random((160, 3, 1)), 4, axis=2),  # all crisp
        random_generalized_matrix(rng, 120, 5),  # no crisp column
        near_constant,
        identical,
        blocks,
    ]
    assert all(x.shape[1] * x.shape[0] ** 2 > _SLAB for x in split)
    for x in one_block + split:
        np.testing.assert_allclose(
            pairwise_deviation_sums(x), brute_deviation_coefficients(x), rtol=1e-12
        )


def test_pairwise_deviation_memory_is_bounded():
    # the pairwise grid is built in blocks of about _SLAB distances, never n x n
    rng = np.random.default_rng(75)
    x = random_generalized_matrix(rng, 4000, 3)
    x[:, 0] = x[:, 0, :1]
    tracemalloc.start()
    try:
        pairwise_deviation_sums(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_distance_grid_paths_agree():
    rng = np.random.default_rng(74)
    y = random_generalized_matrix(rng, 8, 5)
    ref = y.max(axis=0)
    np.testing.assert_allclose(distance_grid(y, ref), loop_distance_grid(y, ref), rtol=1e-12)
    # the deviation kernel's block shape: (m, b, 1, 4) rows against (m, 1, k, 4)
    u = y.transpose(1, 0, 2)
    block = distance_grid(u[:, 2:5, None, :], u[:, None, :, :])
    for b, i in enumerate(range(2, 5)):
        oracle = loop_distance_grid(y, y[i])  # (k, m)
        np.testing.assert_allclose(block[:, b, :], oracle.T, rtol=1e-12)
        np.testing.assert_array_equal(block[:, b, :], distance_grid(y, y[i]).T)


def test_using_numba_reports_current_process():
    assert using_numba() is False
