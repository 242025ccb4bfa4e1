import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from greyrank import AttributeSpec
from greyrank._kernels import (
    _SLAB,
    _distinct_tuples,
    _grid_sums,
    distance_grid,
    pairwise_deviation_sums,
    using_numba,
)
from greyrank.normalize import DIRECTIONS, KINDS, normalize_matrix

from oracles import (
    broadcast_grid_sums,
    brute_deviation_coefficients,
    loop_distance_grid,
    random_generalized_matrix,
)


def test_pairwise_deviation_matches_brute_force():
    rng = np.random.default_rng(72)
    x = random_generalized_matrix(rng, 6, 4)
    np.testing.assert_allclose(
        pairwise_deviation_sums(x), brute_deviation_coefficients(x), rtol=1e-12
    )


def normalized_kinds(rng, n, terms=4):
    """(n, 8, 4) normalized matrix: each of the four kinds in both directions.

    Term indices are drawn from -terms..terms.
    """
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
                cols.append(np.repeat(rng.integers(-terms, terms + 1, (n, 1)), 2, axis=1))
            else:
                cols.append(np.sort(rng.integers(-terms, terms + 1, (n, 2)), axis=1))
    return normalize_matrix(np.stack(cols, axis=1).astype(float), specs)


def pooled_column(rng, n, pool, kind="general"):
    """(n, 4) column whose rows take each of ``pool`` distinct tuples at least once.

    A crisp tuple has four equal components and a paired one the form
    (a, a, b, b); a general tuple is any ascending 4-tuple.
    """
    size = {"crisp": 1, "paired": 2, "general": 4}[kind]
    values = rng.permutation(4 * n)[:pool * size].reshape(pool, size) / n
    tuples = np.sort(values, axis=1)[:, np.arange(4) * size // 4]
    return tuples[np.concatenate((np.arange(pool), rng.integers(0, pool, n - pool)))]


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
    # n/8 distinct tuples take the counted grid, n/8 + 1 the full one; then a
    # paired column, one paired in all rows but one, and a general column
    n = 136
    paired_but_one = pooled_column(rng, n, n, "paired")
    paired_but_one[7, 3] += 1e-3
    # n/8 distinct values of component 0, as the lexsort's prefilter allows,
    # but n/8 + 1 tuples: two of the pool's tuples share their component 0
    shared_lead = pooled_column(rng, n, n // 8 + 1)
    first_two = (shared_lead[:, None] == shared_lead[:2]).all(axis=2).any(axis=1)
    shared_lead[first_two, 0] = shared_lead[:2, 0].min()  # still ascending
    assert len(np.unique(shared_lead[:, 0])) == n // 8
    assert len(np.unique(shared_lead, axis=0)) == n // 8 + 1
    rules = np.stack([
        pooled_column(rng, n, n // 8),
        pooled_column(rng, n, n // 8 + 1),
        shared_lead,
        pooled_column(rng, n, n, "paired"),
        paired_but_one,
        pooled_column(rng, n, n),
    ], axis=1)
    assert _distinct_tuples(rules, n // 8)[0].tolist() == [True] + [False] * 5
    # both term kinds, at most 5 and 15 distinct tuples, are counted
    terms = normalized_kinds(rng, n, terms=2)[:, 4:]
    assert _distinct_tuples(terms, n // 8)[0].all()
    split = [
        normalized_kinds(rng, 100),
        np.repeat(rng.random((160, 3, 1)), 4, axis=2),  # all crisp
        random_generalized_matrix(rng, 120, 5),  # no crisp column
        near_constant,
        identical,
        blocks,
        rules,
        terms,
    ]
    assert all(x.shape[1] * x.shape[0] ** 2 > _SLAB for x in split)
    for x in one_block + split:
        np.testing.assert_allclose(
            pairwise_deviation_sums(x), brute_deviation_coefficients(x), rtol=1e-12
        )


def test_grid_sums_match_broadcast_blocks():
    # the buffered block loop gives the bits of a fresh broadcast grid per block
    rng = np.random.default_rng(76)
    # one plan; one block; several blocks, the last partial; one row per block
    shapes = [(1, 3), (30, 3), (130, 8), (100, 700)]
    rows = [max(1, _SLAB // (m * n)) for n, m in shapes]
    assert rows[1] >= 30
    assert 130 > 2 * rows[2] and 130 % rows[2]
    assert 100 * 700 > _SLAB and rows[3] == 1
    for n, m in shapes:
        for k in (2, 4):
            x = np.sort(rng.random((n, m, k)), axis=2)
            counts = rng.integers(0, 5, (n, m)).astype(float)
            for c in (None, counts):
                np.testing.assert_array_equal(_grid_sums(x, c), broadcast_grid_sums(x, c))


def test_pairwise_deviation_memory_is_bounded():
    # the pairwise grid is built in blocks of about _SLAB distances, never n x n
    rng = np.random.default_rng(75)
    x = random_generalized_matrix(rng, 4000, 4)
    x[:, 0] = x[:, 0, :1]
    x[:, 3] = pooled_column(rng, 4000, 500)  # its counted grid is 500 x 500
    tracemalloc.start()
    try:
        pairwise_deviation_sums(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@st.composite
def split_matrices(draw):
    """Matrices on the split path whose columns draw from small tuple pools."""
    m = draw(st.integers(1, 4))
    n = int((_SLAB / m) ** 0.5) + 1 + draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(m):
        kind = draw(st.sampled_from(["crisp", "paired", "general"]))
        col = pooled_column(rng, n, draw(st.integers(1, n // 4)), kind)
        if draw(st.booleans()):  # raise the top 1 to 3 components of one row
            col[draw(st.integers(0, n - 1)), draw(st.integers(1, 3)):] += 1.0
        cols.append(col)
    x = np.stack(cols, axis=1)
    assert m * n * n > _SLAB
    return x


@settings(max_examples=12, deadline=None)
@given(split_matrices())
def test_pairwise_deviation_rules_agree_with_brute_force(x):
    # crisp, counted, paired and 4-D grid columns, and columns one row away from each
    np.testing.assert_allclose(
        pairwise_deviation_sums(x), brute_deviation_coefficients(x), rtol=1e-12
    )


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
    # over component-major storage and into a component-major buffer, as the
    # block loop passes them: the same bits in the same layout
    u = np.ascontiguousarray(y.T).transpose(1, 2, 0)
    fresh = distance_grid(u[:, 2:5, None, :], u[:, None, :, :])
    buf = np.empty(4 * 5 * 3 * 8).reshape(4, 5, 3, 8).transpose(1, 2, 3, 0)
    filled = distance_grid(u[:, 2:5, None, :], u[:, None, :, :], buf)
    np.testing.assert_array_equal(fresh, block)
    np.testing.assert_array_equal(filled, fresh)
    assert filled.strides == fresh.strides


def test_using_numba_reports_current_process():
    assert using_numba() is False
