import numpy as np

from greyrank._kernels import distance_grid, pairwise_deviation_sums, using_numba

from oracles import brute_deviation_coefficients, loop_distance_grid, random_generalized_matrix


def test_pairwise_deviation_matches_brute_force():
    rng = np.random.default_rng(72)
    x = random_generalized_matrix(rng, 6, 4)
    np.testing.assert_allclose(
        pairwise_deviation_sums(x), brute_deviation_coefficients(x), rtol=1e-12
    )


def test_pairwise_deviation_paths_agree():
    rng = np.random.default_rng(71)
    # n=300 spans two of the kernel's 256-plan blocks
    for n, m in [(1, 1), (2, 3), (7, 5), (300, 2)]:
        x = random_generalized_matrix(rng, n, m, scale=10.0)
        np.testing.assert_allclose(
            pairwise_deviation_sums(x), brute_deviation_coefficients(x), rtol=1e-10, atol=1e-10
        )


def test_distance_grid_paths_agree():
    rng = np.random.default_rng(74)
    y = random_generalized_matrix(rng, 8, 5)
    ref = y.max(axis=0)
    np.testing.assert_allclose(distance_grid(y, ref), loop_distance_grid(y, ref), rtol=1e-12)


def test_using_numba_reports_current_process():
    assert using_numba() is False
