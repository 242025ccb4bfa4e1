import os
import subprocess
import sys

import numpy as np

from greyrank._kernels import (
    distance_grid,
    distance_grid_numpy,
    pairwise_deviation_sums,
    pairwise_deviation_sums_numpy,
    using_numba,
    warmup,
)

from oracles import brute_deviation_coefficients, loop_distance_grid, random_generalized_matrix


def test_warmup_runs():
    warmup()


def test_pairwise_deviation_paths_agree():
    # each path against the loop oracle, so the test means the same with or
    # without numba (without it the dispatcher is the numpy path)
    rng = np.random.default_rng(71)
    for n, m in [(1, 1), (2, 3), (7, 5), (300, 2)]:
        x = random_generalized_matrix(rng, n, m, scale=10.0)
        expected = brute_deviation_coefficients(x)
        for path in (pairwise_deviation_sums, pairwise_deviation_sums_numpy):
            np.testing.assert_allclose(path(x), expected, rtol=1e-10, atol=1e-10)


def test_pairwise_deviation_matches_brute_force():
    rng = np.random.default_rng(72)
    x = random_generalized_matrix(rng, 6, 4)
    np.testing.assert_allclose(
        pairwise_deviation_sums(x), brute_deviation_coefficients(x), rtol=1e-12
    )


def test_numpy_blocking_is_seamless():
    rng = np.random.default_rng(73)
    x = random_generalized_matrix(rng, 50, 3)
    small_blocks = pairwise_deviation_sums_numpy(x, block=7)
    one_block = pairwise_deviation_sums_numpy(x, block=1000)
    np.testing.assert_allclose(small_blocks, one_block, rtol=1e-12)


def test_distance_grid_paths_agree():
    rng = np.random.default_rng(74)
    y = random_generalized_matrix(rng, 8, 5)
    ref = y.max(axis=0)
    expected = loop_distance_grid(y, ref)
    for path in (distance_grid, distance_grid_numpy):
        np.testing.assert_allclose(path(y, ref), expected, rtol=1e-12)


def test_env_flag_disables_numba():
    code = (
        "import greyrank._kernels as k; import numpy as np; "
        "assert not k.using_numba(); "
        "x = np.sort(np.random.default_rng(0).random((4, 3, 4)), axis=2); "
        "a = k.pairwise_deviation_sums(x); b = k.pairwise_deviation_sums_numpy(x); "
        "assert np.allclose(a, b); print('numpy-path-ok')"
    )
    env = dict(os.environ, GREYRANK_NO_NUMBA="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "numpy-path-ok" in proc.stdout


def test_flag_value_zero_keeps_numba_active():
    # "0" must leave the jit path on: numba is then active exactly when it is
    # importable, so this holds with or without numba installed
    code = (
        "import importlib.util; import greyrank._kernels as k; "
        "assert k._DISABLED is False, k._DISABLED; "
        "have = importlib.util.find_spec('numba') is not None; "
        "assert k.using_numba() == have, (k.using_numba(), have); "
        "print('flag-off-ok')"
    )
    env = dict(os.environ, GREYRANK_NO_NUMBA="0")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "flag-off-ok" in proc.stdout


def test_using_numba_reports_current_process():
    # in this test process both the flag and whether numba imports decide;
    # either way both paths must agree
    assert isinstance(using_numba(), bool)
