from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greyrank import DegenerateProblemError, MethodParams, ValidationError
from greyrank._kernels import distance_grid
from greyrank.evaluate import (
    apply_weights,
    approach_with_preference,
    blend_preference,
    comprehensive_incidence,
    ideal_vectors,
    incidence_coefficients,
    incidence_degrees,
    max_entropy_weights,
    membership_degrees,
    score_all_methods,
    topsis_scores,
)

from oracles import (
    grid_membership,
    line_search_entropy_pair,
    loop_incidence_grid,
    loop_topsis,
    random_generalized_matrix,
)


def ideal_grids(y):
    """The distance grids to the positive and the negative ideal of ``y``."""
    ideals = ideal_vectors(y)
    return distance_grid(y, ideals.positive), distance_grid(y, ideals.negative)


def test_method_params_validation():
    MethodParams()  # defaults are legal
    MethodParams(rho=0.3, theta_plus=1.0, theta_minus=0.0)
    with pytest.raises(ValidationError):
        MethodParams(rho=0.0)
    with pytest.raises(ValidationError):
        MethodParams(rho=1.0)
    with pytest.raises(ValidationError):
        MethodParams(theta_plus=0.0, theta_minus=1.0)
    with pytest.raises(ValidationError):
        MethodParams(theta_plus=0.7, theta_minus=0.7)


def test_blend_preference_hand_case():
    x = np.zeros((1, 2, 4))
    x[0, 0] = [0.1, 0.2, 0.3, 0.4]
    x[0, 1] = [0.0, 0.0, 1.0, 1.0]
    q = np.array([[0.2, 0.4, 0.4, 0.6]])
    z = blend_preference(x, q)
    np.testing.assert_allclose(z[0, 0], [0.15, 0.3, 0.35, 0.5])
    np.testing.assert_allclose(z[0, 1], [0.1, 0.2, 0.7, 0.8])
    with pytest.raises(ValidationError):
        blend_preference(x, np.array([[0.4, 0.2, 0.4, 0.6]]))
    with pytest.raises(ValidationError):
        blend_preference(x, np.array([[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4]]))


blend_values = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.5e-323, 1e-310, 2.0**-1022, 2.0**-1021, 3e-308,
                     0.5, 1e300, 8.9e307, 1.79e308]),
    st.integers(0, 2**60).map(lambda k: k * 5e-324),  # subnormals and small normals
    st.floats(0, 1.7976931348623157e308),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(blend_values, min_size=4, max_size=4),
       st.lists(blend_values, min_size=4, max_size=4))
@example([1.79e308] * 4, [1.2e307] * 4)
@example([5e-324] * 4, [5e-324] * 4)  # 0.0, not the exact 5e-324
def test_blend_preference_against_exact_arithmetic(q, x):
    # The correctly rounded mean, without overflow near the largest float.
    # Where q or x is below 2**-1021, halving it may drop its last bit, and
    # the blend may then be one unit in the last place off.
    q = sorted(q)
    z = blend_preference(np.array(x).reshape(1, 1, 4), np.array([q]))[0, 0].tolist()
    for a, b, got in zip(q, x, z):
        want = float((Fraction(a) + Fraction(b)) / 2)
        if got != want:
            assert any(0 < v < 2.0**-1021 for v in (a, b)), (a, b)
            assert abs(got - want) <= np.spacing(want), (a, b)


def test_apply_weights_scales_pairs():
    z = np.zeros((1, 1, 4))
    z[0, 0] = [1.0, 2.0, 3.0, 4.0]
    y = apply_weights(z, np.array([[0.5, 2.0]]))
    np.testing.assert_allclose(y[0, 0], [0.5, 1.0, 6.0, 8.0])
    with pytest.raises(ValidationError):
        apply_weights(-z, np.array([[0.5, 2.0]]))
    with pytest.raises(ValidationError, match="interval weights"):
        apply_weights(z, np.array([[0.5, 2.0], [0.5, 2.0]]))


def test_ideal_vectors_componentwise():
    y = np.zeros((2, 1, 4))
    y[0, 0] = [0.0, 0.3, 0.5, 0.9]
    y[1, 0] = [0.1, 0.2, 0.6, 0.8]
    ideals = ideal_vectors(y)
    np.testing.assert_allclose(ideals.positive[0], [0.1, 0.3, 0.6, 0.9])
    np.testing.assert_allclose(ideals.negative[0], [0.0, 0.2, 0.5, 0.8])


def test_topsis_hand_case():
    # single attribute; plan 3 coincides with the positive ideal
    y = np.zeros((3, 1, 4))
    y[0, 0] = [0, 1, 1, 2]
    y[1, 0] = [0, 0, 2, 2]
    y[2, 0] = [0, 2, 2, 2]
    scores = topsis_scores(*ideal_grids(y)).scores
    assert scores[2] == pytest.approx(1.0)
    assert scores[0] == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)))
    assert scores[1] == pytest.approx(1.0 / 3.0)


def test_topsis_identical_plans_full_tie():
    y = np.tile(np.array([0.1, 0.2, 0.3, 0.4]), (4, 2, 1))
    scores = topsis_scores(*ideal_grids(y)).scores
    np.testing.assert_allclose(scores, np.full(4, 0.5))


def test_topsis_prefers_row_nearer_positive_ideal():
    # rows 1 and 2 sit at the same distance from y-, but row 1 is nearer y+
    y = np.zeros((3, 1, 4))
    y[0, 0] = [0, 0, 0, 0]
    y[1, 0] = [1, 1, 1, 1]
    y[2, 0] = [0, 0, 0, 2]
    ideals = ideal_vectors(y)
    d_minus = [np.linalg.norm(row[0] - ideals.negative[0]) for row in y]
    assert d_minus[1] == pytest.approx(d_minus[2])
    scores = topsis_scores(*ideal_grids(y)).scores
    assert scores[1] > scores[2]


def test_topsis_matches_loop_oracle():
    rng = np.random.default_rng(23)
    for n, m in ((1, 1), (2, 3), (5, 4), (9, 7)):
        y = random_generalized_matrix(rng, n, m, scale=float(rng.uniform(0.1, 10.0)))
        scores = topsis_scores(*ideal_grids(y)).scores
        np.testing.assert_allclose(scores, loop_topsis(y), rtol=1e-12)


def test_incidence_coefficients_match_loop_oracle():
    rng = np.random.default_rng(21)
    y = random_generalized_matrix(rng, 5, 3)
    ideals = ideal_vectors(y)
    for rho in (0.2, 0.5, 0.9):
        ours = incidence_coefficients(distance_grid(y, ideals.positive), rho)
        oracle = loop_incidence_grid(y, ideals.positive, rho)
        np.testing.assert_allclose(ours, oracle, rtol=1e-12)


def test_incidence_of_all_zero_distances_matches_loop_oracle():
    y = np.ones((3, 2, 4))
    ours = incidence_coefficients(distance_grid(y, y[0]), 0.5)
    np.testing.assert_array_equal(ours, loop_incidence_grid(y, y[0], 0.5))
    np.testing.assert_array_equal(ours, np.ones((3, 2)))


def test_incidence_coefficient_range_and_peak():
    rng = np.random.default_rng(22)
    y = random_generalized_matrix(rng, 6, 4)
    r = incidence_coefficients(ideal_grids(y)[0], 0.5)
    assert (r > 0).all() and (r <= 1).all()
    # the cell at the global minimum distance scores exactly 1
    assert r.max() == pytest.approx(1.0, abs=1e-15)


def test_incidence_identical_matrix_gives_ones():
    y = np.tile(np.array([0.2, 0.3, 0.4, 0.5]), (3, 2, 1))
    r = incidence_coefficients(ideal_grids(y)[0], 0.5)
    np.testing.assert_allclose(r, np.ones((3, 2)))


def test_incidence_rho_validation():
    with pytest.raises(ValidationError):
        incidence_coefficients(np.zeros((1, 1)), 0.0)


def test_incidence_degrees_row_mean():
    r = np.array([[1.0, 0.5], [0.25, 0.75]])
    np.testing.assert_allclose(incidence_degrees(r), [0.75, 0.5])


def test_incidence_degree_is_one_at_the_ideal_row():
    # plan 0 dominates componentwise, so it coincides with y+ and gets G = 1
    y = np.zeros((3, 2, 4))
    y[0] = [[0.4, 0.5, 0.6, 0.7], [0.3, 0.4, 0.5, 0.6]]
    y[1] = [[0.1, 0.2, 0.3, 0.4], [0.2, 0.3, 0.4, 0.5]]
    y[2] = [[0.2, 0.3, 0.4, 0.5], [0.1, 0.2, 0.3, 0.4]]
    ideals = ideal_vectors(y)
    np.testing.assert_allclose(ideals.positive, y[0])
    g = incidence_degrees(incidence_coefficients(distance_grid(y, ideals.positive), 0.5))
    assert g[0] == pytest.approx(1.0)
    assert ((g > 0) & (g <= 1)).all()


def test_approach_degree_hand_cases():
    gplus = np.array([0.8, 0.4])
    gminus = np.array([0.4, 0.8])
    even = approach_with_preference(gplus, gminus, MethodParams())
    np.testing.assert_allclose(even.scores, [2 / 3, 1 / 3])
    # full positive bias returns G+ itself
    biased = approach_with_preference(
        gplus, gminus, MethodParams(theta_plus=1.0, theta_minus=0.0)
    )
    np.testing.assert_allclose(biased.scores, gplus)


def test_approach_degree_of_tiny_degrees_is_scale_free():
    # G * theta underflows to 0 on both sides of the ratio; the ratio must not
    params = MethodParams(theta_plus=0.3, theta_minus=0.7)
    np.testing.assert_array_equal(approach_with_preference([5e-324], [5e-324]).scores, [0.5])
    tiny = 2.0**-1070
    np.testing.assert_allclose(
        approach_with_preference([3 * tiny, tiny], [tiny, 3 * tiny], params).scores,
        approach_with_preference([3.0, 1.0], [1.0, 3.0], params).scores,
    )


def test_approach_degree_of_zero_incidence_is_zero():
    # G- * theta_minus underflows to 0, so a plan with G+ = 0 would score 0/0
    params = MethodParams(theta_plus=1.0, theta_minus=5e-324)
    scores = approach_with_preference([0.0, 0.9], [0.5, 0.3], params).scores
    np.testing.assert_array_equal(scores, [0.0, 1.0])


def test_approach_degree_zero_pair_names_its_row():
    with pytest.raises(DegenerateProblemError, match="row 0"):
        approach_with_preference([0.0, 0.5], [0.0, 0.5])


def test_membership_hand_case():
    ms = membership_degrees(np.array([0.8]), np.array([0.4]))
    assert ms.scores[0] == pytest.approx(0.64 / (0.64 + 0.16))


def test_membership_zero_pair_names_its_row():
    with pytest.raises(DegenerateProblemError, match="row 1"):
        membership_degrees([0.5, 0.0], [0.5, 0.0])


def test_membership_of_tiny_degrees_is_scale_free():
    # squaring 1e-200 underflows; the ratio must not
    np.testing.assert_allclose(
        membership_degrees([3e-200, 1e-200], [1e-200, 3e-200]).scores,
        membership_degrees([3.0, 1.0], [1.0, 3.0]).scores,
    )


def test_membership_matches_grid_minimizer():
    rng = np.random.default_rng(31)
    gplus = rng.random(40) * 0.98 + 0.02
    gminus = rng.random(40) * 0.98 + 0.02
    ours = membership_degrees(gplus, gminus).scores
    for i in range(len(gplus)):
        assert ours[i] == pytest.approx(grid_membership(gplus[i], gminus[i]), abs=1e-6)


def test_max_entropy_weights_match_line_search():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = rng.integers(2, 8)
        gplus = rng.random(n) * 0.98 + 0.02
        gminus = rng.random(n) * 0.98 + 0.02
        b1, b2 = max_entropy_weights(gplus, gminus)
        ref1, ref2 = line_search_entropy_pair(float(gplus.sum()), float((1 - gminus).sum()))
        assert b1 == pytest.approx(ref1, abs=1e-6)
        assert b2 == pytest.approx(ref2, abs=1e-6)
        assert b1 + b2 == pytest.approx(1.0, abs=1e-12)


def test_max_entropy_weights_overflow_safe():
    # sum G+ = 2000, sum (1 - G-) = 0: naive exponentials overflow
    gplus = np.full(2000, 1.0)
    gminus = np.full(2000, 1.0)
    with np.errstate(over="raise"):
        b1, b2 = max_entropy_weights(gplus, gminus)
    assert b1 == pytest.approx(1.0, abs=1e-12)
    assert b1 + b2 == 1.0


def test_comprehensive_incidence_hand_case():
    ms = comprehensive_incidence(np.array([0.8]), np.array([0.4]), 0.75, 0.25)
    assert ms.scores[0] == pytest.approx(0.75 * 0.8 + 0.25 * 0.6)
    with pytest.raises(ValidationError):
        comprehensive_incidence(np.array([0.8]), np.array([0.4]), 0.75, 0.75)


def test_score_all_methods_fixed_order_and_extras():
    rng = np.random.default_rng(51)
    y = random_generalized_matrix(rng, 5, 3)
    methods, extras = score_all_methods(y, ideal_vectors(y), MethodParams())
    assert [ms.method for ms in methods] == [
        "topsis",
        "grey-approach",
        "membership",
        "max-entropy",
    ]
    for ms in methods:
        assert (ms.scores >= 0).all() and (ms.scores <= 1).all()
        assert sorted(ms.ranks) == sorted(range(1, 6)) or len(set(ms.ranks)) < 5
    assert 0 < extras["beta1"] < 1
    assert extras["beta1"] + extras["beta2"] == pytest.approx(1.0, abs=1e-12)
    assert (extras["gplus"] > 0).all() and (extras["gplus"] <= 1).all()
    assert (extras["gminus"] > 0).all() and (extras["gminus"] <= 1).all()


def test_identical_plans_tie_in_every_method():
    y = np.tile(np.array([0.1, 0.2, 0.3, 0.4]), (4, 3, 1))
    methods, _ = score_all_methods(y, ideal_vectors(y), MethodParams())
    for ms in methods:
        np.testing.assert_allclose(ms.scores, np.full(4, ms.scores[0]))
        assert (ms.ranks == 1).all()


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
def test_all_scores_bounded(n, m, seed):
    rng = np.random.default_rng(seed)
    y = random_generalized_matrix(rng, n, m)
    methods, _ = score_all_methods(y, ideal_vectors(y), MethodParams())
    for ms in methods:
        assert (ms.scores >= -1e-12).all() and (ms.scores <= 1 + 1e-12).all()
        assert ms.ranks.min() == 1
        assert ms.ranks.max() <= n
