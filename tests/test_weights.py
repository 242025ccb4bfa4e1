import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyrank import (
    DegenerateProblemError,
    ValidationError,
    load_fighter_problem,
    parse_problem_dict,
    run_pipeline,
)
from greyrank._kernels import pairwise_deviation_sums
from greyrank.weights import (
    comprehensive_objective,
    entropy_weight_table,
    final_weights,
    optimization_weights,
    subjective_interval_weights,
)

from oracles import brute_deviation_coefficients, random_generalized_matrix
from test_problem_io import fighter_document


def test_subjective_envelope_hand_case():
    alpha = subjective_interval_weights(np.array([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]]), ["A", "B", "C"])
    assert alpha.tolist() == [[0.4, 0.5], [0.3, 0.4], [0.2, 0.2]]


def test_subjective_envelope_validation():
    with pytest.raises(ValidationError):
        subjective_interval_weights(np.array([[0.5, np.nan]]), ["A", "B"])
    with pytest.raises(ValidationError, match="interval weight of attribute 'B'"):
        subjective_interval_weights(np.array([[0.5, -0.1], [0.4, 0.2]]), ["A", "B"])


def test_deviation_totals_match_brute_force():
    rng = np.random.default_rng(7)
    x = random_generalized_matrix(rng, 5, 4)
    np.testing.assert_allclose(
        pairwise_deviation_sums(x), brute_deviation_coefficients(x), rtol=1e-12, atol=1e-12
    )


def test_optimization_weights_normalizations():
    rng = np.random.default_rng(11)
    x = random_generalized_matrix(rng, 4, 3)
    totals = pairwise_deviation_sums(x)
    unit = totals / np.linalg.norm(totals)
    summed, notes = optimization_weights(x)
    assert notes == []
    assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-12)
    assert summed.sum() == pytest.approx(1.0, abs=1e-12)
    assert (unit >= 0).all() and (summed >= 0).all()
    # both are positive multiples of the same totals vector
    np.testing.assert_allclose(unit / unit.sum(), summed, rtol=1e-12)


def test_optimization_weights_degenerate_on_identical_plans():
    x = np.tile(np.array([0.1, 0.2, 0.3, 0.4]), (3, 2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, notes = optimization_weights(x)
    np.testing.assert_array_equal(w, [0.5, 0.5])
    assert len(notes) == 1 and "all plans identical" in notes[0]


def test_entropy_weights_hand_case():
    # component 1: attribute 0 is flat (entropy 1, weight 0), attribute 1
    # is skewed, so it takes all the weight
    x = np.zeros((2, 2, 4))
    x[:, 0, :] = [[1, 1, 1, 1], [1, 1, 1, 1]]
    x[:, 1, :] = [[9, 9, 9, 9], [1, 1, 1, 1]]
    w = entropy_weight_table(x)[0][0]
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-12)


def test_entropy_weights_zero_column_gets_zero_weight():
    # an all-zero component column carries no information, like a flat one;
    # it must not sink the whole problem
    x = np.zeros((2, 2, 4))
    x[:, 0, :] = [[0, 1, 1, 1], [0, 2, 2, 2]]  # component 1 all zero
    x[:, 1, :] = [[9, 9, 9, 9], [1, 1, 1, 1]]
    w = entropy_weight_table(x)[0][0]
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-12)


def test_entropy_weight_table_fallbacks_are_notes():
    # flat columns and a single plan carry no dispersion: every component
    # falls back to uniform weights with one note each, and nothing warns
    for x, reason in ((np.ones((3, 4, 4)), "flat"), (np.ones((1, 4, 4)), "single plan")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, notes = entropy_weight_table(x)
        np.testing.assert_array_equal(table, np.full((4, 4), 0.25))
        assert len(notes) == 4 and all(reason in note for note in notes)


@pytest.mark.parametrize("n", [3, 10, 30, 64, 1000])
def test_identical_plans_get_exactly_uniform_entropy_weights(n):
    # Fighter's first row n times: every column is flat. Computed, 1 - E of a
    # flat column is rounding noise of either sign, which can give one
    # attribute all the weight of a component.
    doc = fighter_document()
    doc["plans"] = [f"G{i}" for i in range(n)]
    doc["matrix"] = [doc["matrix"][0]] * n
    doc["preferences"] = [doc["preferences"][0]] * n
    report = run_pipeline(parse_problem_dict(doc))
    assert (report.beta_ent == 1 / 9).all()
    flat = "all attribute columns are flat: entropy weights fall back to uniform"
    assert report.notes.count(flat) == 4
    assert (report.borda == report.borda[0]).all()


def test_entropy_weight_table_shape_and_sums():
    rng = np.random.default_rng(3)
    x = random_generalized_matrix(rng, 5, 6)
    table, notes = entropy_weight_table(x)
    assert notes == []
    assert table.shape == (4, 6)
    np.testing.assert_allclose(table.sum(axis=1), np.ones(4), atol=1e-9)
    assert (table >= 0).all()


def test_entropy_weights_of_huge_columns_are_scale_free():
    # a column whose entries are finite but whose sum is not weighs as the
    # same column at unit scale, bit for bit
    rng = np.random.default_rng(5)
    x = random_generalized_matrix(rng, 5, 3)
    huge = x.copy()
    huge[:, 1] = np.ldexp(x[:, 1], 1023 - int(np.frexp(x[:, 1].max())[1]))
    with np.errstate(over="ignore"):
        assert np.isinf(huge[:, 1].sum(axis=0)).any()
    base, _ = entropy_weight_table(x)
    assert entropy_weight_table(huge)[0].tobytes() == base.tobytes()


def test_entropy_weights_permutation_equivariant():
    rng = np.random.default_rng(17)
    x = random_generalized_matrix(rng, 5, 4)
    plan_perm = rng.permutation(5)
    attr_perm = rng.permutation(4)
    base = entropy_weight_table(x)[0]
    # reordering plans changes nothing; reordering attributes permutes the weights
    np.testing.assert_allclose(entropy_weight_table(x[plan_perm])[0], base, atol=1e-12)
    np.testing.assert_allclose(
        entropy_weight_table(x[:, attr_perm])[0], base[:, attr_perm], atol=1e-12
    )


def test_comprehensive_objective_envelope():
    beta_opt = np.array([0.5, 0.5])
    beta_ent = np.array([[0.2, 0.8], [0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
    env = comprehensive_objective(beta_opt, beta_ent, ["A", "B"])
    assert env.tolist() == [[0.2, 0.6], [0.4, 0.8]]


def test_final_weights_hand_case():
    alpha = np.array([[0.4, 0.6], [0.4, 0.6]])
    beta = np.array([[0.5, 0.5], [0.5, 0.5]])
    w = final_weights(alpha, beta, ["A", "B"])
    # lower = 0.2 / 0.6, upper = 0.3 / 0.4
    np.testing.assert_allclose(w, [(1 / 3, 0.75), (1 / 3, 0.75)])


def test_final_weights_contain_crisp_quotients():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.integers(2, 6)
        lo_a = rng.random(m) * 0.5 + 0.01
        hi_a = lo_a + rng.random(m) * 0.5
        lo_b = rng.random(m) * 0.5 + 0.01
        hi_b = lo_b + rng.random(m) * 0.5
        ids = [f"A{j}" for j in range(m)]
        w = final_weights(np.column_stack((lo_a, hi_a)), np.column_stack((lo_b, hi_b)), ids)
        # any crisp choice inside the input intervals must land inside w
        for _ in range(10):
            a = lo_a + rng.random(m) * (hi_a - lo_a)
            b = lo_b + rng.random(m) * (hi_b - lo_b)
            crisp = a * b / (a * b).sum()
            for j in range(m):
                assert w[j, 0] <= crisp[j] + 1e-12
                assert crisp[j] <= w[j, 1] + 1e-12


def test_final_weights_degenerate_zero_denominator():
    with pytest.raises(DegenerateProblemError):
        final_weights(np.array([[0.0, 0.0]]), np.array([[0.5, 0.5]]), ["A"])


def test_final_weights_degenerate_names_the_bound():
    # only the second attribute has a positive subjective lower bound, and its
    # objective lower bound is zero
    with pytest.raises(DegenerateProblemError, match="its lower subjective_weights bound"):
        final_weights(
            np.array([[0.0, 0.1], [0.1, 0.2]]), np.array([[0.5, 0.5], [0.0, 0.5]]), ["A", "B"]
        )


def test_final_weights_scale_each_bound_on_its_own():
    # scaled by the largest upper bound, every lower bound would be subnormal
    # and keep only about 17 bits; here each column has its own scale
    alpha = np.array([[1e-10, 1.7e308], [1e-10, 1e-10]])
    beta = np.array([[1e-20, 1e-20], [0.5, 0.5]])
    w = final_weights(alpha, beta, ["A", "B"])
    np.testing.assert_allclose(w[0, 1], 1.7e288 / 5e-11, rtol=1e-14)
    np.testing.assert_allclose(w[1, 0], 5e-11 / 1.7e288, rtol=1e-14)


def test_weight_errors_name_the_attribute():
    ids = ["A", "B"]
    with pytest.raises(ValidationError, match="interval weight of attribute 'B' needs finite"):
        final_weights(np.array([[0.1, 0.2], [0.4, 0.3]]), np.full((2, 2), 0.5), ids)
    with pytest.raises(DegenerateProblemError, match="attribute 'A': the upper bound exceeds"):
        final_weights(np.array([[1e-300, 1.7e308], [0.5, 0.5]]), np.full((2, 2), 0.5), ids)
    with pytest.raises(ValidationError, match="interval weight of attribute 'A'"):
        comprehensive_objective(np.array([np.nan, 0.5]), np.full((4, 2), 0.5), ids)


def test_pipeline_weight_bundle_shapes():
    problem = load_fighter_problem()
    report = run_pipeline(problem)
    assert report.problem is problem  # the report holds the problem, not a copy
    assert report.beta_opt.shape == (9,)
    assert report.beta_ent.shape == (4, 9)
    assert report.problem.subjective.shape == (9, 2)
    assert report.beta_interval.shape == (9, 2)
    assert report.w_final.shape == (9, 2)
    lo, hi = report.w_final.T
    assert ((0 <= lo) & (lo <= hi)).all()
    # beta_opt and every entropy row lie inside the comprehensive envelope
    lo, hi = report.beta_interval.T
    assert ((lo <= report.beta_opt) & (report.beta_opt <= hi)).all()
    assert ((lo <= report.beta_ent) & (report.beta_ent <= hi)).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10_000))
def test_optimization_weights_scale_invariant(n, m, seed):
    rng = np.random.default_rng(seed)
    x = random_generalized_matrix(rng, n, m)
    c = pairwise_deviation_sums(x)
    if c.sum() <= 0:
        return
    base, _ = optimization_weights(x)
    scaled, _ = optimization_weights(x * 3.7)
    np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=1e-12)
