import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyrank import BordaConfig, ValidationError
from greyrank.aggregate import scores_to_ranks, weighted_borda

from oracles import loop_competition_ranks


def _methods(*score_vectors):
    """The (4, n) scores of four methods, one row each."""
    return np.array(score_vectors, dtype=float)


def test_competition_ranks_hand_cases():
    np.testing.assert_array_equal(scores_to_ranks(np.array([0.9, 0.5, 0.7])), [1, 3, 2])
    np.testing.assert_array_equal(scores_to_ranks(np.array([0.5, 0.5, 0.1])), [1, 1, 3])
    np.testing.assert_array_equal(scores_to_ranks(np.array([0.2])), [1])


@settings(max_examples=80)
@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=12))
def test_competition_ranks_match_loop_oracle(scores):
    np.testing.assert_array_equal(scores_to_ranks(np.array(scores)), loop_competition_ranks(scores))


def test_borda_config_validation():
    BordaConfig()
    with pytest.raises(ValidationError):
        BordaConfig(method_weights=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValidationError):
        BordaConfig(method_weights=(1.5, -0.5, 0.0, 0.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            BordaConfig(method_weights=(bad, 0.5, 0.25, 0.25))
    # finite weights whose sum overflows are refused without a RuntimeWarning
    with pytest.raises(ValidationError, match="must sum to 1, got inf"):
        BordaConfig(method_weights=(0.0, 0.0, 1.7e308, 1.7e308))
    with pytest.raises(ValidationError):
        BordaConfig(tie_break="coin-flip")


def test_unanimous_methods_preserve_order():
    methods = _methods(*[[0.9, 0.1, 0.5]] * 4)
    _, final_ranks, borda, _ = weighted_borda(methods, BordaConfig())
    np.testing.assert_array_equal(final_ranks, [1, 3, 2])
    np.testing.assert_allclose(borda, [2.0, 0.0, 1.0])
    assert list(np.argsort(final_ranks, kind="stable")) == [0, 2, 1]


def test_borda_tiebreak_by_normalized_score_sum():
    # methods 1-2 prefer plan 1, methods 3-4 prefer plan 2; borda ties at 1.5
    methods = _methods(
        [0.9, 0.8, 0.1], [0.9, 0.8, 0.1], [0.7, 0.9, 0.1], [0.7, 0.9, 0.1]
    )
    _, final_ranks, borda, tiebreak = weighted_borda(methods, BordaConfig())
    np.testing.assert_allclose(borda, [1.5, 1.5, 0.0])
    # normalized sums: plan 1 -> 1 + 1 + .75 + .75 = 3.5
    #                  plan 2 -> .875 + .875 + 1 + 1 = 3.75
    np.testing.assert_allclose(tiebreak, [3.5, 3.75, 0.0])
    np.testing.assert_array_equal(final_ranks, [2, 1, 3])


def test_borda_tiebreak_by_plan_index():
    methods = _methods(
        [0.9, 0.8, 0.1], [0.9, 0.8, 0.1], [0.7, 0.9, 0.1], [0.7, 0.9, 0.1]
    )
    final_ranks = weighted_borda(methods, BordaConfig(tie_break="plan-index"))[1]
    np.testing.assert_array_equal(final_ranks, [1, 2, 3])


def test_method_weights_shift_the_fusion():
    methods = _methods(
        [0.9, 0.8], [0.8, 0.9], [0.8, 0.9], [0.8, 0.9]
    )
    favour_first = weighted_borda(methods, BordaConfig(method_weights=(1.0, 0.0, 0.0, 0.0)))
    np.testing.assert_array_equal(favour_first[1], [1, 2])
    favour_rest = weighted_borda(methods, BordaConfig(method_weights=(0.0, 0.5, 0.25, 0.25)))
    np.testing.assert_array_equal(favour_rest[1], [2, 1])


def test_identical_plans_full_tie_resolved_by_index():
    methods = _methods(*[[0.5, 0.5, 0.5, 0.5]] * 4)
    _, final_ranks, _, tiebreak = weighted_borda(methods, BordaConfig())
    # everything ties; flat methods contribute zero tiebreak, so plan order
    # falls back to the index and the final ranking is still strict
    np.testing.assert_array_equal(final_ranks, [1, 2, 3, 4])
    np.testing.assert_allclose(tiebreak, np.zeros(4))


def test_ranks_invariant_under_increasing_transforms():
    rng = np.random.default_rng(43)
    for _ in range(30):
        scores = rng.random(int(rng.integers(1, 9)))
        base = scores_to_ranks(scores)
        for transform in (lambda s: 2.0 * s + 1.0, np.exp, lambda s: s**3):
            np.testing.assert_array_equal(scores_to_ranks(transform(scores)), base)


def test_weighted_borda_permutation_equivariant():
    rng = np.random.default_rng(47)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        score_vectors = [rng.random(n) for _ in range(4)]
        _, base_final, base_borda, _ = weighted_borda(_methods(*score_vectors), BordaConfig())
        if len(set(base_borda)) < n:
            continue  # an exact tie would fall back to plan index, which is label-dependent
        perm = rng.permutation(n)
        _, final_ranks, borda, _ = weighted_borda(
            _methods(*(s[perm] for s in score_vectors)), BordaConfig()
        )
        np.testing.assert_allclose(borda, base_borda[perm])
        np.testing.assert_array_equal(final_ranks, base_final[perm])


def test_final_ranks_always_strict_permutation():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        methods = _methods(*(rng.random(n) for _ in range(4)))
        final_ranks = weighted_borda(methods, BordaConfig())[1]
        assert sorted(final_ranks) == list(range(1, n + 1))


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10_000),
)
def test_borda_scores_bounded(n, seed):
    rng = np.random.default_rng(seed)
    methods = _methods(*(rng.random(n) for _ in range(4)))
    borda = weighted_borda(methods, BordaConfig())[2]
    assert (borda >= 0).all()
    assert (borda <= n - 1 + 1e-12).all()
