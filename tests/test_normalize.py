import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyrank import AttributeSpec, DegenerateProblemError, ValidationError
from greyrank.normalize import DIRECTIONS, KINDS, normalize_matrix

from oracles import loop_normalize_matrix

BEN = AttributeSpec("B", "interval", "benefit")
COST = AttributeSpec("C", "interval", "cost")


def column(bounds, spec):
    """Normalize one column given as (lo, hi) bounds per plan; shape (n, 4)."""
    raw = np.array(bounds, dtype=np.float64).reshape(-1, 1, 2)
    return normalize_matrix(raw, [spec])[:, 0]


def test_attribute_spec_validation():
    with pytest.raises(ValidationError):
        AttributeSpec("X", "complex", "benefit")
    with pytest.raises(ValidationError):
        AttributeSpec("X", "real", "sideways")


def test_benefit_interval_hand_case():
    # columns [1,2] and [3,4]: sum(lo)=4, sum(hi)=6
    col = column([(1, 2), (3, 4)], BEN)
    np.testing.assert_allclose(col, [(1 / 6, 1 / 6, 1 / 2, 1 / 2), (1 / 2, 1 / 2, 1.0, 1.0)])


def test_cost_interval_hand_case():
    # columns [1,2] and [2,4]: sum(1/lo)=1.5, sum(1/hi)=0.75
    col = column([(1, 2), (2, 4)], COST)
    np.testing.assert_allclose(col, [(1 / 3, 1 / 3, 4 / 3, 4 / 3), (1 / 6, 1 / 6, 2 / 3, 2 / 3)])


def test_single_plan_benefit_interval_hits_one():
    np.testing.assert_allclose(column([(5, 5)], BEN), [(1.0, 1.0, 1.0, 1.0)])


def test_reals_are_degenerate_intervals():
    col = column([(1, 1), (3, 3)], AttributeSpec("R", "real", "benefit"))
    np.testing.assert_allclose(col, [(0.25, 0.25, 0.25, 0.25), (0.75, 0.75, 0.75, 0.75)])


def test_linguistic_benefit_hand_case():
    # 'high' and 'low': triangles (.7,.8,.9) and (.1,.2,.3), midpoint sum 1.0
    col = column([(3, 3), (-3, -3)], AttributeSpec("L", "linguistic", "benefit"))
    np.testing.assert_allclose(col, [(0.7, 0.8, 0.8, 0.9), (0.1, 0.2, 0.2, 0.3)])


def test_linguistic_cost_mirrors_scale():
    # cost 'high' behaves like benefit 'low' and vice versa
    col = column([(3, 3), (-3, -3)], AttributeSpec("L", "linguistic", "cost"))
    np.testing.assert_allclose(col, [(0.1, 0.2, 0.2, 0.3), (0.7, 0.8, 0.8, 0.9)])


def test_uncertain_benefit_hand_case():
    # [a little high, comparatively high]: trapezoid (.5,.6,.7,.8); sums a*=0.6, a**=0.7
    col = column([(1, 2)], AttributeSpec("U", "uncertain-linguistic", "benefit"))
    np.testing.assert_allclose(col, [(0.5 / 0.6, 1.0, 1.0, 0.8 / 0.7)])


def test_uncertain_cost_complements_and_swaps():
    # [low, a little low] mirrors to [a little high, high] -> trapezoid (.5,.6,.8,.9)
    col = column([(-3, -1)], AttributeSpec("U", "uncertain-linguistic", "cost"))
    np.testing.assert_allclose(col, [(0.5 / 0.6, 1.0, 1.0, 0.9 / 0.8)])


def test_cost_interval_requires_positive_values():
    with pytest.raises(ValidationError) as err:
        column([(0, 2), (1, 4)], COST)
    assert "'C'" in str(err.value)


def test_benefit_interval_rejects_negative():
    with pytest.raises(ValidationError):
        column([(-1, 2), (1, 4)], BEN)


def test_benefit_zero_column_is_degenerate():
    with pytest.raises(DegenerateProblemError):
        column([(0, 0), (0, 0)], BEN)


def test_kind_mismatch_is_located():
    # a value that is no term index cannot sit in a linguistic column
    with pytest.raises(ValidationError) as err:
        column([(3, 3), (3610.0, 3610.0)], AttributeSpec("A7", "linguistic", "benefit"))
    assert "'A7', row 1" in str(err.value)


ZERO_COLUMN = (
    [(0, 0), (0, 0)], DegenerateProblemError, "attribute {id!r}: benefit column sums to zero"
)
NEGATIVE_COLUMN = (
    [(1, 2), (-1, 2)],
    ValidationError,
    "attribute {id!r}, row 1: negative value -1.0 in a benefit column is not supported",
)


@pytest.mark.parametrize(
    "first, second", [(ZERO_COLUMN, NEGATIVE_COLUMN), (NEGATIVE_COLUMN, ZERO_COLUMN)],
    ids=["zero-then-negative", "negative-then-zero"],
)
def test_error_names_the_first_bad_column(first, second):
    # the two checks fail in different columns; the error is the first column's
    raw = np.array([first[0], second[0]], dtype=np.float64).transpose(1, 0, 2)
    specs = [AttributeSpec("A1", "interval", "benefit"), AttributeSpec("A2", "real", "benefit")]
    with pytest.raises(first[1]) as err:
        normalize_matrix(raw, specs)
    assert type(err.value) is first[1]
    assert str(err.value) == first[2].format(id="A1")


def test_normalize_matrix_shape_and_order():
    raw = np.array([[(1, 1), (1, 2)], [(3, 3), (3, 4)]], dtype=np.float64)
    specs = [AttributeSpec("R", "real", "benefit"), BEN]
    x = normalize_matrix(raw, specs)
    assert x.shape == (2, 2, 4)
    assert (np.diff(x, axis=2) >= 0).all()
    with pytest.raises(ValidationError):
        normalize_matrix(raw[:, :1], specs)
    with pytest.raises(ValidationError):
        normalize_matrix(raw[:0], specs)


interval_bounds = st.builds(
    lambda lo, width: (lo, lo + width),
    st.floats(min_value=0.01, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e4),
)


@settings(max_examples=60)
@given(st.lists(interval_bounds, min_size=1, max_size=8), st.sampled_from(["benefit", "cost"]))
def test_interval_normalization_is_ordered(bounds, direction):
    col = column(bounds, AttributeSpec("P", "interval", direction))
    assert (np.diff(col, axis=1) >= 0).all()
    assert (col[:, 0] > 0).all()


@settings(max_examples=60)
@given(
    st.lists(interval_bounds, min_size=2, max_size=6),
    st.floats(min_value=0.01, max_value=100.0),
    st.sampled_from(["benefit", "cost"]),
)
def test_interval_normalization_scale_invariant(bounds, lam, direction):
    spec = AttributeSpec("P", "interval", direction)
    base = column(bounds, spec)
    scaled = column([(lo * lam, hi * lam) for lo, hi in bounds], spec)
    np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=1e-12)


terms = st.integers(min_value=-5, max_value=5)


@settings(max_examples=60)
@given(st.lists(terms, min_size=1, max_size=8), st.sampled_from(["benefit", "cost"]))
def test_linguistic_normalization_is_ordered(indices, direction):
    try:
        col = column([(k, k) for k in indices], AttributeSpec("P", "linguistic", direction))
    except DegenerateProblemError:
        # only legal when every effective midpoint is zero (all terms at the
        # extreme end of the scale)
        sign = -5 if direction == "benefit" else 5
        assert all(k == sign for k in indices)
        return
    assert (np.diff(col, axis=1) >= 0).all()


@st.composite
def uncertain_bounds(draw):
    a = draw(terms)
    return a, draw(st.integers(min_value=a, max_value=5))


@settings(max_examples=60)
@given(st.lists(uncertain_bounds(), min_size=1, max_size=8), st.sampled_from(["benefit", "cost"]))
def test_uncertain_normalization_is_ordered(pairs, direction):
    try:
        col = column(pairs, AttributeSpec("P", "uncertain-linguistic", direction))
    except DegenerateProblemError:
        if direction == "benefit":
            assert all(a == -5 for a, _ in pairs) or all(b == -5 for _, b in pairs)
        else:
            assert all(b == 5 for _, b in pairs) or all(a == 5 for a, _ in pairs)
        return
    assert (np.diff(col, axis=1) >= 0).all()


# Pools for the reference comparison. Each draws mostly valid values plus the
# hostile ones: negative, zero, subnormal, tiny and huge magnitudes, NaN, and
# values that are no term index.
_HOSTILE = [-1.0, 0.0, 5e-324, 1e-310, 1.7e308, float("nan")]
_INTERVAL_POOL = [0.5, 1.0, 2.0, 3.0, 7.25] * 2 + _HOSTILE
_TERM_POOL = list(range(-5, 6)) + [1.5, 3610.0, float("nan")]


@st.composite
def mixed_problems(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    specs, columns = [], []
    for j in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(KINDS))
        pool = _INTERVAL_POOL if kind in ("real", "interval") else _TERM_POOL
        values = draw(st.lists(st.sampled_from(pool), min_size=2 * n, max_size=2 * n))
        # bounds come in ascending pairs as the parser gives them (NaN sorts last)
        columns.append(np.sort(np.reshape(values, (n, 2)), axis=1))
        specs.append(AttributeSpec(f"A{j + 1}", kind, draw(st.sampled_from(DIRECTIONS))))
    return np.stack(columns, axis=1), specs


def _outcome(normalize, raw, specs):
    try:
        return normalize(raw, specs)
    except (ValidationError, DegenerateProblemError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(mixed_problems())
def test_one_pass_matches_the_column_loop(problem):
    raw, specs = problem
    with warnings.catch_warnings():
        # The loop warns when a benefit column's sum overflows next to a NaN,
        # and then raises the same error; the one pass must raise it silently.
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _outcome(loop_normalize_matrix, raw, specs)
    got = _outcome(normalize_matrix, raw, specs)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
        assert got.flags.c_contiguous
