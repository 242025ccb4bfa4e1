import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greyrank import ValidationError, parse_problem_dict
from greyrank._kernels import distance_grid
from greyrank.normalize import AttributeSpec, normalize_matrix
from greyrank.values import canonical_labels, term_index, term_indices, term_to_triangle
from greyrank.weights import final_weights


def one_column_doc(kind, cells, direction="benefit"):
    return {
        "schema": 1,
        "plans": [f"P{i + 1}" for i in range(len(cells))],
        "attributes": [{"id": "A", "kind": kind, "direction": direction}],
        "matrix": [[cell] for cell in cells],
        "subjective_weights": {"intervals": [[0.5, 0.5]]},
        "preferences": [[0.1, 0.2, 0.3, 0.4]] * len(cells),
    }


def lifted(kind, cells, direction="benefit"):
    """The bounds a column parses to, and the 4-tuples it normalizes to."""
    p = parse_problem_dict(one_column_doc(kind, cells, direction))
    return p.raw[:, 0], normalize_matrix(p.raw, p.attributes)[:, 0]


def term_column(bounds, kind="linguistic", direction="benefit"):
    raw = np.array(bounds, dtype=np.float64).reshape(-1, 1, 2)
    return normalize_matrix(raw, [AttributeSpec("T", kind, direction)])[:, 0]


def test_scale_has_eleven_terms_worst_to_best():
    labels = canonical_labels()
    assert len(labels) == 11
    assert labels[0] == "extremely low"
    assert labels[5] == "general"
    assert labels[-1] == "extremely high"


@pytest.mark.parametrize(
    "label, triangle",
    [
        ("extremely low", (0.0, 0.0, 0.1)),
        ("very low", (0.0, 0.1, 0.2)),
        ("low", (0.1, 0.2, 0.3)),
        ("comparatively low", (0.2, 0.3, 0.4)),
        ("a little low", (0.3, 0.4, 0.5)),
        ("general", (0.4, 0.5, 0.6)),
        ("a little high", (0.5, 0.6, 0.7)),
        ("comparatively high", (0.6, 0.7, 0.8)),
        ("high", (0.7, 0.8, 0.9)),
        ("very high", (0.8, 0.9, 1.0)),
        ("extremely high", (0.9, 1.0, 1.0)),
    ],
)
def test_scale_triangles(label, triangle):
    assert term_to_triangle(term_index(label)) == triangle


def test_builtin_aliases_resolve():
    assert term_index("ordinary") == term_index("general") == 0
    assert term_index("rather high") == term_index("comparatively high")
    assert term_index("Rather Low") == term_index("comparatively low")
    assert term_index("  HIGH ") == 3


def test_custom_aliases_take_precedence():
    assert term_index("ok", term_indices({"ok": "general"})) == 0
    # custom alias may redirect a built-in spelling
    assert term_index("ordinary", term_indices({"ordinary": "high"})) == term_index("high")


def test_term_indices_resolve_as_term_index():
    aliases = {"high": "low", "ordinary": "high", "ok": "general"}
    table = term_indices(aliases)
    assert list(table)[:11] == canonical_labels()
    assert list(table)[-1] == "ok"  # shadowing aliases keep the built-in spelling's place
    assert table == {label: term_index(f" {label.upper()} ", table) for label in table}
    assert table["high"] == -3 and table["ordinary"] == 3
    assert term_indices() == {label: term_index(label) for label in term_indices()}


def test_unknown_label_lists_accepted_terms():
    with pytest.raises(ValidationError) as err:
        term_index("sort of high")
    message = str(err.value)
    assert "sort of high" in message
    for label in canonical_labels():
        assert label in message


def test_complement_mirrors_index():
    # a cost column mirrors term k to -k, and a range [a, b] to [-b, -a]:
    # it normalizes exactly like the mirrored benefit column
    for k in range(-5, 6):
        cost = term_column([[k, k], [0, 0]], direction="cost")
        benefit = term_column([[-k, -k], [0, 0]])
        assert cost.tobytes() == benefit.tobytes()
    for a in range(-5, 6):
        for b in range(a, 6):
            cost = term_column([[a, b], [0, 0]], "uncertain-linguistic", "cost")
            benefit = term_column([[-b, -a], [0, 0]], "uncertain-linguistic")
            assert cost.tobytes() == benefit.tobytes()


def test_term_index_out_of_range():
    with pytest.raises(ValidationError):
        term_to_triangle(6)
    for bad in ([[6, 6]], [[-6, -6]], [[0, 2.5]], [[0, math.nan]]):
        with pytest.raises(ValidationError, match="not a pair of term indices") as err:
            term_column(bad, "uncertain-linguistic")
        assert err.value.row == 0


def test_lift_real():
    raw, x = lifted("real", [3610, {"real": 390}])
    np.testing.assert_array_equal(raw, [[3610.0, 3610.0], [390.0, 390.0]])
    np.testing.assert_allclose(x, [[0.9025] * 4, [0.0975] * 4], rtol=1e-15)


def test_lift_interval():
    raw, x = lifted("interval", [{"interval": [465, 485]}])
    np.testing.assert_array_equal(raw, [[465.0, 485.0]])
    np.testing.assert_allclose(x, [[465 / 485, 465 / 485, 485 / 465, 485 / 465]])


def test_lift_linguistic():
    raw, x = lifted("linguistic", [{"ling": "high"}, {"ling": "low"}])
    np.testing.assert_array_equal(raw, [[3.0, 3.0], [-3.0, -3.0]])
    # midpoints sum to one, so the triangles (L, M, M, U) come out unscaled
    np.testing.assert_allclose(x, [[0.7, 0.8, 0.8, 0.9], [0.1, 0.2, 0.2, 0.3]])


def test_lift_uncertain():
    cell = {"uncertain": ["a little high", "comparatively high"]}
    raw, x = lifted("uncertain-linguistic", [cell])
    np.testing.assert_array_equal(raw, [[1.0, 2.0]])
    # undoing the column scaling recovers the trapezoid (L_lo, M_lo, M_hi, U_hi)
    np.testing.assert_allclose(x * [0.6, 0.6, 0.7, 0.7], [[0.5, 0.6, 0.7, 0.8]])


def test_generalized_value_rejects_disorder():
    # preference 4-tuples must be ascending, complete and finite
    for bad in ([0.2, 0.1, 0.3, 0.4], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, math.nan],
                [0.0, 1.0, 2.0, math.inf]):
        doc = one_column_doc("real", [1.0, 2.0])
        doc["preferences"][1] = bad
        with pytest.raises(ValidationError, match="'P2'"):
            parse_problem_dict(doc)


def test_interval_weight_bounds():
    # interval weights are (lo, hi) rows with 0 <= lo <= hi, where parsed and
    # where derived
    doc = one_column_doc("real", [1.0, 2.0])
    doc["subjective_weights"] = {"intervals": [[0.1, 0.3]]}
    assert parse_problem_dict(doc).subjective.tolist() == [[0.1, 0.3]]
    for bad in ([-0.1, 0.3], [0.4, 0.3]):
        doc["subjective_weights"] = {"intervals": [bad]}
        with pytest.raises(ValidationError, match="subjective weight for attribute 'A'"):
            parse_problem_dict(doc)
        with pytest.raises(ValidationError, match="interval weight of attribute 'A'"):
            final_weights(np.array([bad]), np.array([[0.5, 0.5]]), ["A"])


def dist(a, b):
    """The scoring distance between two 4-tuples, via the distance grid."""
    return float(distance_grid(np.array([[a]]), np.array([b]))[0, 0])


def test_distance_matches_euclidean():
    a = (0.0, 0.0, 0.0, 0.0)
    b = (1.0, 1.0, 1.0, 1.0)
    assert dist(a, b) == pytest.approx(2.0)
    assert dist(a, a) == 0.0


ascending_tuples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=4, max_size=4
).map(sorted)


@given(ascending_tuples, ascending_tuples)
def test_distance_symmetry_and_identity(a, b):
    assert dist(a, b) == pytest.approx(dist(b, a))
    assert dist(a, a) == 0.0
    assert dist(a, b) >= 0.0


@given(ascending_tuples, ascending_tuples, ascending_tuples)
def test_distance_triangle_inequality(a, b, c):
    lhs = dist(a, c)
    rhs = dist(a, b) + dist(b, c)
    assert lhs <= rhs + 1e-6 * max(1.0, rhs)


def test_scale_triangles_monotone_in_index():
    triples = [np.array(term_to_triangle(i)) for i in range(-5, 6)]
    for lower, higher in zip(triples, triples[1:]):
        assert (higher >= lower).all()


@given(st.integers(min_value=-5, max_value=5))
def test_lift_preserves_ordering_for_every_term(idx):
    lo, mid, up = term_to_triangle(idx)
    tup = np.array([lo, mid, mid, up])
    assert (np.diff(tup) >= 0).all()
    lo, mid, up = term_to_triangle(-idx)
    # the mirrored term's triangle is the original mirrored around 1/2
    np.testing.assert_allclose([lo, mid, mid, up], (1.0 - tup)[::-1], atol=1e-12)
