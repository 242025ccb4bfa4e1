import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import greyrank.problem
from greyrank import (
    ValidationError,
    emit_report,
    fighter_problem_path,
    load_fighter_problem,
    parse_problem,
    parse_problem_dict,
    run_pipeline,
)
from greyrank.normalize import AttributeSpec
from greyrank.values import DEFAULT_ALIASES, canonical_labels

from oracles import loop_experts, loop_intervals, loop_matrix_bounds, loop_preferences

MINIMAL = {
    "schema": 1,
    "name": "toy",
    "plans": ["P1", "P2"],
    "attributes": [
        {"id": "A1", "kind": "real", "direction": "benefit"},
        {"id": "A2", "kind": "interval", "direction": "cost"},
        {"id": "A3", "kind": "linguistic", "direction": "benefit"},
        {"id": "A4", "kind": "uncertain-linguistic", "direction": "benefit"},
    ],
    "matrix": [
        [3.0, {"interval": [1, 2]}, {"ling": "high"}, {"uncertain": ["low", "general"]}],
        [5.0, {"interval": [2, 4]}, {"ling": "low"}, {"uncertain": ["general", "high"]}],
    ],
    "subjective_weights": {"experts": [[0.4, 0.3, 0.2, 0.1], [0.3, 0.3, 0.2, 0.2]]},
    "preferences": [[0.2, 0.3, 0.4, 0.5], [0.1, 0.2, 0.3, 0.4]],
}


def fighter_document() -> dict:
    """A fresh copy of the bundled fighter problem document."""
    return json.loads(fighter_problem_path().read_text(encoding="utf-8"))


def toy(**changes):
    data = copy.deepcopy(MINIMAL)
    data.update(changes)
    return data


def test_minimal_problem_parses():
    p = parse_problem_dict(toy())
    assert p.n_plans == 2 and p.n_attributes == 4
    assert p.name == "toy"
    assert p.subjective_source == "experts"
    assert p.subjective.tolist() == [[0.3, 0.4], [0.3, 0.3], [0.2, 0.2], [0.1, 0.2]]
    assert p.params.rho == 0.5 and p.params.theta_minus == 0.5
    assert p.borda.method_weights == (0.25, 0.25, 0.25, 0.25)
    np.testing.assert_allclose(p.preferences[0], [0.2, 0.3, 0.4, 0.5])


def test_bundled_fighter_problem():
    assert fighter_problem_path().exists()
    p = load_fighter_problem()
    assert p.plans == ["G1", "G2", "G3", "G4", "G5"]
    assert p.n_attributes == 9
    assert [a.direction for a in p.attributes] == [
        "cost", "benefit", "benefit", "cost", "benefit",
        "benefit", "benefit", "benefit", "cost",
    ]
    assert p.subjective_source == "intervals"
    assert p.aliases["rather high"] == "comparatively high"


def test_schema_version_required():
    with pytest.raises(ValidationError, match="schema"):
        parse_problem_dict(toy(schema=2))
    data = toy()
    del data["schema"]
    with pytest.raises(ValidationError, match="schema"):
        parse_problem_dict(data)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError, match="matrx"):
        parse_problem_dict(toy(matrx=[]))


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError, match="unique"):
        parse_problem_dict(toy(plans=["P1", "P1"]))
    data = toy()
    data["attributes"][1] = dict(data["attributes"][0])
    with pytest.raises(ValidationError, match="unique"):
        parse_problem_dict(data)


def test_row_length_mismatch_is_located():
    data = toy()
    data["matrix"][1] = data["matrix"][1][:3]
    with pytest.raises(ValidationError, match="'P2'"):
        parse_problem_dict(data)


def _long_toy(n: int) -> dict:
    """The toy problem with its rows repeated to ``n`` plans."""
    data = toy(plans=[f"P{i}" for i in range(n)])
    data["matrix"] = [copy.deepcopy(data["matrix"][i % 2]) for i in range(n)]
    data["preferences"] = [list(data["preferences"][i % 2]) for i in range(n)]
    return data


@pytest.mark.parametrize("row", [None, {}, [], [1.0] * 5, "abcd", (1.0, 2.0, 3.0, 4.0)])
def test_malformed_row_deep_in_the_matrix_is_located_after_the_rows_above(row):
    data = _long_toy(2000)
    data["matrix"][1400] = row
    data["matrix"][1700][0] = "bad"  # below the malformed row: not reached
    with pytest.raises(ValidationError, match=r"^plan 'P1400': matrix row must have 4 cells$"):
        parse_problem_dict(data)
    data["matrix"][900][0] = "bad"  # above it: checked, and located, first
    with pytest.raises(ValidationError, match=r"^plan 'P900', attribute 'A1': "):
        parse_problem_dict(data)


@pytest.mark.parametrize("plans", [["P1", 2], [None, "P2"], ["P1", b"P2"], ["P1", ["P2"]]])
def test_plan_that_is_not_a_string_is_refused(plans):
    with pytest.raises(ValidationError, match=r"^plans must be a nonempty list of names$"):
        parse_problem_dict(toy(plans=plans))


@pytest.mark.parametrize("changes, message", [
    ({"plans": [], "matrix": [], "preferences": []}, "plans must be a nonempty list of names"),
    ({"attributes": []}, "attributes must be a nonempty list"),
    ({"subjective_weights": {"experts": []}},
     "subjective_weights.experts must be a nonempty list of weight vectors"),
    ({"subjective_weights": {"intervals": []}},
     "subjective_weights.intervals must list 4 [lo, hi] pairs"),
], ids=["plans", "attributes", "experts", "intervals"])
def test_empty_lists_are_refused(changes, message):
    with pytest.raises(ValidationError) as err:
        parse_problem_dict(toy(**changes))
    assert str(err.value) == message


def test_plan_of_a_str_subclass_is_accepted():
    class Name(str):
        pass

    assert parse_problem_dict(toy(plans=[Name("P1"), "P2"])).plans == ["P1", "P2"]


def test_descending_interval_names_plan_and_attribute():
    data = toy()
    data["matrix"][0][1] = {"interval": [485, 465]}
    with pytest.raises(ValidationError) as err:
        parse_problem_dict(data)
    message = str(err.value)
    assert "'P1'" in message and "'A2'" in message
    assert "485" in message and "465" in message


def test_unknown_term_is_located_and_lists_accepted():
    data = toy()
    data["matrix"][0][2] = {"ling": "sort of high"}
    with pytest.raises(ValidationError) as err:
        parse_problem_dict(data)
    message = str(err.value)
    assert "'P1'" in message and "'A3'" in message
    assert "sort of high" in message
    assert "a little high" in message  # accepted spellings are listed


@pytest.mark.parametrize(
    "attribute, cell",
    [(0, "NaN"), (0, '{"real": Infinity}'), (1, '{"interval": [1, Infinity]}'),
     (1, '{"interval": [NaN, 2]}'), (0, "1" + "0" * 400)],
    ids=["real-nan", "real-inf", "interval-inf", "interval-nan", "real-huge-integer"],
)
def test_non_finite_cells_name_plan_and_attribute(attribute, cell):
    # json.loads accepts NaN, Infinity and integers beyond float range; the parser must not
    data = toy()
    data["matrix"][1][attribute] = json.loads(cell)
    with pytest.raises(ValidationError, match="non-finite") as err:
        parse_problem_dict(data)
    assert "'P2'" in str(err.value) and f"'A{attribute + 1}'" in str(err.value)


def test_cell_kind_mismatch_rejected():
    data = toy()
    data["matrix"][0][0] = {"ling": "high"}
    with pytest.raises(ValidationError, match="'A1'"):
        parse_problem_dict(data)
    data = toy()
    data["matrix"][1][1] = 7
    with pytest.raises(ValidationError, match="'A2'"):
        parse_problem_dict(data)


def test_uncertain_pair_order_enforced():
    data = toy()
    data["matrix"][0][3] = {"uncertain": ["high", "low"]}
    with pytest.raises(ValidationError, match="'P1'"):
        parse_problem_dict(data)


def test_custom_alias_applies_to_cells():
    data = toy(linguistic_aliases={"so-so": "general"})
    data["matrix"][0][2] = {"ling": "SO-SO"}
    p = parse_problem_dict(data)
    assert p.raw[0, 2].tolist() == [0.0, 0.0]  # 'general' is term index 0


def test_alias_target_must_resolve():
    with pytest.raises(ValidationError, match="linguistic_aliases"):
        parse_problem_dict(toy(linguistic_aliases={"meh": "not a term"}))


def test_alias_target_resolves_against_the_built_ins_only():
    # "meh" -> "so-so" would need a second hop through the problem's aliases
    with pytest.raises(ValidationError) as err:
        parse_problem_dict(toy(linguistic_aliases={"so-so": "general", "meh": "so-so"}))
    assert str(err.value).startswith(
        "linguistic_aliases entry 'meh': unknown linguistic term 'so-so'; accepted terms: "
    )


def test_alias_keys_that_fold_alike_are_rejected():
    with pytest.raises(ValidationError) as err:
        parse_problem_dict(toy(linguistic_aliases={"Meh": "low", "meh": "high"}))
    assert str(err.value) == "linguistic_aliases keys 'Meh' and 'meh' both fold to 'meh'"
    with pytest.raises(ValidationError, match="' HIGH ' and 'high'"):
        parse_problem_dict(toy(linguistic_aliases={" HIGH ": "low", "high": "low"}))


def accepted_terms(data) -> list[str]:
    """The spellings an unknown-label message lists for ``data``."""
    with pytest.raises(ValidationError) as err:
        parse_problem_dict(data)
    return str(err.value).split("; accepted terms: ")[1].split(", ")


def test_accepted_terms_are_listed_once():
    data = toy(linguistic_aliases={"high": "low"})
    data["matrix"][0][2] = {"ling": "sort of high"}
    listed = accepted_terms(data)
    assert listed == canonical_labels() + sorted(DEFAULT_ALIASES)
    # the bundled problem's three aliases repeat the default ones
    data = fighter_document()
    data["matrix"][4][8] = {"uncertain": ["very low", "sort of low"]}
    assert accepted_terms(data) == listed


def test_subjective_weights_variants():
    data = toy(subjective_weights={"intervals": [[0.1, 0.2]] * 4})
    p = parse_problem_dict(data)
    assert p.subjective_source == "intervals"
    with pytest.raises(ValidationError, match="subjective"):
        parse_problem_dict(toy(subjective_weights={}))
    with pytest.raises(ValidationError, match="4"):
        parse_problem_dict(toy(subjective_weights={"experts": [[0.5, 0.5]]}))
    data = toy()
    del data["subjective_weights"]
    with pytest.raises(ValidationError, match="subjective_weights"):
        parse_problem_dict(data)


@pytest.mark.parametrize(
    "weight",
    ["a", [1], 10**400, "0.5", True, None, float("nan"), -0.1],
    ids=["string", "list", "huge-integer", "numeric-string", "bool", "null", "nan", "negative"],
)
def test_bad_expert_weight_names_expert_and_attribute(weight):
    data = toy()
    data["subjective_weights"]["experts"][1][2] = weight
    with pytest.raises(ValidationError, match="expert 1, attribute 'A3'"):
        parse_problem_dict(data)


@pytest.mark.parametrize(
    "pair",
    [["a", 1], 0.5, [0.1], [float("nan"), 0.2], [0.1, float("inf")], [10**400, 1],
     [-0.1, 0.2], [0.3, 0.2]],
    ids=["string", "not-a-list", "one-bound", "nan", "inf", "huge-integer", "negative",
         "descending"],
)
def test_bad_subjective_interval_names_attribute_once(pair):
    data = toy(subjective_weights={"intervals": [pair] + [[0.1, 0.2]] * 3})
    with pytest.raises(ValidationError) as exc:
        parse_problem_dict(data)
    message = str(exc.value)
    assert message.startswith("subjective weight for attribute 'A1': ")
    assert message.count("subjective weight") == 1


def test_report_echo_is_built_from_the_problem():
    document = fighter_document()
    data = copy.deepcopy(document)
    problem = parse_problem_dict(data)
    # the echo does not see changes the caller makes to its dict after parse
    data["matrix"][0][0] = 1.0
    data["matrix"][1][5]["ling"] = "low"
    data["subjective_weights"]["intervals"][0][0] = 0.9
    data["name"] = "changed"
    data["notes"] = "changed"
    echo = json.loads(emit_report(run_pipeline(problem), "json-report"))["problem"]
    fresh = parse_problem_dict(document)
    assert echo == json.loads(emit_report(run_pipeline(fresh), "json-report"))["problem"]
    assert echo["name"] == document["name"] and echo["notes"] == document["notes"]
    # canonical cells: a real is a float, term labels are canonical
    assert echo["matrix"][0][0] == 3610.0 and echo["matrix"][1][5] == {"ling": "high"}
    assert echo["matrix"][0][6] == {"ling": "comparatively high"}
    assert echo["subjective_weights"] == document["subjective_weights"]
    assert echo["params"] == document["params"]
    with pytest.raises(ValidationError, match="notes must be a string"):
        parse_problem_dict(dict(document, notes={1, 2}))


def test_attribute_id_must_be_a_string():
    data = toy()
    data["attributes"][1]["id"] = ["x"]
    with pytest.raises(ValidationError, match="attribute 1: id must be a string"):
        parse_problem_dict(data)
    del data["attributes"][1]["id"]
    with pytest.raises(ValidationError, match="^attribute 1 must carry id, kind, and direction$"):
        parse_problem_dict(data)
    data["attributes"][1].update(id="A2", unit="t")
    with pytest.raises(ValidationError, match=r"^attribute 1: unknown keys \['unit'\]$"):
        parse_problem_dict(data)


def test_preferences_validated():
    with pytest.raises(ValidationError, match="'P2'"):
        parse_problem_dict(toy(preferences=[[0.2, 0.3, 0.4, 0.5], [0.4, 0.2, 0.3, 0.5]]))
    with pytest.raises(ValidationError, match="preferences"):
        parse_problem_dict(toy(preferences=[[0.2, 0.3, 0.4, 0.5]]))
    with pytest.raises(ValidationError, match="'P1'.*nonnegative"):
        parse_problem_dict(toy(preferences=[[-0.1, 0.3, 0.4, 0.5], [0.1, 0.2, 0.3, 0.4]]))


def test_params_validated():
    with pytest.raises(ValidationError, match="rho"):
        parse_problem_dict(toy(params={"rho": 1.0}))
    with pytest.raises(ValidationError, match="thetaplus"):
        parse_problem_dict(toy(params={"thetaplus": 0.4}))
    with pytest.raises(ValidationError, match="borda"):
        parse_problem_dict(toy(params={"borda_weights": [0.5, 0.5]}))
    p = parse_problem_dict(toy(params={"theta_plus": 0.7}))
    assert p.params.theta_minus == pytest.approx(0.3)


def test_parse_problem_from_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(toy()), encoding="utf-8")
    p = parse_problem(path)
    assert p.name == "toy"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError, match="JSON"):
        parse_problem(bad)
    with pytest.raises(ValidationError, match="read"):
        parse_problem(tmp_path / "missing.json")


def test_parse_problem_refuses_a_document_nested_past_the_recursion_limit(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"schema": 1, "notes": ' + "[" * 3000 + "]" * 3000 + "}", encoding="utf-8")
    with pytest.raises(ValidationError) as caught:
        parse_problem(path)
    assert str(caught.value) == f"{path}: the document is nested too deeply"


def test_canonical_columns_skip_the_per_cell_loop(monkeypatch):
    calls = []
    parse_cell = greyrank.problem._parse_cell
    monkeypatch.setattr(
        greyrank.problem, "_parse_cell", lambda *a: calls.append(a[-1]) or parse_cell(*a)
    )
    for document in (toy(), fighter_document()):
        parse_problem_dict(document)
    assert calls == []
    # a label that needs case folding sends its column, and only it, to the loop
    data = toy()
    data["matrix"][1][2] = {"ling": "High"}
    assert parse_problem_dict(data).raw[:, 2].tolist() == [[3, 3], [3, 3]]
    assert calls == ["plan 'P1', attribute 'A3'", "plan 'P2', attribute 'A3'"]
    # a kind that fails its pass sends all its columns to the loop: a
    # {"real": v} cell sends both real columns, and a descending interval
    # only its own column
    calls.clear()
    data = column_document(["real", "interval", "interval", "real"], [
        [1.0, {"interval": [1, 2]}, {"interval": [1, 2]}, {"real": 4.0}],
        [2.0, {"interval": [3, 1]}, {"interval": [1, 2]}, 5.0],
    ])
    with pytest.raises(ValidationError) as caught:
        parse_problem_dict(data)
    assert str(caught.value) == "plan 'P2', attribute 'A2': interval bounds out of order: [3.0, 1.0]"
    assert calls == ["plan 'P1', attribute 'A1'", "plan 'P1', attribute 'A2'",
                     "plan 'P1', attribute 'A4'", "plan 'P2', attribute 'A1'",
                     "plan 'P2', attribute 'A2'"]
    calls.clear()
    data["matrix"][1][1] = {"interval": [1, 3]}
    assert parse_problem_dict(data).raw.tolist() == [
        [[1, 1], [1, 2], [1, 2], [4, 4]], [[2, 2], [1, 3], [1, 2], [5, 5]]]
    assert calls == ["plan 'P1', attribute 'A1'", "plan 'P1', attribute 'A4'",
                     "plan 'P2', attribute 'A1'", "plan 'P2', attribute 'A4'"]


# Cells of every shape the per-cell loop accepts or rejects. Aliases are given
# with folded keys, as _parse_aliases stores them.
KINDS = ("real", "interval", "linguistic", "uncertain-linguistic")
ALIASES = [{}, {"so-so": "general"}, {"high": "low"}, {"ordinary": "very high", "meh": "ordinary"}]
LABELS = canonical_labels() + sorted(DEFAULT_ALIASES) + ["so-so", "meh"]
# 2**1024 - 2**970 is finite as an int but rounds to inf as a float
HUGE = [10**400, -(10**400), 2**53, 2**53 + 1, 2**63 + 1, 2**1023 + 2**970, 2**1024 - 2**970,
        -(2**70) - 1]
numbers = st.one_of(st.floats(), st.integers(), st.sampled_from(HUGE), st.floats(-1e3, 1e3))
junk = st.sampled_from([True, False, None, "1.5", "high", [1.0], {}])
labels = st.one_of(
    st.sampled_from(LABELS),
    st.sampled_from(LABELS).map(str.upper),
    st.sampled_from(LABELS).map(lambda s: f" {s.replace(' ', '  ')} "),
    st.sampled_from(["sort of high", "", 3, None]),
)
pairs = st.one_of(
    st.lists(numbers, min_size=2, max_size=2),
    st.lists(st.one_of(numbers, junk), min_size=1, max_size=3),
    st.tuples(numbers, numbers),
)
term_pairs = st.one_of(
    st.lists(labels, min_size=2, max_size=2),
    st.lists(labels, min_size=1, max_size=3),
    st.tuples(labels, labels),
)
CELLS = {
    "real": st.one_of(numbers, st.builds(lambda v: {"real": v}, numbers), junk),
    "interval": st.one_of(st.builds(lambda b: {"interval": b}, pairs), numbers, junk),
    "linguistic": st.one_of(
        st.builds(lambda t: {"ling": t}, labels),
        st.builds(lambda t: {"ling": t, "x": 1}, labels),
        labels,
    ),
    "uncertain-linguistic": st.one_of(
        st.builds(lambda p: {"uncertain": p}, term_pairs), st.builds(lambda t: {"ling": t}, labels)
    ),
}
finite = st.one_of(st.floats(-1e6, 1e6), st.integers(-(10**6), 10**6))
terms = st.sampled_from(canonical_labels())
CLEAN = {  # cells every kind's one-pass check takes
    "real": finite,
    "interval": st.lists(finite, min_size=2, max_size=2).map(lambda b: {"interval": sorted(b)}),
    "linguistic": st.builds(lambda t: {"ling": t}, terms),
    "uncertain-linguistic": st.lists(st.integers(0, 10), min_size=2, max_size=2).map(
        lambda k: {"uncertain": [canonical_labels()[i] for i in sorted(k)]}
    ),
}


@st.composite
def matrices(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    n = draw(st.integers(1, 4))
    columns = [
        draw(st.lists((CLEAN if draw(st.booleans()) else CELLS)[kind], min_size=n, max_size=n))
        for kind in kinds
    ]
    return kinds, [list(row) for row in zip(*columns)], draw(st.sampled_from(ALIASES))


def column_document(kinds, matrix, aliases=None, preferences=None) -> dict:
    n = len(matrix)
    return {
        "schema": 1,
        "plans": [f"P{i + 1}" for i in range(n)],
        "attributes": [
            {"id": f"A{j + 1}", "kind": kind, "direction": "benefit"}
            for j, kind in enumerate(kinds)
        ],
        "matrix": matrix,
        "subjective_weights": {"intervals": [[0.1, 0.2]] * len(kinds)},
        "preferences": preferences or [[0.1, 0.2, 0.3, 0.4]] * n,
        "linguistic_aliases": aliases or {},
    }


def outcome(fn, *args):
    """What ``fn`` returns, or the message of the ValidationError it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


def assert_same_outcome(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got, expected)


@settings(max_examples=300, deadline=None)
@given(matrices())
@example((["real"], [[1.0], [True]], {}))
@example((["real"], [[{"real": 2}], [{"real": False}]], {}))
@example((["real"], [[{"real": 2, "x": 1}]], {}))
@example((["real"], [[2**63 + 1], [10**400]], {}))
@example((["real"], [[float("nan")], [1.0]], {}))
@example((["real", "real"], [[1.0, float("inf")], [-float("inf"), 2.0]], {}))
@example((["interval"], [[{"interval": [float("nan"), 1]}]], {}))
@example((["interval"], [[{"interval": [1]}], [{"interval": [1, 2, 3]}]], {}))
@example((["interval"], [[{"interval": [1, 2]}], [{"interval": [3, 1]}]], {}))
@example((["interval"], [[{"interval": [1, 10**400]}]], {}))
@example((["interval"], [[{"interval": [True, 2]}], [{"interval": [1, 2]}]], {}))
@example((["interval"], [[{"interval": ["1", 2]}]], {}))
@example((["interval"], [[{"interval": [2**53 + 1, 2**53]}], [{"interval": [2**53, 2.0**53]}]], {}))
@example((["linguistic"], [[{"ling": "High"}], [{"ling": " very  high "}]], {}))
@example((["linguistic"], [[{"ling": "sort of high"}]], {}))
@example((["linguistic", "uncertain-linguistic"],
          [[{"ling": "high"}, {"uncertain": ["low", "high"]}]], {"high": "low"}))
@example((["uncertain-linguistic"], [[{"uncertain": ["LOW", "High"]}]], {}))
@example((["uncertain-linguistic"], [[{"uncertain": ["high", "low"]}]], {}))
@example((["uncertain-linguistic"], [[{"uncertain": ["low", "high", "high"]}]], {}))
@example((["real", "interval"], [[1.0, {"interval": [2, 1]}], [True, {"interval": [1, 2]}]], {}))
@example((["real", "real"], [[True, 1.0], [1.0]], {}))
@example((["real", "real"], [[1.0, 1.0], [1.0]], {}))
# bad cells in two kinds: the first in row order is named, not the first kind's
@example((["real", "interval", "real"],
          [[1.0, {"interval": [1, 2]}, float("nan")], [2.0, {"interval": [3, 1]}, 3.0]], {}))
@example((["real", "interval", "real"],
          [[1.0, {"interval": [1, 2]}, True], [2.0, {"interval": [1]}, 3.0]], {}))
# a kind that fails its pass in one column only
@example((["interval", "interval"],
          [[{"interval": [1, 2]}, {"interval": [1, 10**400]}],
           [{"interval": [1, 2]}, {"interval": [1, 2]}]], {}))
@example((["linguistic", "linguistic"],
          [[{"ling": "high"}, {"ling": "High"}], [{"ling": "low"}, {"ling": "low"}]], {}))
def test_bulk_parse_matches_the_per_cell_loop(case):
    kinds, matrix, aliases = case
    data = column_document(kinds, matrix, aliases)
    specs = [AttributeSpec(f"A{j + 1}", kind, "benefit") for j, kind in enumerate(kinds)]
    plans = data["plans"]
    expected = outcome(loop_matrix_bounds, matrix, plans, specs, aliases)
    assert_same_outcome(outcome(lambda: parse_problem_dict(data).raw), expected)


weights = st.one_of(
    st.floats(0, 2), st.integers(0, 3), st.sampled_from([-0.0, -0.5, float("nan"), 10**400]),
)


@st.composite
def number_rows(draw):
    """1 to 4 entries: rows of one width, all clean or mixed with rows of
    any shape, type and value."""
    width = draw(st.sampled_from([2, 4]))
    clean = st.lists(st.floats(0, 10), min_size=width, max_size=width).map(sorted)
    rows = st.one_of(
        clean,
        st.lists(weights, min_size=width, max_size=width),
        st.lists(st.one_of(numbers, weights, junk), min_size=1, max_size=5),
        st.tuples(*[numbers] * width),
        numbers,
        junk,
    )
    return draw(st.lists(clean if draw(st.booleans()) else rows, min_size=1, max_size=4))


def _width_of_first(entries: list) -> int:
    first = entries[0]
    return len(first) if isinstance(first, (list, tuple)) and first else 2


# Each use of the one-pass check, its per-entry reference loop, and the
# names its messages quote: one plan per preference, one attribute per
# weight of an expert vector, one attribute per subjective interval.
NUMBER_ROW_USES = {
    "preferences": (greyrank.problem._parse_preferences, loop_preferences,
                    lambda entries: [f"P{i + 1}" for i in range(len(entries))]),
    "experts": (greyrank.problem._parse_experts, loop_experts,
                lambda entries: [f"A{j + 1}" for j in range(_width_of_first(entries))]),
    "intervals": (greyrank.problem._parse_intervals, loop_intervals,
                  lambda entries: [f"A{j + 1}" for j in range(len(entries))]),
}


@pytest.mark.parametrize("use", list(NUMBER_ROW_USES))
@settings(max_examples=200, deadline=None)
@given(number_rows())
@example([[0.1, 0.2, 0.3]])
@example([[0.1, 0.2, 0.3, 0.4, 0.5]])
@example([(0.1, 0.2, 0.3, 0.4), [0, 0, 0, 2**63 + 1]])
@example([[0.1, 0.2, 0.3, 0.4], [0.4, 0.2, 0.3, 0.5]])
@example([[-0.0, 0.0, 0.0, 0.0], [-0.1, 0.2, 0.3, 0.4]])
@example([[0.1, 0.2, 0.3, float("nan")]])
@example([[0.1, 0.2, 0.3, float("inf")]])
@example([[0.1, 0.2, 0.3, 10**400]])
@example([[0, 2**53 + 1, 2.0**53, 2**1024 - 2**970]])
@example([[0, 2**53 + 1, 2.0**53, 2**53]])
@example([[0.1, 0.2, 0.3, True]])
@example([[0.1, 0.2, 0.3, "0.4"]])
@example([0.4])
@example([[0.5, 0.5], [0.5, 0.5, 0.5]])
@example([[0.5, 0.5], (0.5, 0.5)])
@example([[-0.0, 0.0], [0.5, -0.5]])
@example([[0.5, float("inf")]])
@example([[2**53 + 1, 2.0**53], [2**63 + 1, 2**1024 - 2**970]])
@example([[0.5, True]])
@example([[0.5, "0.5"]])
@example([0.5])
@example([[0.1, 0.2], [0.1, True]])
@example([[0.1, 0.2], [0.1, "0.5"]])
@example([[0.1, 0.2], [0.1, float("nan")]])
@example([[0.1, 0.2], [0.1, 10**400]])
@example([[0.1, 0.2], [0.1, float("inf")]])
@example([[-0.0, 0.2], [0.1, 0.2]])
@example([[0.1, 0.2], [0.3, 0.2]])
@example([[0.1, 0.2], [0.1, 0.2, 0.3]])
@example([[0.1, 0.2], (0.1, 0.2)])
@example([[2**53 + 1, 2.0**53], [2**63 + 1, 2**64]])
def test_bulk_number_rows_match_the_per_entry_loop(use, entries):
    parse, loop, names_of = NUMBER_ROW_USES[use]
    names = names_of(entries)
    expected = outcome(loop, entries, names)
    assert_same_outcome(outcome(parse, entries, names), expected)
