import copy
import json

import numpy as np
import pytest

from greyrank import (
    ValidationError,
    fighter_problem_path,
    load_fighter_problem,
    parse_problem,
    parse_problem_dict,
)

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


def toy(**changes):
    data = copy.deepcopy(MINIMAL)
    data.update(changes)
    return data


def test_minimal_problem_parses():
    p = parse_problem_dict(toy())
    assert p.n_plans == 2 and p.n_attributes == 4
    assert p.name == "toy"
    assert p.subjective_source == "experts"
    assert [g.as_tuple() for g in p.subjective] == [
        (0.3, 0.4),
        (0.3, 0.3),
        (0.2, 0.2),
        (0.1, 0.2),
    ]
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
    with pytest.raises(ValidationError):
        parse_problem_dict(toy(linguistic_aliases={"meh": "not a term"}))


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


def test_attribute_id_must_be_a_string():
    data = toy()
    data["attributes"][1]["id"] = ["x"]
    with pytest.raises(ValidationError, match="attribute 1: id must be a string"):
        parse_problem_dict(data)


def test_preferences_validated():
    with pytest.raises(ValidationError, match="'P2'"):
        parse_problem_dict(toy(preferences=[[0.2, 0.3, 0.4, 0.5], [0.4, 0.2, 0.3, 0.5]]))
    with pytest.raises(ValidationError, match="preferences"):
        parse_problem_dict(toy(preferences=[[0.2, 0.3, 0.4, 0.5]]))


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
