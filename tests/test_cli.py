import contextlib
import copy
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import greyrank.problem
from greyrank import (
    DecisionProblem,
    ValidationError,
    fighter_problem_path,
    parse_problem,
    parse_problem_dict,
)
from greyrank import cli, pipeline
from greyrank.cli import main
from greyrank.report import render_json

from oracles import exact_interval_rule
from test_problem_io import MINIMAL, fighter_document


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(MINIMAL), encoding="utf-8")
    return path


def run(capsysbinary, *argv):
    rc = main([str(a) for a in argv])
    captured = capsysbinary.readouterr()
    return rc, captured.out, captured.err


def test_solve_text_to_stdout(toy_file, capsysbinary):
    rc, out, err = run(capsysbinary, "solve", toy_file)
    assert rc == 0
    assert err == b""
    text = out.decode()
    assert "final ranking:" in text
    assert "ranking (topsis):" in text
    assert "ranking (max-entropy):" in text


def test_solve_formats(toy_file, capsysbinary):
    rc, out, _ = run(capsysbinary, "solve", toy_file, "--format", "csv")
    assert rc == 0
    assert b"plan,score,rank" in out
    rc, out, _ = run(capsysbinary, "solve", toy_file, "--format", "json-report")
    assert rc == 0
    data = json.loads(out)
    assert data["final_ranking"]
    assert data["problem"]["plans"] == ["P1", "P2"]


def test_output_bytes_deterministic(toy_file, capsysbinary):
    outputs = set()
    for _ in range(2):
        rc, out, _ = run(capsysbinary, "solve", toy_file, "--format", "json-report")
        assert rc == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_json_report_round_trips(toy_file, tmp_path, capsysbinary):
    rc, out, _ = run(capsysbinary, "solve", toy_file, "--format", "json-report")
    assert rc == 0
    first = json.loads(out)
    report_file = tmp_path / "report.json"
    report_file.write_bytes(out)
    # a json-report is accepted as input: its embedded problem is re-solved
    rc, out, _ = run(capsysbinary, "solve", report_file, "--format", "json-report")
    assert rc == 0
    second = json.loads(out)
    assert second["final_ranking"] == first["final_ranking"]
    assert second["borda"] == first["borda"]


def _shadowed_aliases():
    # "general" now means "high"; index 0 stays reachable through "middling"
    data = fighter_document()
    data["linguistic_aliases"] = {"General": "high", "middling": "general"}
    data["matrix"][0][5] = {"ling": "Middling"}
    data["matrix"][3][7] = {"uncertain": ["middling", "very high"]}
    return data


def _unnamed_minimal():
    data = copy.deepcopy(MINIMAL)
    del data["name"]
    return data


@pytest.mark.parametrize(
    "make", [fighter_document, _shadowed_aliases, _unnamed_minimal],
    ids=["fighter", "fighter-aliases", "minimal-experts"],
)
def test_json_report_echo_parses_to_an_equal_problem(tmp_path, capsysbinary, make):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(make()), encoding="utf-8")
    rc, first, _ = run(capsysbinary, "solve", path, "--format", "json-report")
    assert rc == 0
    report_file = tmp_path / "report.json"
    report_file.write_bytes(first)
    rc, second, _ = run(capsysbinary, "solve", report_file, "--format", "json-report")
    assert rc == 0 and second == first
    assert_same_problem(parse_problem_dict(json.loads(first)["problem"]), parse_problem(path))


def assert_same_problem(got: DecisionProblem, want: DecisionProblem) -> None:
    for field in dataclasses.fields(DecisionProblem):
        value, expected = getattr(got, field.name), getattr(want, field.name)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(value, expected), field.name
        else:
            assert value == expected, field.name


def test_parse_problem_reads_a_json_report_as_its_problem(tmp_path):
    report_file = tmp_path / "report.json"
    assert main(["solve", str(fighter_problem_path()), "--format", "json-report",
                 "--out", str(report_file)]) == 0
    assert_same_problem(parse_problem(report_file), parse_problem(fighter_problem_path()))


@pytest.mark.parametrize("content", [b"{not json", b"[1]", None],
                         ids=["invalid-json", "not-an-object", "missing"])
def test_messages_quote_the_problem_file_as_given(tmp_path, monkeypatch, capsysbinary, content):
    # the CLI and parse_problem load a file one way: each message begins with
    # the path as given, ./ included, and so does the OS error's text
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / "x.json").write_bytes(content)
    with pytest.raises(ValidationError) as caught:
        parse_problem("./x.json")
    message = str(caught.value)
    assert message.startswith("./x.json: ")
    assert message.count("x.json") == message.count("./x.json")
    rc, out, err = run(capsysbinary, "solve", "./x.json")
    assert (rc, out, err) == (2, b"", f"greyrank: error: {message}\n".encode())


def test_out_flag_writes_file(toy_file, tmp_path, capsysbinary):
    target = tmp_path / "report.txt"
    rc, out, _ = run(capsysbinary, "solve", toy_file, "--out", target)
    assert rc == 0
    assert out == b""
    assert b"final ranking:" in target.read_bytes()


def test_param_flags_override_file(toy_file, capsysbinary):
    rc, out, _ = run(
        capsysbinary, "solve", toy_file, "--format", "json-report",
        "--rho", "0.4", "--theta-plus", "0.8",
    )
    assert rc == 0
    params = json.loads(out)["params"]
    assert params["rho"] == 0.4
    assert params["theta_plus"] == 0.8
    assert params["theta_minus"] == pytest.approx(0.2)
    assert json.loads(out)["problem"]["params"] == params


def test_flags_do_not_carry_over_to_the_next_call(capsysbinary):
    # main parses with one parser per process; a flag given to one call must
    # leave the next call's defaults as a fresh process has them
    path = fighter_problem_path()
    rc, with_rho, _ = run(capsysbinary, "solve", path, "--rho", "0.3")
    assert rc == 0
    rc, default, _ = run(capsysbinary, "solve", path)
    assert rc == 0
    fresh = (Path(__file__).resolve().parent / "golden" / "fighter.txt").read_bytes()
    assert default == fresh
    assert with_rho != fresh


def test_flag_does_not_hide_invalid_file_params(tmp_path, capsysbinary):
    data = copy.deepcopy(MINIMAL)
    data["params"] = {"rho": 1.5}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path, "--rho", "0.4")
    assert rc == 2 and out == b""
    assert err.startswith(b"greyrank: error: params: rho")


def test_borda_weights_flag(toy_file, capsysbinary):
    rc, out, _ = run(
        capsysbinary, "solve", toy_file, "--format", "json-report",
        "--borda-weights", "0.4,0.3,0.2,0.1",
    )
    assert rc == 0
    assert json.loads(out)["params"]["borda_weights"] == [0.4, 0.3, 0.2, 0.1]
    rc, _, err = run(capsysbinary, "solve", toy_file, "--borda-weights", "0.5,0.5")
    assert rc == 2
    assert b"borda-weights" in err
    # NaN passes a sum check (abs(nan - 1) > tol is False); it must still fail
    rc, out, err = run(capsysbinary, "solve", toy_file, "--borda-weights", "nan,0.5,0.25,0.25")
    assert rc == 2 and out == b""
    assert b"finite" in err


@pytest.mark.parametrize("weight, problem", [
    ("a", "expected a number, got 'a'"),
    (10**400, "non-finite number, integer too large for a float"),
], ids=["string", "huge-integer"])
def test_borda_weight_that_is_not_a_number_names_its_place_once(tmp_path, capsysbinary,
                                                                weight, problem):
    data = fighter_document()
    data["params"]["borda_weights"] = [0.25, weight, 0.25, 0.25]
    path = tmp_path / "borda.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path)
    assert rc == 2 and out == b""
    assert err == f"greyrank: error: params.borda_weights: {problem}\n".encode()


@pytest.mark.parametrize("rho", ["0", "1"])
def test_rho_outside_the_open_interval_exits_2(toy_file, capsysbinary, rho):
    rc, out, err = run(capsysbinary, "solve", toy_file, "--rho", rho)
    assert rc == 2 and out == b""
    assert err == f"greyrank: error: params: rho must lie in (0, 1), got {float(rho)}\n".encode()


def test_borda_weights_flag_that_is_not_a_number_exits_2(toy_file, capsysbinary):
    rc, out, err = run(capsysbinary, "solve", toy_file, "--borda-weights", "a,b,c,d")
    assert rc == 2 and out == b""
    assert err == b"greyrank: error: --borda-weights: could not convert string to float: 'a'\n"


def test_out_flag_naming_a_directory_exits_2(toy_file, tmp_path, capsysbinary):
    rc, out, err = run(capsysbinary, "solve", toy_file, "--out", tmp_path)
    assert rc == 2 and out == b""
    assert err.startswith(f"greyrank: error: cannot write {tmp_path}: ".encode())
    assert err.count(b"\n") == 1


@pytest.mark.parametrize("theta_plus", [1e-17, 5e-324])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_tiny_theta_plus_is_scored(tmp_path, capsysbinary, theta_plus, source):
    # 1 - theta_plus rounds to 1.0, a theta_minus of exactly 1
    data = fighter_document()
    flags = ["--theta-plus", repr(theta_plus)] if source == "flag" else []
    if source == "file":
        data["params"] = {"theta_plus": theta_plus}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path, "--format", "json-report", *flags)
    assert rc == 0 and err == b""
    params = json.loads(out)["params"]
    assert params["theta_plus"] == theta_plus and params["theta_minus"] == 1.0


def test_floating_point_error_in_a_stage_exits_3_located(monkeypatch, capsysbinary):
    # the stages run under np.errstate(...="raise"): an overflow no check
    # catches ends as a located exit 3, not as inf in the scores
    monkeypatch.setattr(pipeline, "blend_preference", lambda x, q: np.full_like(x, 1e308) * 10)
    rc, out, err = run(capsysbinary, "solve", fighter_problem_path())
    assert rc == 3 and out == b""
    assert err.startswith(b"greyrank: degenerate problem: stage evaluate: overflow")
    assert err.count(b"\n") == 1


def test_validation_errors_exit_2(tmp_path, capsysbinary):
    rc, _, err = run(capsysbinary, "solve", tmp_path / "absent.json")
    assert rc == 2
    assert b"error" in err

    bad = copy.deepcopy(MINIMAL)
    bad["matrix"][0][1] = {"interval": [9, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    rc, _, err = run(capsysbinary, "solve", path)
    assert rc == 2
    assert b"'P1'" in err and b"'A2'" in err

    rc, _, err = run(capsysbinary, "solve", path.with_suffix(".json"), "--rho", "7")
    assert rc == 2


@pytest.mark.parametrize("params", [[1, 2], "ab", 5], ids=["list", "string", "number"])
@pytest.mark.parametrize("flags", [[], ["--rho", "0.4"]], ids=["no-flags", "rho-flag"])
def test_non_object_params_exit_2(tmp_path, capsysbinary, params, flags):
    data = copy.deepcopy(MINIMAL)
    data["params"] = params
    path = tmp_path / "params.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path, *flags)
    assert rc == 2 and out == b""
    assert b"params must be an object" in err


def test_degenerate_problem_exits_3(tmp_path, capsysbinary):
    data = copy.deepcopy(MINIMAL)
    # a benefit interval column of zeros: normalization cannot scale it
    data["matrix"][0][1] = {"interval": [0, 0]}
    data["matrix"][1][1] = {"interval": [0, 0]}
    data["attributes"][1]["direction"] = "benefit"
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, _, err = run(capsysbinary, "solve", path)
    assert rc == 3
    assert b"degenerate" in err.lower()
    assert b"normalize" in err  # failing stage is named


def test_non_finite_normalized_value_is_located(tmp_path, capsysbinary):
    # the exact upper bound of a cost interval [5e-324, 1.7e308] next to ordinary
    # ones exceeds the largest float: valid input, so degenerate (exit 3), and
    # the located error is the only line on stderr
    data = fighter_document()
    data["matrix"][2][3] = {"interval": [5e-324, 1.7e308]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path)
    assert rc == 3 and out == b""
    assert err == (b"greyrank: degenerate problem: stage normalize: plan 'G3', attribute 'A4': "
                   b"normalized upper bound exceeds the largest float\n")


@pytest.mark.parametrize("i, j, value, problem", [
    (1, 0, 0, "attribute 'A1': cost column requires strictly positive values, got 0.0"),
    (3, 1, -1, "attribute 'A2': negative value -1.0 in a benefit column is not supported"),
], ids=["zero-cost", "negative-benefit"])
def test_value_normalize_cannot_take_names_the_plan(tmp_path, capsysbinary, i, j, value,
                                                    problem):
    data = fighter_document()
    data["matrix"][i][j] = value
    path = tmp_path / "value.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path)
    assert rc == 2 and out == b""
    plan = data["plans"][i]
    assert err == f"greyrank: error: stage normalize: plan {plan!r}, {problem}\n".encode()


def _with_surrogate(field: str) -> dict:
    """Fighter with a lone surrogate in one string field; json.dumps writes it
    as the JSON escape \\ud800, which json.loads reads back."""
    data = fighter_document()
    if field == "plan":
        data["plans"][0] = "G\ud800"
    elif field == "attribute id":
        data["attributes"][0]["id"] = "A\ud800"
    elif field in ("name", "notes"):
        data[field] = "fighter \ud800"
    elif field == "alias key":
        data["linguistic_aliases"]["meh\ud800"] = "medium"
    else:
        data["linguistic_aliases"]["meh"] = "medium\ud800"
    return data


SURROGATE_ERRORS = {
    "plan": r"plan 0: 'G\ud800'",
    "attribute id": r"attribute 0: id: 'A\ud800'",
    "name": r"name: 'fighter \ud800'",
    "notes": r"notes: 'fighter \ud800'",
    "alias key": r"linguistic_aliases key: 'meh\ud800'",
    "alias target": r"linguistic_aliases entry 'meh': target: 'medium\ud800'",
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json-report"])
@pytest.mark.parametrize("field", list(SURROGATE_ERRORS))
def test_lone_surrogate_is_located(tmp_path, capsysbinary, field, fmt):
    # no report format can write a lone surrogate as UTF-8: parse rejects it
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(_with_surrogate(field)), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path, "--format", fmt)
    assert rc == 2 and out == b""
    assert err == (f"greyrank: error: {SURROGATE_ERRORS[field]} has a lone surrogate, "
                   "which UTF-8 cannot encode\n").encode()


def test_lone_surrogate_deep_in_a_long_plan_list_is_located(tmp_path, capsysbinary):
    # the whole list is checked at once; the first plan it cannot encode is named
    data = copy.deepcopy(MINIMAL)
    data["plans"] = [f"P{i}" for i in range(2000)]
    data["plans"][1500] = "P\ud800"
    data["plans"][1800] = "Q\udfff"
    data["matrix"] *= 1000
    data["preferences"] *= 1000
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path)
    assert rc == 2 and out == b""
    assert err == (b"greyrank: error: plan 1500: 'P\\ud800' has a lone surrogate, "
                   b"which UTF-8 cannot encode\n")


def test_file_that_is_not_utf8_is_located(tmp_path, capsysbinary):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(fighter_document()).replace("G1", "G\xe9").encode("latin-1"))
    rc, out, err = run(capsysbinary, "solve", path)
    assert rc == 2 and out == b""
    assert err.startswith(f"greyrank: error: {path}: not UTF-8 text: ".encode())
    assert err.count(b"\n") == 1


def test_non_ascii_json_report_round_trips(tmp_path, capsysbinary):
    # a json-report writes text as UTF-8, not as \\u escapes, and reads back
    data = fighter_document()
    data["plans"][0] = "G\u00e9\u2028\u98de"
    data["name"] = "\u6218\u6597\u673a"
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, first, _ = run(capsysbinary, "solve", path, "--format", "json-report")
    assert rc == 0
    assert "G\u00e9\u2028\u98de".encode() in first and b"\\u" not in first
    report_file = tmp_path / "report.json"
    report_file.write_bytes(first)
    rc, second, _ = run(capsysbinary, "solve", report_file, "--format", "json-report")
    assert rc == 0 and second == first


def solve_json(capsysbinary, tmp_path, data):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsysbinary, "solve", path, "--format", "json-report")
    assert rc == 0 and err == b""
    return json.loads(out)


def test_huge_benefit_column_is_not_zeroed(tmp_path, capsysbinary):
    # the benefit rule does not depend on the column's scale, so an interval
    # column near the float maximum normalizes exactly like the original
    data = fighter_document()
    for row in data["matrix"]:
        row[2] = {"interval": [v * 2.0**1015 for v in row[2]["interval"]]}
    scaled = solve_json(capsysbinary, tmp_path, data)
    plain = solve_json(capsysbinary, tmp_path, fighter_document())
    assert scaled["normalized"] == plain["normalized"]
    assert scaled["methods"] == plain["methods"]


def test_tiny_cost_column_is_normalized(tmp_path, capsysbinary):
    # the cost rule does not depend on the column's scale either, so values
    # whose reciprocals overflow must rank like the original
    data = fighter_document()
    for row in data["matrix"]:
        row[0] *= 1e-312
    scaled = solve_json(capsysbinary, tmp_path, data)
    plain = solve_json(capsysbinary, tmp_path, fighter_document())
    np.testing.assert_allclose(scaled["normalized"], plain["normalized"], rtol=0, atol=1e-15)
    assert [m["ranks"] for m in scaled["methods"]] == [m["ranks"] for m in plain["methods"]]
    assert scaled["final_ranking"] == plain["final_ranking"]


# Fighter column j replaced by a column of reals or intervals at the float edges.
FLOAT_EDGE_COLUMNS = {
    "subnormal": (0, [5e-324, 1, 1, 1, 1]),
    "1e300-and-1e-300": (0, [1e300, 1e-300, 1, 1, 1]),
    "1e-310-to-1.7e308": (0, [1e-310, 3610, 1, 1, 1.7e308]),
    "wide-interval": (3, [[4830, 4910], [1e-300, 1e300], [4600, 4720], [4660, 4770],
                          [4770, 4850]]),
    "benefit-zero-and-subnormals": (1, [0, 1e-310, 1e-310, 1e-310, 1e-310]),
    "benefit-interval-zeros": (2, [[0, 1e-310], [0, 0], [5e-324, 1e-310], [1e-310, 2e-310],
                                   [0, 5e-324]]),
}


def fighter_with_column(j: int, column: list) -> dict:
    data = fighter_document()
    for row, cell in zip(data["matrix"], column):
        row[j] = {"interval": cell} if isinstance(cell, list) else cell
    return data


@pytest.mark.parametrize("j, column", list(FLOAT_EDGE_COLUMNS.values()),
                         ids=list(FLOAT_EDGE_COLUMNS))
def test_interval_column_at_the_float_edges_is_exact(tmp_path, capsysbinary, j, column):
    # every exact normalized value fits in a double; each normal one must match
    # the exact rule, even where a reciprocal of a bound alone would overflow
    # or a column's zeros sit next to subnormal values
    data = fighter_with_column(j, column)
    lo, hi = np.array(column, dtype=float).reshape(5, -1)[:, [0, -1]].T  # a real is [v, v]
    got = np.array(solve_json(capsysbinary, tmp_path, data)["normalized"])[:, j]
    direction = data["attributes"][j]["direction"]
    for (x_lo, x_hi), g in zip(exact_interval_rule(lo, hi, direction), got):
        for want, value in zip((x_lo, x_lo, x_hi, x_hi), g):
            if 2.0**-1022 <= want <= sys.float_info.max:
                assert abs(Fraction(value) - want) <= want * 1e-12


@pytest.mark.parametrize("rho", [1e-300, 1e-320, 5e-324])
def test_tiny_rho_is_scored(tmp_path, capsysbinary, rho):
    # rho * d_max must not underflow, nor the squared incidence degrees
    data = fighter_document()
    data["params"]["rho"] = rho
    report = solve_json(capsysbinary, tmp_path, data)
    assert all(np.isfinite(m["scores"]).all() for m in report["methods"])
    assert report["final_ranking"] == ["G2", "G5", "G1", "G3", "G4"]


def test_huge_preference_is_scored(tmp_path, capsysbinary):
    # the scores do not depend on the scale of the weighted matrix, so a
    # preference tuple near 1e160 must not overflow the squared distances
    data = fighter_document()
    data["preferences"][3] = [0, 0.1, 0.2, 1e160]
    report = solve_json(capsysbinary, tmp_path, data)
    assert report["final_ranking"] == ["G4", "G2", "G5", "G1", "G3"]


def test_negative_preference_is_located(tmp_path, capsysbinary):
    data = fighter_document()
    data["preferences"][3] = [-1, 0, 0, 1]
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path)
    assert rc == 2 and out == b""
    assert b"preference for plan 'G4':" in err
    assert b"nonnegative" in err


def test_descending_preference_is_located(tmp_path, capsysbinary):
    data = fighter_document()
    data["preferences"][2] = [0.4, 0.2, 0.3, 0.5]
    path = tmp_path / "descending.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path)
    assert rc == 2 and out == b""
    assert err == (b"greyrank: error: preference for plan 'G3': "
                   b"4-tuple components not ascending: [0.4, 0.2, 0.3, 0.5]\n")


def test_huge_subjective_weights_keep_lower_bounds(tmp_path, capsysbinary):
    # the final weights do not depend on the scale of the subjective weights,
    # so weights near the float maximum must give those of a unit scale
    finals = []
    for pair in ([1e308, 1.7e308], [1.0, 1.7]):
        data = fighter_document()
        data["subjective_weights"] = {"intervals": [pair] * 9}
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsysbinary, "solve", path, "--format", "json-report")
        assert rc == 0 and err == b""
        finals.append(json.loads(out)["weights"]["final"])
    np.testing.assert_allclose(finals[0], finals[1], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "weights",
    [{"intervals": [[0, 0]] * 9}, {"intervals": [[0, 0.5]] * 9},
     {"experts": [[0] * 9, [0] * 9]}],
    ids=["zero-intervals", "zero-lower-bounds", "zero-experts"],
)
def test_zero_subjective_lower_bounds_exit_2(tmp_path, capsysbinary, weights):
    data = fighter_document()
    data["subjective_weights"] = weights
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path)
    assert rc == 2 and out == b""
    assert err.startswith(b"greyrank: error: subjective_weights: ")


def test_huge_interval_spread_does_not_overflow_deviation(tmp_path, capsysbinary):
    # the benefit rule puts a value near 1e305 in A3, whose squared
    # deviations would overflow without scaling
    data = fighter_document()
    data["matrix"][4][2] = {"interval": [1e-310, 1.7e308]}
    report = solve_json(capsysbinary, tmp_path, data)
    assert report["final_ranking"] == ["G5", "G1", "G2", "G3", "G4"]


def test_huge_preference_does_not_overflow_weighting(tmp_path, capsysbinary):
    # G4's upper preference blends to about 8.5e307 and A1's upper final
    # weight is above 2; y is scaled before it is weighted
    data = fighter_document()
    data["preferences"][3] = [0, 0.1, 0.2, 1.7e308]
    data["subjective_weights"] = {"intervals": [[1e-4, 1.0]] + [[1e-4, 2e-4]] * 8}
    report = solve_json(capsysbinary, tmp_path, data)
    assert report["final_ranking"] == ["G4", "G1", "G2", "G3", "G5"]
    assert np.isfinite(report["weighted"]).all()


def test_huge_preference_and_upper_bound_blend_without_overflow(tmp_path, capsysbinary):
    # A4's row-2 upper bound normalizes to about 1.2e307, and G3's preference
    # is near the largest float; their sum overflows, their mean does not
    data = fighter_document()
    data["matrix"][2][3] = {"interval": [1e-304, 1e300]}
    data["preferences"][2] = [0.1, 0.2, 1.79e308, 1.79e308]
    report = solve_json(capsysbinary, tmp_path, data)
    assert report["final_ranking"] == ["G3", "G1", "G2", "G4", "G5"]
    assert np.isfinite(report["weighted"]).all()


def test_overflowing_final_weight_names_the_attribute(tmp_path, capsysbinary):
    # the upper final weight of A9 is about 2.7 times the largest float
    data = fighter_document()
    data["subjective_weights"] = {"intervals": [[0.1, 0.2]] * 8 + [[1e-300, 1.7e308]]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsysbinary, "solve", path)
    assert rc == 3 and out == b""
    assert err == (
        b"greyrank: degenerate problem: stage weights: interval weight of attribute "
        b"'A9': the upper bound exceeds the largest float\n"
    )


def test_final_upper_bound_that_underflows_keeps_its_lower_bound(tmp_path, capsysbinary):
    # A5's bounds are about 2^-1072 times A1's upper bound and 2^-985 times its
    # lower one: a scale shared by the upper products puts A5's below the
    # smallest float while one shared by the lower products keeps it above
    data = fighter_document()
    data["subjective_weights"]["intervals"][0] = [0.2305, 3e25]
    data["subjective_weights"]["intervals"][4] = [6e-298, 6e-298]
    lo, hi = np.array(solve_json(capsysbinary, tmp_path, data)["weights"]["final"]).T
    assert (lo <= hi).all()


def test_final_weights_of_subnormal_subjective_bounds_rank(tmp_path, capsysbinary):
    # A1 is flat, so its objective weights are 0 and so are both its products.
    # Every other product is below the smallest float: as floats they round to
    # 0 or 5e-324, and a lower product over the upper sum overflows. Taken as
    # mantissas and exponents, every lower weight is at most 1, and the plans
    # rank on A2-A9.
    data = fighter_document()
    for row in data["matrix"]:
        row[0] = data["matrix"][0][0]
    data["subjective_weights"] = {"intervals": [[0.0, 0.5]] + [[5e-324, 5e-324]] * 8}
    report = solve_json(capsysbinary, tmp_path, data)
    assert report["final_ranking"] == ["G2", "G5", "G1", "G3", "G4"]


def test_identical_plans_still_rank(tmp_path, capsysbinary):
    data = copy.deepcopy(MINIMAL)
    data["matrix"][1] = copy.deepcopy(data["matrix"][0])
    data["preferences"][1] = list(data["preferences"][0])
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, _ = run(capsysbinary, "solve", path, "--format", "json-report")
    assert rc == 0
    report = json.loads(out)
    # full tie: strict final ranking falls back to plan order, with a note
    assert report["final_ranking"] == ["P1", "P2"]
    assert any("uniform" in note for note in report["notes"])


def tied_90_plan_document() -> dict:
    """90 equal rows of nine attributes of all four kinds."""
    row = [{"ling": "low"}, {"uncertain": ["comparatively low", "general"]}, 7.592662767510114,
           {"interval": [6.103219313335449, 6.202372581208384]},
           {"interval": [4.190566081495563, 6.541399341310052]},
           {"interval": [4.766956742787562, 7.5401862980241665]},
           4.40783081472687, 3.105022723916263, 9.349460230500684]
    kinds = ["linguistic", "uncertain-linguistic", "real"] + ["interval"] * 3 + ["real"] * 3
    directions = ["cost"] + ["benefit"] * 5 + ["cost", "cost", "benefit"]
    return {
        "schema": 1,
        "plans": [f"P{i}" for i in range(90)],
        "attributes": [{"id": f"A{j}", "kind": k, "direction": d}
                       for j, (k, d) in enumerate(zip(kinds, directions))],
        "matrix": [row] * 90,
        "subjective_weights": {"intervals": [[0.1, 0.2]] * 9},
        "preferences": [[0.1916430606064108, 0.36672387374833104, 0.45933744621831685,
                         0.6512219706445778]] * 90,
    }


def test_tied_90_plan_document_ranks(tmp_path, capsysbinary):
    # Computed, the entropy of a flat column is 1 plus or minus rounding
    # noise, which can leave no attribute with a positive lower objective
    # weight where its subjective lower bound is positive (exit 3)
    data = tied_90_plan_document()
    path = tmp_path / "tied90.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path, "--format", "json-report")
    assert rc == 0 and err == b""
    assert json.loads(out)["final_ranking"] == data["plans"]


def test_single_plan_gets_trivial_ranking(tmp_path, capsysbinary):
    data = copy.deepcopy(MINIMAL)
    data["plans"] = data["plans"][:1]
    data["matrix"] = data["matrix"][:1]
    data["preferences"] = data["preferences"][:1]
    path = tmp_path / "solo.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, out, _ = run(capsysbinary, "solve", path, "--format", "json-report")
    assert rc == 0
    report = json.loads(out)
    assert report["final_ranking"] == ["P1"]
    assert all(ms["ranks"] == [1] for ms in report["methods"])


def test_missing_subcommand_is_usage_error(capsysbinary):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    captured = capsysbinary.readouterr()
    assert b"usage" in captured.err.lower()


def solve_bytes(path: Path, fmt: str, out: Path) -> tuple[int, str, bytes | None]:
    """Exit code, stderr and report bytes of one solve of ``path`` to ``out``."""
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main(["solve", str(path), "--format", fmt, "--out", str(out)])
    return rc, stderr.getvalue(), out.read_bytes() if rc == 0 else None


def assert_decoding_ignores_format(path: Path, out: Path) -> None:
    """A json-report solve exits and fails as a text solve does. On success
    it writes the report of the problem that json.loads reads."""
    rc, err, report = solve_bytes(path, "json-report", out)
    assert (rc, err) == solve_bytes(path, "text", out)[:2]
    if rc == 0:
        data = json.loads(path.read_text(encoding="utf-8"))
        problem = parse_problem_dict(data, source=str(path))
        assert report == render_json(pipeline.run_pipeline(problem))


def _fighter_bytes_with(literal: str) -> bytes:
    """Fighter with ``literal`` written verbatim as the first cell of A1."""
    data = fighter_document()
    data["matrix"][0][0] = "@"
    return json.dumps(data).replace('"@"', literal).encode()


def _nested_document(name: str, depth: int) -> str:
    """A document nested ``depth`` lists deep: its notes, or fighter's cell A1 of G1."""
    if name == "notes":
        return '{"schema": 1, "notes": ' + "[" * depth + "]" * depth + "}"
    doc = fighter_document()
    doc["matrix"][0][0] = "@cell@"
    return json.dumps(doc).replace('"@cell@"', "[" * depth + "1" + "]" * depth)


def _decoding_edge_files() -> dict:
    fighter = json.dumps(fighter_document()).encode()
    files = {"fighter": fighter, "missing": None}
    literals = {"nan": "NaN", "infinity": "Infinity", "minus-infinity": "-Infinity",
                "1e400": "1e400", "400-digit-integer": "9" * 400, "2**64-1": str(2**64 - 1)}
    for name, literal in literals.items():
        files[name] = _fighter_bytes_with(literal)
    files["lone-surrogate-plan"] = json.dumps(_with_surrogate("plan")).encode()
    files["latin-1"] = json.dumps(fighter_document()).replace("G1", "G\xe9").encode("latin-1")
    files["bom"] = b"\xef\xbb\xbf" + fighter
    files["truncated"] = fighter[:-7]
    files["duplicate-key"] = fighter[:-1] + b', "schema": 2}'
    for name, (j, column) in FLOAT_EDGE_COLUMNS.items():
        files[name] = json.dumps(fighter_with_column(j, column)).encode()
    huge_preference = fighter_document()
    huge_preference["preferences"][3] = [0, 0.1, 0.2, 1.7e308]
    files["huge-preference"] = json.dumps(huge_preference).encode()
    overflow = fighter_document()
    overflow["subjective_weights"] = {"intervals": [[0.1, 0.2]] * 8 + [[1e-300, 1.7e308]]}
    files["overflowing-weight"] = json.dumps(overflow).encode()
    tiny_rho = fighter_document()
    tiny_rho["params"]["rho"] = 5e-324
    files["tiny-rho"] = json.dumps(tiny_rho).encode()
    for name in ("notes", "cell"):  # past the recursion limit
        files[f"{name}-3000-deep"] = _nested_document(name, 3000).encode()
    return files


DECODING_EDGE_FILES = _decoding_edge_files()


@pytest.mark.parametrize("name", list(DECODING_EDGE_FILES))
def test_decoding_does_not_depend_on_the_format(tmp_path, name):
    # every format decodes with json.loads, so its errors are the same in each
    path = tmp_path / "problem.json"
    if DECODING_EDGE_FILES[name] is not None:
        path.write_bytes(DECODING_EDGE_FILES[name])
    assert_decoding_ignores_format(path, tmp_path / "report")


def test_documents_are_decoded_and_parsed_with_the_collector_paused(tmp_path, monkeypatch, capsys):
    # the decoded document is freed before the collector resumes, and every
    # caller gets its own collector state back, also when the file is bad
    # or the problem degenerate. A json-report solve runs no collection: the
    # pause lasts through the render, whose echo is thousands of containers.
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    degenerate = tmp_path / "degenerate.json"
    data = copy.deepcopy(MINIMAL)
    data["matrix"][0][1] = data["matrix"][1][1] = {"interval": [0, 0]}
    data["attributes"][1]["direction"] = "benefit"
    degenerate.write_text(json.dumps(data), encoding="utf-8")
    tied = tmp_path / "tied90.json"
    tied.write_text(json.dumps(tied_90_plan_document()), encoding="utf-8")
    seen, collections = [], []

    def recording(parse):
        def parse_problem_dict(*args, **kwargs):
            seen.append(gc.isenabled())
            return parse(*args, **kwargs)
        return parse_problem_dict

    def counting(phase, info):
        collections.append(phase)

    monkeypatch.setattr(cli, "parse_problem_dict", recording(cli.parse_problem_dict))
    monkeypatch.setattr(greyrank.problem, "parse_problem_dict",
                        recording(greyrank.problem.parse_problem_dict))
    was = gc.isenabled()
    gc.callbacks.append(counting)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for fmt in ("text", "json-report"):
                assert main(["solve", str(fighter_problem_path()), "--format", fmt,
                             "--out", str(tmp_path / "report")]) == 0
                assert gc.isenabled() is enabled
                assert main(["solve", str(bad), "--format", fmt]) == 2
                assert gc.isenabled() is enabled
                assert main(["solve", str(degenerate), "--format", fmt]) == 3
                assert gc.isenabled() is enabled
            gc.collect()
            collections.clear()
            assert main(["solve", str(tied), "--format", "json-report",
                         "--out", str(tmp_path / "report")]) == 0
            assert collections == []
            assert gc.isenabled() is enabled
            assert parse_problem(fighter_problem_path()).n_plans == 5
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(counting)
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 12
    assert capsys.readouterr().err.count("invalid JSON") == 4


def test_integer_beyond_64_bits_is_quoted_as_an_integer_in_every_format(
        tmp_path, capsysbinary):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(dict(fighter_document(), schema=2**64)), encoding="utf-8")
    for fmt in ("text", "csv", "json-report"):
        rc, out, err = run(capsysbinary, "solve", path, "--format", fmt)
        assert (rc, out) == (2, b"")
        assert err == (b"greyrank: error: missing or unsupported schema version "
                       b"18446744073709551616; expected 1\n")


@pytest.mark.parametrize("fmt", ["text", "csv", "json-report"])
@pytest.mark.parametrize("name", ["notes", "cell"])
def test_deeply_nested_document_exits_2_in_one_line(tmp_path, capsysbinary, name, fmt):
    # json.loads passes the recursion limit in every format
    path = tmp_path / "deep.json"
    path.write_text(_nested_document(name, 3000), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path, "--format", fmt)
    assert (rc, out) == (2, b"")
    assert err == f"greyrank: error: {path}: the document is nested too deeply\n".encode()


def test_a_million_levels_exit_2_in_every_format(tmp_path):
    # a decoder with no depth limit overflows the C stack on this 2 MB file
    # and kills the process with SIGSEGV, so a child interpreter solves it
    path = tmp_path / "deep.json"
    path.write_text(_nested_document("notes", 10**6), encoding="utf-8")
    script = (
        "import sys\n"
        "from greyrank.cli import main\n"
        "print([main(['solve', sys.argv[1], '--format', fmt])\n"
        "       for fmt in ('text', 'csv', 'json-report')])\n"
    )
    src = str(Path(greyrank.problem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[2, 2, 2]\n"
    assert done.stderr == f"greyrank: error: {path}: the document is nested too deeply\n" * 3


@pytest.mark.parametrize("fmt", ["text", "csv", "json-report"])
def test_nested_cell_below_the_recursion_limit_is_located(tmp_path, capsysbinary, fmt):
    path = tmp_path / "deep.json"
    path.write_text(_nested_document("cell", 900), encoding="utf-8")
    rc, out, err = run(capsysbinary, "solve", path, "--format", fmt)
    assert (rc, out) == (2, b"")
    assert err.startswith(b"greyrank: error: plan 'G1', attribute 'A1': expected a number, got [[")
    assert err.count(b"\n") == 1
