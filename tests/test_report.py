import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from greyrank import (
    DegenerateProblemError,
    ValidationError,
    emit_report,
    fighter_problem_path,
    load_fighter_problem,
    parse_problem_dict,
    run_pipeline,
)
from greyrank.report import render_csv, render_json, render_text

from test_problem_io import MINIMAL


@pytest.fixture(scope="module")
def toy_report():
    return run_pipeline(parse_problem_dict(copy.deepcopy(MINIMAL)))


def test_text_report_sections(toy_report):
    text = render_text(toy_report)
    assert text.startswith("greyrank report: toy")
    assert "parameters in force:" in text
    assert "attribute directions: A1=benefit, A2=cost, A3=benefit, A4=benefit" in text
    for name in ("topsis", "grey-approach", "membership", "max-entropy"):
        assert f"ranking ({name}): " in text
    assert "final ranking: " in text


def test_text_report_renders_ties_with_equals():
    data = copy.deepcopy(MINIMAL)
    data["matrix"][1] = copy.deepcopy(data["matrix"][0])
    data["preferences"][1] = list(data["preferences"][0])
    report = run_pipeline(parse_problem_dict(data))
    text = render_text(report)
    assert "ranking (topsis): P1 = P2" in text
    # the fused ranking stays strict even under a full tie
    assert "final ranking: P1 > P2" in text


def test_csv_report_structure(toy_report):
    csv_text = render_csv(toy_report)
    for section in (
        "# parameters",
        "# attributes",
        "# normalized",
        "# weights",
        "# ideal_vectors",
        "# incidence",
        "# method topsis",
        "# method max-entropy",
        "# borda",
        "# final_ranking",
    ):
        assert f"{section}\n" in csv_text
    assert csv_text.count("plan,score,rank") == 4


def test_json_report_is_sorted_and_complete(toy_report):
    payload = json.loads(render_json(toy_report))
    assert payload["schema"] == 1
    assert list(payload) == sorted(payload)
    assert payload["problem"]["schema"] == 1
    assert len(payload["methods"]) == 4
    assert payload["final_ranking"] == [
        toy_report.problem.plans[i] for i in toy_report.result.order
    ]
    # normalized and weighted tables have full (n, m, 4) shape
    assert len(payload["normalized"]) == 2
    assert len(payload["normalized"][0]) == 4
    assert len(payload["normalized"][0][0]) == 4


def test_emit_report_bytes_and_unknown_format(toy_report):
    assert emit_report(toy_report, "text").decode().startswith("greyrank report")
    assert emit_report(toy_report, "csv") == render_csv(toy_report).encode()
    with pytest.raises(ValidationError, match="format"):
        emit_report(toy_report, "yaml")


def test_renderers_are_deterministic(toy_report):
    for render in (render_text, render_csv, render_json):
        assert render(toy_report) == render(toy_report)


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_fighter_json_report_is_one_compact_line():
    out = emit_report(run_pipeline(load_fighter_problem()), "json-report").decode()
    assert out == json.dumps(json.loads(out), separators=(",", ":"), sort_keys=True) + "\n"
    assert out.count("\n") == 1


def test_json_report_floats_read_back_exactly():
    # Fighter tiled 30 times is past the one-block threshold (m * n^2 > 2^16).
    # With zero lower preferences its weighted values reach below 1e-4, where
    # orjson spells a float (0.0000118) unlike repr (1.18e-05). Every float
    # must read back exactly.
    doc = json.loads(fighter_problem_path().read_text())
    doc["plans"] = [f"{p}-{t}" for t in range(30) for p in doc["plans"]]
    doc["matrix"] *= 30
    doc["preferences"] = [[0.0, 0.0, *q[2:]] for q in doc["preferences"]] * 30
    report = run_pipeline(parse_problem_dict(doc))
    assert ((0 < report.weighted) & (report.weighted < 1e-4)).any()
    out = json.loads(emit_report(report, "json-report"))
    w = report.weights
    arrays = {
        ("normalized",): report.normalized, ("weighted",): report.weighted,
        ("weights", "alpha"): report.problem.subjective, ("weights", "beta_opt"): w.beta_opt,
        ("weights", "beta_ent"): w.beta_ent, ("weights", "beta_interval"): w.beta_interval,
        ("weights", "final"): w.w_final, ("ideal_vectors", "positive"): report.ideals.positive,
        ("ideal_vectors", "negative"): report.ideals.negative,
        ("incidence", "gplus"): report.incidence["gplus"],
        ("incidence", "gminus"): report.incidence["gminus"],
        ("borda", "scores"): report.result.borda_scores,
        ("borda", "tiebreak"): report.result.tiebreak_scores,
        ("borda", "final_ranks"): report.result.final_ranks,
        ("problem", "preferences"): report.problem.preferences,
    }
    for keys, values in arrays.items():
        got = out
        for key in keys:
            got = got[key]
        assert got == values.tolist(), keys
    for got, ms in zip(out["methods"], report.methods):
        assert got["scores"] == ms.scores.tolist() and got["ranks"] == ms.ranks.tolist()
    assert [out["incidence"]["beta1"], out["incidence"]["beta2"]] == [
        report.incidence["beta1"], report.incidence["beta2"]]


def test_json_report_refuses_a_non_finite_weighted_value(toy_report):
    # orjson would write it as null; the report names the cell instead
    weighted = toy_report.weighted.copy()
    weighted[1, 2, 3] = np.inf
    with pytest.raises(DegenerateProblemError,
                       match=r"plan 'P2', attribute 'A3': weighted value \[.*inf\] is not"):
        render_json(dataclasses.replace(toy_report, weighted=weighted))


def test_json_report_writes_arrays_that_are_not_c_contiguous(toy_report):
    # DecisionProblem is public, so its arrays may be views in any layout
    problem = toy_report.problem
    fortran = dataclasses.replace(problem, subjective=np.asfortranarray(problem.subjective))
    assert not fortran.subjective.flags.c_contiguous
    assert render_json(dataclasses.replace(toy_report, problem=fortran)) == render_json(toy_report)


def _fighter_x3():
    """Fighter tiled three times, plans G1a..G5a, G1b..G5b, G1c..G5c: every
    method ties each plan with its copies, which are not adjacent by index."""
    doc = json.loads(fighter_problem_path().read_text())
    doc["plans"] = [f"{p}{t}" for t in "abc" for p in doc["plans"]]
    doc["matrix"] *= 3
    doc["preferences"] *= 3
    return parse_problem_dict(doc)


@pytest.mark.parametrize("name", ["fighter", "fighter-x3"])
def test_fighter_reports_match_golden(name):
    # a refactor must not move a byte of the text or CSV report; the
    # json-report is left out, as its last float digits follow summation order
    load = {"fighter": load_fighter_problem, "fighter-x3": _fighter_x3}[name]
    report = run_pipeline(load())
    assert emit_report(report, "text") == (GOLDEN / f"{name}.txt").read_bytes()
    assert emit_report(report, "csv") == (GOLDEN / f"{name}.csv").read_bytes()
