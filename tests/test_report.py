import copy
import json
from pathlib import Path

import pytest

from greyrank import (
    ValidationError,
    emit_report,
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


def test_fighter_reports_match_golden():
    # a refactor must not move a byte of the text or CSV report; the
    # json-report is left out, as its last float digits follow summation order
    report = run_pipeline(load_fighter_problem())
    assert emit_report(report, "text") == (GOLDEN / "fighter.txt").read_bytes()
    assert emit_report(report, "csv") == (GOLDEN / "fighter.csv").read_bytes()
