import copy
import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greyrank import (
    ValidationError,
    emit_report,
    fighter_problem_path,
    load_fighter_problem,
    parse_problem_dict,
    run_pipeline,
)
from greyrank.report import _matrix_rows, render_csv, render_json, render_text
from greyrank.values import term_indices

from oracles import loop_matrix_rows, loop_render_csv, loop_render_text
from test_problem_io import KINDS, MINIMAL, column_document


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
        toy_report.problem.plans[i] for i in np.argsort(toy_report.final_ranks, kind="stable")
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
    arrays = {
        ("normalized",): report.normalized, ("weighted",): report.weighted,
        ("weights", "alpha"): report.problem.subjective, ("weights", "beta_opt"): report.beta_opt,
        ("weights", "beta_ent"): report.beta_ent,
        ("weights", "beta_interval"): report.beta_interval,
        ("weights", "final"): report.w_final, ("ideal_vectors", "positive"): report.positive,
        ("ideal_vectors", "negative"): report.negative,
        ("incidence", "gplus"): report.gplus,
        ("incidence", "gminus"): report.gminus,
        ("borda", "scores"): report.borda,
        ("borda", "tiebreak"): report.tiebreak,
        ("borda", "final_ranks"): report.final_ranks,
        ("problem", "preferences"): report.problem.preferences,
    }
    for keys, values in arrays.items():
        got = out
        for key in keys:
            got = got[key]
        assert got == values.tolist(), keys
    for got, scores, ranks in zip(out["methods"], report.scores, report.ranks):
        assert got["scores"] == scores.tolist() and got["ranks"] == ranks.tolist()
    assert [out["incidence"]["beta1"], out["incidence"]["beta2"]] == [
        report.beta1, report.beta2]


def test_json_report_writes_arrays_that_are_not_c_contiguous(toy_report):
    # DecisionProblem is public, so its arrays may be views in any layout
    problem = toy_report.problem
    fortran = dataclasses.replace(problem, subjective=np.asfortranarray(problem.subjective))
    assert not fortran.subjective.flags.c_contiguous
    assert render_json(dataclasses.replace(toy_report, problem=fortran)) == render_json(toy_report)


# Problem aliases as a file gives them. The second shadows the canonical
# "general"; the third leaves index 3 with no spelling at all.
ECHO_ALIASES = [
    {},
    {"General": "high", "middling": "general"},
    {"high": "low"},
    {"meh": "ordinary", "Ordinary": "very high"},
]
EDGE_REALS = [0.0, -0.0, 5e-324, -1e-310, 1e-5, 3610.0, -2.5, 1e300, -1.7e308]


@st.composite
def echo_problems(draw):
    """Problems of every cell kind. From 66 plans on, each linguistic column
    names every term and each uncertain column every ordered pair of terms."""
    aliases = draw(st.sampled_from(ECHO_ALIASES))
    n, m = draw(st.sampled_from([(1, 4), (5, 6), (66, 4), (90, 9)]))
    kinds = draw(st.permutations(KINDS)) + draw(st.lists(st.sampled_from(KINDS),
                                                         min_size=m - 4, max_size=m - 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    spellings: dict[int, list[str]] = {}
    for label, k in term_indices(aliases).items():
        spellings.setdefault(k, []).append(label)
    indices = sorted(spellings)
    pairs = [(a, b) for a in indices for b in indices if a <= b]
    start = rng.randrange(len(pairs))

    def cell(kind: str, i: int):
        if kind == "real":
            return rng.choice(EDGE_REALS + [rng.uniform(-1e4, 1e4)])
        if kind == "interval":
            return {"interval": sorted(rng.choice(EDGE_REALS) for _ in range(2))}
        if kind == "linguistic":
            return {"ling": rng.choice(spellings[indices[(start + i) % len(indices)]])}
        lo, hi = pairs[(start + i) % len(pairs)]
        return {"uncertain": [rng.choice(spellings[lo]), rng.choice(spellings[hi])]}

    matrix = [[cell(kind, i) for kind in kinds] for i in range(n)]
    return parse_problem_dict(column_document(kinds, matrix, aliases))


@settings(max_examples=60, deadline=None)
@given(echo_problems())
def test_matrix_echo_matches_the_cell_loop(problem):
    # shared term cells and kind-wide gathers write the bytes a new dict per cell does
    assert orjson.dumps(_matrix_rows(problem)) == orjson.dumps(loop_matrix_rows(problem))


# Names that a template or a CSV writer could get wrong. Parse accepts the empty name.
EDGE_NAMES = ["%s", "%", "%d%%", "a,b", 'say "hi"', "two\rlines", "two\nlines", "  lead",
              "é→ü", "a name longer than ten", "", ",", '"']
names = st.one_of(st.sampled_from(EDGE_NAMES),
                  st.text(st.characters(blacklist_categories=("Cs",)), max_size=14))
REPORT_ALIASES = [{}, {"50%, \"so-so\"": "general", "%s": "high"}]


@st.composite
def report_problems(draw):
    """Problems with edge-case names: one plan, a few, or past the one-block
    threshold (m * n^2 > 2^16), and with every plan tied or not."""
    n, m = draw(st.sampled_from([(1, 4), (5, 6), (90, 9)]))
    pool = draw(st.lists(names, min_size=min(n, 8), max_size=min(n, 8), unique=True))
    plans = pool + [f"{pool[i % len(pool)]}#{i}" for i in range(len(pool), n)]
    ids = draw(st.lists(names, min_size=m, max_size=m, unique=True))
    assume(len(set(plans)) == n)
    kinds = draw(st.permutations(KINDS)) + draw(st.lists(st.sampled_from(KINDS),
                                                         min_size=m - 4, max_size=m - 4))
    aliases = draw(st.sampled_from(REPORT_ALIASES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = term_indices(aliases)
    labels = sorted(label for label, k in terms.items() if abs(k) < 4)  # cost or benefit

    def cell(kind: str):  # midpoints positive, so that every column normalizes
        if kind == "real":
            return rng.uniform(0.5, 10)
        if kind == "interval":
            return {"interval": sorted(rng.uniform(0.5, 10) for _ in range(2))}
        if kind == "linguistic":
            return {"ling": rng.choice(labels)}
        lo, hi = sorted(rng.sample(labels, 2), key=terms.get)
        return {"uncertain": [lo, hi]}

    tied = draw(st.booleans())
    rows = 1 if tied else n
    matrix = [[cell(kind) for kind in kinds] for _ in range(rows)] * (n // rows)
    preferences = [sorted(rng.uniform(0, 1) for _ in range(4)) for _ in range(rows)] * (n // rows)
    doc = column_document(kinds, matrix, aliases, preferences)
    doc["plans"] = plans
    for attr, id_ in zip(doc["attributes"], ids):
        attr.update(id=id_, direction=rng.choice(["benefit", "cost"]))
    doc["name"] = draw(names)
    return parse_problem_dict(doc)


@settings(max_examples=60, deadline=None)
@given(report_problems())
def test_text_and_csv_match_the_cell_by_cell_renderers(problem):
    # one template per text table writes the bytes that per-cell rjust does,
    # and CSV formatted a column at a time those of CSV formatted row by row
    report = run_pipeline(problem)
    assert render_text(report) == loop_render_text(report)
    assert render_csv(report) == loop_render_csv(report)


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
    # a refactor must not move a byte of any report; the json-report pins
    # every float to its last digit, so it also pins the summation order
    load = {"fighter": load_fighter_problem, "fighter-x3": _fighter_x3}[name]
    report = run_pipeline(load())
    assert emit_report(report, "text") == (GOLDEN / f"{name}.txt").read_bytes()
    assert emit_report(report, "csv") == (GOLDEN / f"{name}.csv").read_bytes()
    assert emit_report(report, "json-report") == (GOLDEN / f"{name}.json").read_bytes()


DEVIATION_NOTE = b"deviation-based weights degenerate (all plans identical); used uniform weights instead"
SINGLE_PLAN_NOTE = b"single plan: entropy weights fall back to uniform"
FLAT_NOTE = b"all attribute columns are flat: entropy weights fall back to uniform"


@pytest.mark.parametrize("n, entropy_note", [(1, SINGLE_PLAN_NOTE), (5, FLAT_NOTE)],
                         ids=["fighter-G1-alone", "fighter-rows-all-G1"])
def test_fallback_notes_render_byte_for_byte(n, entropy_note):
    # fighter's plan G1 alone, or five plans that each equal it: one deviation
    # note, then one entropy note per tuple component, in every format
    doc = json.loads(fighter_problem_path().read_text(encoding="utf-8"))
    doc.update(plans=doc["plans"][:n], matrix=[doc["matrix"][0]] * n,
               preferences=[doc["preferences"][0]] * n)
    report = run_pipeline(parse_problem_dict(doc))
    notes = [DEVIATION_NOTE] + [entropy_note] * 4
    text = emit_report(report, "text")
    assert text.count(b"\nnotes:\n") == 1
    assert b"=cost\nnotes:\n" + b"".join(b"  - %s\n" % note for note in notes) \
        + b"\ninterval weights (subjective x objective):\n" in text
    csv_bytes = emit_report(report, "csv")
    assert csv_bytes.count(b"\nnote,") == 5
    assert b"".join(b"\nnote,%s" % note for note in notes) + b"\n\n# attributes\n" in csv_bytes
    assert b'"notes":["' + b'","'.join(notes) + b'"]' in emit_report(report, "json-report")
