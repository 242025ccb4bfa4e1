"""Whole-pipeline relations that follow from the method's symmetries.

Each property solves a problem and a transformed copy of it in process and
compares the two reports; the json-report's problem echo is one such copy.
The problems are the bundled fighter problem and a 90-plan tile of it with
jittered crisp values, which is past the one-block threshold of the
deviation kernel (m * n**2 > 2**16).
"""

import copy
import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyrank import parse_problem_dict, run_pipeline
from greyrank.cli import main

from test_problem_io import fighter_document


def _tile(copies: int) -> dict:
    """Fighter repeated ``copies`` times, each real and interval value jittered by up to 10%."""
    doc = fighter_document()
    rng = random.Random(f"tile:{copies}")
    kinds = [a["kind"] for a in doc["attributes"]]
    matrix = []
    for _ in range(copies):
        for row in doc["matrix"]:
            jitter = [rng.uniform(0.9, 1.1) for _ in row]
            matrix.append([
                cell * f if kind == "real"
                else {"interval": [v * f for v in cell["interval"]]} if kind == "interval"
                else cell
                for cell, kind, f in zip(row, kinds, jitter)
            ])
    doc["plans"] = [f"G{i + 1}" for i in range(len(matrix))]
    doc["matrix"] = matrix
    doc["preferences"] = doc["preferences"] * copies
    return doc


BASES = {"fighter": fighter_document(), "tile-90": _tile(18)}


@functools.cache
def _solved(name: str):
    return run_pipeline(parse_problem_dict(BASES[name]))


def _crisp_values(doc: dict, j: int) -> list[float]:
    return [v for row in doc["matrix"]
            for v in (row[j]["interval"] if isinstance(row[j], dict) else [row[j]])]


@pytest.mark.parametrize("name", BASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scaling_a_crisp_column_by_a_power_of_two_changes_nothing(name, data):
    # The interval rule is scale-free and normalize scales by exact powers of
    # two, so the normalized matrix and every score are bit-identical.
    doc = copy.deepcopy(BASES[name])
    for j, attr in enumerate(doc["attributes"]):
        if attr["kind"] not in ("real", "interval"):
            continue
        values = _crisp_values(doc, j)
        # keep every value a normal float: 2**-1022 <= v * 2**k < 2**1024
        top, bottom = math.frexp(max(values))[1], math.frexp(min(values))[1]
        k = data.draw(st.integers(min_value=-1021 - bottom, max_value=1024 - top), f"k{j}")
        for row in doc["matrix"]:
            cell = row[j]
            row[j] = ({"interval": [math.ldexp(v, k) for v in cell["interval"]]}
                      if isinstance(cell, dict) else math.ldexp(cell, k))
    want, got = _solved(name), run_pipeline(parse_problem_dict(doc))
    assert np.array_equal(got.normalized, want.normalized)
    for g, w in zip(got.methods, want.methods):
        assert np.array_equal(g.scores, w.scores), g.method


@pytest.mark.parametrize("name", BASES)
def test_linguistic_column_normalizes_like_an_equal_uncertain_pair(name):
    # a term k is the range [k, k]: both kinds read the same triangle twice
    doc = copy.deepcopy(BASES[name])
    for j, attr in enumerate(doc["attributes"]):
        if attr["kind"] == "linguistic":
            attr["kind"] = "uncertain-linguistic"
            for row in doc["matrix"]:
                row[j] = {"uncertain": [row[j]["ling"]] * 2}
    want, got = _solved(name), run_pipeline(parse_problem_dict(doc))
    assert np.array_equal(got.normalized, want.normalized)
    for g, w in zip(got.methods, want.methods):
        assert np.array_equal(g.scores, w.scores), g.method


@pytest.mark.parametrize("name", BASES)
def test_json_report_solves_back_to_the_same_bytes(name, tmp_path, capsysbinary):
    # the report's problem echo, solved again, writes the report again
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(BASES[name]), encoding="utf-8")
    assert main(["solve", str(path), "--format", "json-report"]) == 0
    first = capsysbinary.readouterr().out
    path.write_bytes(first)
    assert main(["solve", str(path), "--format", "json-report"]) == 0
    assert capsysbinary.readouterr().out == first
