"""Mutated copies of the bundled fighter problem, solved through ``cli.main``.

Each document either solves, with exit 0 and nothing on stderr, or fails
with exit 2 or 3 and one stderr line that names where the fault is: a plan,
an attribute, a row, or the document key at fault. Any warning is an error
here, so a numpy RuntimeWarning printed before the exit line fails too.
"""

import contextlib
import copy
import io
import json
import math
import re
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from greyrank.cli import main
from greyrank.report import FORMATS
from greyrank.values import DEFAULT_ALIASES, canonical_labels

from test_cli import assert_decoding_ignores_format
from test_problem_io import fighter_document

FIGHTER = fighter_document()
N, M = len(FIGHTER["plans"]), len(FIGHTER["attributes"])

KEYS = ("schema", "name", "notes", "plans", "attributes", "matrix", "subjective_weights",
        "preferences", "params", "linguistic_aliases")
PARAMS = ("rho", "theta_plus", "theta_minus", "borda_weights", "tie_break")
# Where a message may say the fault is. Messages prefix the stage a solve
# failed in ("stage weights: ..."), and params errors say "params: ...".
LOCATION = re.compile(
    r"\bplan '|\battribute ('|\d)|\brow \d|\bexpert (vector )?\d"
    rf"|\b({'|'.join(KEYS + PARAMS)})\b|top-level keys"
)

# Finite and nonnegative, these make valid but extreme cells, weights and tuples.
EXTREMES = [0, -0.0, 5e-324, 1e-310, 1e-300, 0.5, 1, 2**53 + 1, 3610, 1e300, 1.7e308]
NUMBERS = EXTREMES + [-1, -1.7e308, 10**400, math.inf, -math.inf, math.nan]
JUNK = [True, None, "1", [], {}, [1, 2, 3]]
LABELS = canonical_labels() + sorted(DEFAULT_ALIASES) + ["High", " very  LOW ", "sort of high",
                                                         "", "meh", "Meh"]

numbers = st.sampled_from(NUMBERS)
labels = st.sampled_from(LABELS)
extremes = st.sampled_from(EXTREMES)
anything = st.one_of(numbers, st.sampled_from(JUNK))
cells = st.one_of(
    anything,
    st.builds(lambda v: {"real": v}, anything),
    st.builds(lambda lo, hi: {"interval": [lo, hi]}, numbers, numbers),
    st.builds(lambda b: {"interval": b}, st.lists(anything, max_size=3)),
    st.builds(lambda t: {"ling": t}, st.one_of(labels, anything)),
    st.builds(lambda a, b: {"uncertain": [a, b]}, labels, labels),
    st.builds(lambda p: {"uncertain": p}, st.lists(st.one_of(labels, anything), max_size=3)),
)
VALID_CELLS = {
    "real": extremes,
    "interval": st.lists(extremes, min_size=2, max_size=2).map(lambda b: {"interval": sorted(b)}),
    "linguistic": st.builds(lambda t: {"ling": t}, labels),
    "uncertain-linguistic": st.lists(st.integers(0, 10), min_size=2, max_size=2).map(
        lambda k: {"uncertain": [canonical_labels()[i] for i in sorted(k)]}
    ),
}
pairs = st.lists(extremes, min_size=2, max_size=2).map(sorted)
tuples4 = st.one_of(
    st.lists(extremes, min_size=4, max_size=4).map(sorted),
    st.lists(numbers, min_size=4, max_size=4),
    st.lists(anything, max_size=5),
    anything,
)
aliases = st.one_of(
    st.dictionaries(labels, st.one_of(labels, st.sampled_from(JUNK)), max_size=3), anything
)


def _shrink(doc: dict, keep_plan: int | None, keep_attr: int | None) -> None:
    """Keep one plan, or one attribute, of an unmutated document."""
    if keep_plan is not None:
        for key in ("plans", "matrix", "preferences"):
            doc[key] = [doc[key][keep_plan]]
    if keep_attr is not None:
        doc["attributes"] = [doc["attributes"][keep_attr]]
        doc["matrix"] = [[row[keep_attr]] for row in doc["matrix"]]
        intervals = doc["subjective_weights"]["intervals"]
        doc["subjective_weights"]["intervals"] = [intervals[keep_attr]]


@st.composite
def mutated_fighters(draw) -> dict:
    doc = copy.deepcopy(FIGHTER)
    shape = draw(st.sampled_from(["same", "same", "equal-rows", "one-plan", "one-attribute"]))
    if shape == "equal-rows":
        doc["matrix"] = [copy.deepcopy(doc["matrix"][draw(st.integers(0, N - 1))])] * N
    elif shape == "one-plan":
        _shrink(doc, draw(st.integers(0, N - 1)), None)
    elif shape == "one-attribute":
        _shrink(doc, None, draw(st.integers(0, M - 1)))
    n, m = len(doc["plans"]), len(doc["attributes"])
    for _ in range(draw(st.integers(1, 3))):
        site = draw(st.sampled_from(
            ["cell", "cell", "column", "preference", "param", "subjective", "experts",
             "aliases", "attribute"]
        ))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        # half the cells are valid for their column, if extreme
        kind = doc["attributes"][j]["kind"]
        cell = cells if kind not in VALID_CELLS or draw(st.booleans()) else VALID_CELLS[kind]
        if site == "cell":
            doc["matrix"][i] = list(doc["matrix"][i])
            doc["matrix"][i][j] = draw(cell)
        elif site == "column":
            value = draw(cell)
            doc["matrix"] = [row[:j] + [value] + row[j + 1:] for row in doc["matrix"]]
        elif site == "preference":
            doc["preferences"][i] = draw(tuples4)
        elif site == "param":
            doc["params"][draw(st.sampled_from(PARAMS + ("unknown",)))] = draw(st.one_of(
                st.sampled_from([5e-324, 1e-300, 0.5, 1 - 2**-53, 1]),
                anything,
                st.lists(numbers, min_size=4, max_size=4),
            ))
        elif site == "subjective":
            doc["subjective_weights"] = {"intervals": copy.deepcopy(
                doc["subjective_weights"].get("intervals", [[0.1, 0.2]] * m)
            )}
            doc["subjective_weights"]["intervals"][j] = draw(
                st.one_of(pairs, st.lists(numbers, min_size=2, max_size=2), anything)
            )
        elif site == "experts":
            doc["subjective_weights"] = {"experts": draw(st.lists(
                st.lists(st.one_of(extremes, st.floats(0, 1), numbers), min_size=m, max_size=m),
                min_size=1, max_size=2,
            ))}
        elif site == "aliases":
            doc["linguistic_aliases"] = draw(aliases)
        else:
            field = draw(st.sampled_from(["kind", "direction"]))
            doc["attributes"][j] = dict(doc["attributes"][j], **{field: draw(st.sampled_from(
                ["real", "interval", "linguistic", "uncertain-linguistic", "benefit", "cost",
                 None, 3]
            ))})
    # last, as the sites above index into the document's keys
    if draw(st.integers(0, 4)) == 0:
        key = draw(st.sampled_from(KEYS + ("unknown",)))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(anything)
    return doc


def fighter_with(**changes) -> dict:
    doc = copy.deepcopy(FIGHTER)
    doc.update(changes)
    return doc


def fighter_cell(i: int, j: int, cell) -> dict:
    doc = copy.deepcopy(FIGHTER)
    doc["matrix"][i][j] = cell
    return doc


def fighter_preference(i: int, entry) -> dict:
    doc = copy.deepcopy(FIGHTER)
    doc["preferences"][i] = entry
    return doc


def fighter_interval(j: int, pair) -> dict:
    doc = copy.deepcopy(FIGHTER)
    doc["subjective_weights"]["intervals"][j] = pair
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_fighters(), st.sampled_from(FORMATS))
# a huge normalized interval: its squared distances in the deviation kernel
@example(fighter_cell(4, 2, {"interval": [1e-310, 1.7e308]}), "text")
# a huge preference, blended and then scaled by an upper weight above 2
@example(fighter_preference(3, [0, 0.1, 0.2, 1.7e308]), "text")
# the exact upper weight of this attribute exceeds the largest float
@example(fighter_interval(8, [1e-300, 1.7e308]), "text")
# all lower subjective bounds zero: the composite weights are undefined
@example(fighter_with(subjective_weights={"intervals": [[0, 0.1]] * M}), "text")
# every plan alike: the deviation weights fall back to uniform
@example(fighter_with(matrix=[FIGHTER["matrix"][0]] * N), "json-report")
# huge normalized values whose column sum in the entropy weights is not finite
@example(fighter_with(matrix=[row[:2] + [{"interval": [int(i == 0), 1.7e308]}] + row[3:]
                              for i, row in enumerate(FIGHTER["matrix"])]), "text")
# the only attribute with a positive subjective lower bound has a zero objective one
@example(fighter_with(
    matrix=[FIGHTER["matrix"][4]] + [FIGHTER["matrix"][4][:1] + [0] + FIGHTER["matrix"][4][2:]]
    + [FIGHTER["matrix"][4]] * (N - 2),
    subjective_weights={"intervals": [[0, 0.1]] * 5 + [[0.1, 0.2]] + [[0, 0.1]] * (M - 6)},
), "text")
# two alias keys that fold to one spelling
@example(fighter_with(linguistic_aliases={"Meh": "low", "meh": "high"}), "text")
# an unknown label with an alias that shadows a built-in spelling
@example(dict(fighter_cell(0, 5, {"ling": "sort of high"}), linguistic_aliases={"high": "low"}),
         "text")
def test_mutated_fighter_solves_or_fails_located(tmp_path_factory, doc, fmt):
    folder = tmp_path_factory.getbasetemp()
    path, out = folder / "fuzz.json", folder / "fuzz.out"
    path.write_text(json.dumps(doc), encoding="utf-8")
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        rc = main(["solve", str(path), "--format", fmt, "--out", str(out)])
    err = stderr.getvalue()
    if rc == 0:
        assert err == ""
        return
    assert rc in (2, 3), (rc, err)
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert LOCATION.search(err.split(": ", 2)[-1]), err


@settings(max_examples=100, deadline=None)
@given(mutated_fighters())
def test_mutated_fighter_decodes_alike_in_every_format(tmp_path_factory, doc):
    # json.dumps writes NaN, Infinity and 10**400 as literals; every format
    # reads them, or fails on them, alike
    folder = tmp_path_factory.getbasetemp()
    path = folder / "decode.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_decoding_ignores_format(path, folder / "decode.out")
