"""Render a pipeline :class:`~greyrank.pipeline.Report` as text, CSV, or JSON.

The one module that knows the output formats, the json-report schema included.
All three renderers are deterministic: the same report always produces the
same bytes, so outputs can be diffed or checked into golden files.

The text report writes each table from one ``%`` template: ``_rows`` fills
it from the ``.tolist()`` columns of the table's arrays, so every line is one
string formatting, six decimals a float (``"%16.6f" % v`` is
``("%.6f" % v).rjust(16)``). Names and other free text enter a template only
as its arguments. ``_plan_table`` lays out the plan tables. CSV writes every
section, header, rows and blank line, through one ``section``, one
``csv.writer`` row per line, its floats formatted a column at a time by
``_fmt``; ``_keyed_rows`` puts key columns before a table of floats. Both
read the per-plan columns from one ``_plan_columns`` array, and name the
methods, one per row of ``report.scores`` and ``report.ranks``, by ``METHODS``.
orjson writes the json-report from the report's arrays, each float in the
shortest form that reads back to the same value, one top-level field at a
time: ``emit_report`` with a destination writes each field there before it
makes the next, so it never holds more than one field's bytes. In its problem
echo, every cell of one term, or of one pair of terms, is one shared dict;
``_matrix_rows`` fills all the columns of a cell kind at once, by one index
or one assignment, into one object array of cells that it lists once. The
cells exist only while the echo's field is made.
"""

from __future__ import annotations

import csv
import io
from typing import BinaryIO, Callable

import numpy as np

from .errors import ValidationError
from .evaluate import METHODS
from .pipeline import Report
from .problem import DecisionProblem
from .values import term_indices

__all__ = ["FORMATS", "emit_report", "render_json"]

FORMATS = ("text", "csv", "json-report")


def _fmt(values) -> list[str]:
    """Every entry to six decimals, in C order; the strings ``f"{v:.6f}"`` gives."""
    return ["%.6f" % v for v in np.ravel(values).tolist()]


def _rows(template: str, *columns) -> map:
    """``template`` filled from each row of ``columns``, read across: one string per row."""
    return map(template.__mod__, zip(*columns))


def _plan_columns(report: Report) -> np.ndarray:
    """The per-plan columns, one row each: the four method scores, then gplus,
    gminus, borda and tiebreak."""
    return np.vstack([report.scores, report.gplus, report.gminus, report.borda, report.tiebreak])


def _ranking_line(plans: list[str], ranks: np.ndarray) -> str:
    """Render a ranking as ``G2 > G5 = G1 > G3``, ties joined with ``=``."""
    order = np.argsort(ranks, kind="stable")  # ties keep plan index order
    parts = [""] * (2 * len(order) - 1)  # the plans, and a separator between each two
    parts[0::2] = map(plans.__getitem__, order.tolist())
    # np.diff, not ==: an integer == would be the first in a solve, and it
    # maps 128 KiB more of numpy's code, which every solve's peak RSS shows
    parts[1::2] = map((" = ", " > ").__getitem__, np.diff(ranks[order]).astype(bool).tolist())
    return "".join(parts)


def _plan_table(plans: list[str], head: list[str], width: int, cells: list[str],
                columns: list[list]) -> list[str]:
    """A header and one line per plan: the plan left in 10, then each column
    right in ``width``, converted as its entry of ``cells`` says (``".6f"``, ``"d"``)."""
    header = ("  %-10s" + f"%{width}s" * len(head)) % ("plan", *head)
    return [header, *_rows("  %-10s" + "".join(f"%{width}{c}" for c in cells), plans, *columns)]


def render_text(report: Report) -> str:
    lines: list[str] = []
    out = lines.append
    problem = report.problem
    plans = problem.plans

    out(f"greyrank report: {problem.name}")
    out(f"plans: {problem.n_plans}   attributes: {problem.n_attributes}")
    out("")
    out("parameters in force:")
    out(f"  rho = {problem.params.rho:g}")
    out(
        f"  theta_plus = {problem.params.theta_plus:g}   "
        f"theta_minus = {problem.params.theta_minus:g}"
    )
    out(
        "  borda method weights = "
        + ", ".join(f"{w:g}" for w in problem.borda.method_weights)
    )
    out(f"  tie break = {problem.borda.tie_break}")
    out(f"  subjective weights from: {problem.subjective_source}")
    if problem.aliases:
        pairs = ", ".join(f"{k!r} -> {v!r}" for k, v in sorted(problem.aliases.items()))
        out(f"  linguistic aliases: {pairs}")
    out(
        "  attribute directions: "
        + ", ".join(f"{a.id}={a.direction}" for a in problem.attributes)
    )
    if report.notes:
        out("notes:")
        for note in report.notes:
            out(f"  - {note}")
    out("")

    # The header is not aligned with the rows; these bytes are fixed by the goldens.
    out("interval weights (subjective x objective):")
    out(f"  {'attribute':<12} {'alpha':>19} {'beta':>19} {'final':>19}")
    lines += _rows("  %-12s [%.4f, %.4f]  [%.4f, %.4f]  [%.4f, %.4f]",
                   [a.id for a in problem.attributes],
                   *np.column_stack([problem.subjective, report.beta_interval,
                                     report.w_final]).T.tolist())
    out("")

    *scores, gplus, gminus, borda, tiebreak = _plan_columns(report).tolist()
    out("method scores (rows are plans):")
    lines += _plan_table(plans, list(METHODS), 16, [".6f"] * 4, scores)
    out("")

    beta1, beta2 = _fmt([report.beta1, report.beta2])
    out("incidence degrees against the ideals:")
    lines += _plan_table(plans, ["positive", "negative"], 16, [".6f"] * 2, [gplus, gminus])
    out(f"  max-entropy pair weights: beta1 = {beta1}, beta2 = {beta2}")
    out("")

    for method, ranks in zip(METHODS, report.ranks):
        out(f"ranking ({method}): " + _ranking_line(plans, ranks))
    out("")

    out("weighted borda:")
    lines += _plan_table(plans, ["borda", "tiebreak", "final rank"], 12, [".6f", ".6f", "d"],
                         [borda, tiebreak, report.final_ranks.tolist()])
    out("")
    out("final ranking: " + " > ".join(report.final_order))
    out("")
    return "\n".join(lines)


def _keyed_rows(keys: list[list], values) -> zip:
    """One CSV row per entry of the ``keys`` columns: its keys, then its row of
    ``values``, reshaped to one row per key, to six decimals."""
    return zip(*keys, *map(_fmt, np.reshape(values, (len(keys[0]), -1)).T))


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    problem = report.problem
    plans, attrs = problem.plans, problem.attributes
    ids = [a.id for a in attrs]

    def section(title: str, head: list[str], rows) -> None:
        buf.write(f"# {title}\n")
        writer.writerow(head)
        writer.writerows(rows)
        buf.write("\n")

    section("parameters", ["key", "value"], [
        ["name", problem.name],
        ["rho", repr(problem.params.rho)],
        ["theta_plus", repr(problem.params.theta_plus)],
        ["theta_minus", repr(problem.params.theta_minus)],
        ["borda_weights", " ".join(repr(w) for w in problem.borda.method_weights)],
        ["tie_break", problem.borda.tie_break],
        ["subjective_source", problem.subjective_source],
        *(["alias", f"{key} -> {value}"] for key, value in sorted(problem.aliases.items())),
        *(["note", note] for note in report.notes),
    ])
    section("attributes", ["id", "kind", "direction"],
            [[a.id, a.kind, a.direction] for a in attrs])
    section("normalized", ["plan", "attribute", "x1", "x2", "x3", "x4"], _keyed_rows(
        [[p for p in plans for _ in attrs], ids * len(plans)], report.normalized))
    section("weights", ["attribute", "alpha_lo", "alpha_hi", "beta_opt",
                        "beta_ent_1", "beta_ent_2", "beta_ent_3", "beta_ent_4",
                        "beta_lo", "beta_hi", "w_lo", "w_hi"],
            _keyed_rows([ids], np.column_stack(
                [problem.subjective, report.beta_opt, report.beta_ent.T, report.beta_interval,
                 report.w_final])))
    section("ideal_vectors", ["attribute", "bound", "y1", "y2", "y3", "y4"], _keyed_rows(
        [[a for a in ids for _ in range(2)], ["positive", "negative"] * len(ids)],
        np.stack([report.positive, report.negative], axis=1)))

    *scores, gplus, gminus, borda, tiebreak = map(_fmt, _plan_columns(report))
    beta1, beta2 = _fmt([report.beta1, report.beta2])
    section("incidence", ["plan", "gplus", "gminus"],
            [*zip(plans, gplus, gminus), ["beta1", beta1, ""], ["beta2", beta2, ""]])
    for method, col, ranks in zip(METHODS, scores, report.ranks.tolist()):
        section(f"method {method}", ["plan", "score", "rank"], zip(plans, col, ranks))
    section("borda", ["plan", "borda_score", "tiebreak_score", "final_rank"],
            zip(plans, borda, tiebreak, report.final_ranks.tolist()))
    section("final_ranking", ["position", "plan"], enumerate(report.final_order, start=1))
    return buf.getvalue()[:-1]  # no blank line after the last section


def _matrix_rows(problem: DecisionProblem) -> list:
    """Matrix cells from ``raw``; a term as the first label, canonical first, that parses to it.

    Every cell of one term, or of one pair of terms, is the same dict, looked
    up by term index offset from -5..5 to 0..10. An alias can leave an index
    with no spelling at all (``{"high": "low"}``); its label is ``None``, and
    no cell holds that index.
    """
    name = {k: s for s, k in reversed(term_indices(problem.aliases).items())}
    labels = [name.get(k) for k in range(-5, 6)]
    ling = np.array([{"ling": a} for a in labels], dtype=object)
    uncertain = np.array([[{"uncertain": [a, b]} for b in labels] for a in labels], dtype=object)

    raw = problem.raw
    columns: dict[str, list[int]] = {}
    for j, attr in enumerate(problem.attributes):
        columns.setdefault(attr.kind, []).append(j)
    cells = np.empty(raw.shape[:2], dtype=object)
    if js := columns.get("real"):
        cells[:, js] = raw[:, js, 0]  # as Python floats
    if js := columns.get("interval"):
        pairs = raw[:, js].tolist()
        cells[:, js] = np.array([[{"interval": p} for p in row] for row in pairs], dtype=object)
    if js := columns.get("linguistic"):
        cells[:, js] = ling[raw[:, js, 0].astype(np.intp) + 5]
    if js := columns.get("uncertain-linguistic"):
        term = raw[:, js].astype(np.intp) + 5
        cells[:, js] = uncertain[term[..., 0], term[..., 1]]
    return cells.tolist()


def _problem_echo(problem: DecisionProblem, doc: dict) -> dict:
    """The problem as a document that solve parses back to an equal problem."""
    echo = {key: doc[key] for key in
            ("schema", "name", "plans", "attributes", "params", "linguistic_aliases")}
    given = problem.subjective if problem.experts is None else problem.experts
    echo["subjective_weights"] = {problem.subjective_source: given}
    echo["matrix"] = _matrix_rows(problem)
    echo["preferences"] = problem.preferences
    if problem.notes is not None:
        echo["notes"] = problem.notes
    return echo


def _write_json(report: Report, write: Callable[[bytes], object]) -> int:
    """Write the json-report part by part through ``write``; return its size in bytes.

    The parts are ``{``, then ``"key":`` and the value of each top-level key
    in sorted order, then ``}`` and a newline: together, the bytes one
    ``orjson.dumps`` of the whole report with sorted keys would give. Each
    part is written before the next is made, and the problem echo, whose
    matrix cells are the largest set of Python objects in a render, exists
    only while its part is made.
    """
    import orjson  # loaded here, so that importing the CLI or a text or CSV solve never does

    problem = report.problem
    doc = {
        "schema": 1,
        "name": problem.name,
        "plans": problem.plans,
        "attributes": [
            {"id": a.id, "kind": a.kind, "direction": a.direction} for a in problem.attributes
        ],
        "params": {
            "rho": problem.params.rho,
            "theta_plus": problem.params.theta_plus,
            "theta_minus": problem.params.theta_minus,
            "borda_weights": list(problem.borda.method_weights),
            "tie_break": problem.borda.tie_break,
        },
        "linguistic_aliases": problem.aliases,
        "subjective_source": problem.subjective_source,
        "notes": report.notes,
        "normalized": report.normalized,
        "weights": {
            "alpha": problem.subjective,
            "beta_opt": report.beta_opt,
            "beta_ent": report.beta_ent,
            "beta_interval": report.beta_interval,
            "final": report.w_final,
        },
        "weighted": report.weighted,
        "ideal_vectors": {"positive": report.positive, "negative": report.negative},
        "incidence": {
            "gplus": report.gplus,
            "gminus": report.gminus,
            "beta1": report.beta1,
            "beta2": report.beta2,
        },
        "methods": [
            {"method": method, "scores": scores, "ranks": ranks}
            for method, scores, ranks in zip(METHODS, report.scores, report.ranks)
        ],
        "borda": {
            "scores": report.borda,
            "tiebreak": report.tiebreak,
            "final_ranks": report.final_ranks,
        },
        "final_ranking": report.final_order,
    }
    # Arrays are written straight from their buffers; one that is not
    # C-contiguous goes through default, as a list.
    options = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
    size, sep = 2, b"{"  # 2: the closing brace and newline
    for key in sorted([*doc, "problem"]):
        head = b'%s"%s":' % (sep, key.encode())
        write(head)
        # the echo is made as an argument, so it is freed as soon as its bytes are
        part = orjson.dumps(_problem_echo(problem, doc) if key == "problem" else doc[key],
                            default=np.ndarray.tolist, option=options)
        write(part)
        size += len(head) + len(part)
        sep = b","
        del part  # before the next part is made
    write(b"}\n")
    return size


def render_json(report: Report) -> bytes:
    """The json-report: one line of UTF-8 JSON, keys sorted, a newline at the end."""
    return emit_report(report, "json-report")


def emit_report(report: Report, fmt: str, out: BinaryIO | None = None) -> bytes | range:
    """Render ``report`` in the requested format as UTF-8 bytes.

    Without ``out``, return the bytes. With ``out``, a binary file, write them
    to it instead, the json-report one top-level field at a time (see
    ``_write_json``), and return ``range(n)`` for the ``n`` bytes written: its
    ``len()`` is the report's size, as that of the bytes would be, and it
    holds none of them.
    """
    if fmt not in FORMATS:
        raise ValidationError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
    sink = io.BytesIO() if out is None else out
    if fmt == "json-report":
        size = _write_json(report, sink.write)
    else:
        data = (render_text(report) if fmt == "text" else render_csv(report)).encode("utf-8")
        sink.write(data)
        size = len(data)
    return sink.getvalue() if out is None else range(size)
