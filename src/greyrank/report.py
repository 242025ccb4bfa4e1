"""Render a pipeline :class:`~greyrank.pipeline.Report` as text, CSV, or JSON.

The one module that knows the output formats, the json-report schema included.
All three renderers are deterministic: the same report always produces the
same bytes, so outputs can be diffed or checked into golden files.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .errors import ValidationError
from .pipeline import Report
from .problem import DecisionProblem
from .values import term_indices

__all__ = ["FORMATS", "emit_report", "render_text", "render_csv", "render_json"]

FORMATS = ("text", "csv", "json-report")


def _fmt(value: float) -> str:
    return f"{float(value):.6f}"


def _ranking_line(plans: list[str], ranks: np.ndarray) -> str:
    """Render a ranking as ``G2 > G5 = G1 > G3``, ties joined with ``=``."""
    order = sorted(range(len(plans)), key=lambda i: (ranks[i], i))
    parts = [plans[order[0]]]
    for prev, cur in zip(order, order[1:]):
        parts.append("=" if ranks[cur] == ranks[prev] else ">")
        parts.append(plans[cur])
    return " ".join(parts)


def render_text(report: Report) -> str:
    lines: list[str] = []
    out = lines.append
    problem = report.problem

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

    out("interval weights (subjective x objective):")
    out(f"  {'attribute':<12} {'alpha':>19} {'beta':>19} {'final':>19}")
    for j, attr in enumerate(problem.attributes):
        a = problem.subjective[j]
        b = report.weights.beta_interval[j]
        w = report.weights.w_final[j]
        out(
            f"  {attr.id:<12} [{a[0]:.4f}, {a[1]:.4f}]  "
            f"[{b[0]:.4f}, {b[1]:.4f}]  [{w[0]:.4f}, {w[1]:.4f}]"
        )
    out("")

    out("method scores (rows are plans):")
    header = f"  {'plan':<10}" + "".join(f"{ms.method:>16}" for ms in report.methods)
    out(header)
    for i, plan in enumerate(problem.plans):
        row = f"  {plan:<10}" + "".join(f"{_fmt(ms.scores[i]):>16}" for ms in report.methods)
        out(row)
    out("")

    gp, gm = report.incidence["gplus"], report.incidence["gminus"]
    out("incidence degrees against the ideals:")
    out(f"  {'plan':<10}{'positive':>16}{'negative':>16}")
    for i, plan in enumerate(problem.plans):
        out(f"  {plan:<10}{_fmt(gp[i]):>16}{_fmt(gm[i]):>16}")
    out(
        "  max-entropy pair weights: "
        f"beta1 = {_fmt(report.incidence['beta1'])}, "
        f"beta2 = {_fmt(report.incidence['beta2'])}"
    )
    out("")

    for ms in report.methods:
        out(f"ranking ({ms.method}): " + _ranking_line(problem.plans, ms.ranks))
    out("")

    out("weighted borda:")
    out(f"  {'plan':<10}{'borda':>12}{'tiebreak':>12}{'final rank':>12}")
    for i, plan in enumerate(problem.plans):
        out(
            f"  {plan:<10}{_fmt(report.result.borda_scores[i]):>12}"
            f"{_fmt(report.result.tiebreak_scores[i]):>12}"
            f"{report.result.final_ranks[i]:>12d}"
        )
    out("")
    out("final ranking: " + " > ".join(report.final_order))
    out("")
    return "\n".join(lines)


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    problem = report.problem

    def section(title: str) -> None:
        buf.write(f"# {title}\n")

    section("parameters")
    writer.writerow(["key", "value"])
    writer.writerow(["name", problem.name])
    writer.writerow(["rho", repr(problem.params.rho)])
    writer.writerow(["theta_plus", repr(problem.params.theta_plus)])
    writer.writerow(["theta_minus", repr(problem.params.theta_minus)])
    writer.writerow(
        ["borda_weights", " ".join(repr(w) for w in problem.borda.method_weights)]
    )
    writer.writerow(["tie_break", problem.borda.tie_break])
    writer.writerow(["subjective_source", problem.subjective_source])
    for key, value in sorted(problem.aliases.items()):
        writer.writerow(["alias", f"{key} -> {value}"])
    for note in report.notes:
        writer.writerow(["note", note])
    buf.write("\n")

    section("attributes")
    writer.writerow(["id", "kind", "direction"])
    for attr in problem.attributes:
        writer.writerow([attr.id, attr.kind, attr.direction])
    buf.write("\n")

    section("normalized")
    writer.writerow(["plan", "attribute", "x1", "x2", "x3", "x4"])
    for i, plan in enumerate(problem.plans):
        for j, attr in enumerate(problem.attributes):
            writer.writerow([plan, attr.id] + [_fmt(v) for v in report.normalized[i, j]])
    buf.write("\n")

    section("weights")
    writer.writerow(
        ["attribute", "alpha_lo", "alpha_hi", "beta_opt",
         "beta_ent_1", "beta_ent_2", "beta_ent_3", "beta_ent_4",
         "beta_lo", "beta_hi", "w_lo", "w_hi"]
    )
    for j, attr in enumerate(problem.attributes):
        a = problem.subjective[j]
        b = report.weights.beta_interval[j]
        w = report.weights.w_final[j]
        writer.writerow(
            [attr.id, _fmt(a[0]), _fmt(a[1]), _fmt(report.weights.beta_opt[j])]
            + [_fmt(report.weights.beta_ent[k, j]) for k in range(4)]
            + [_fmt(b[0]), _fmt(b[1]), _fmt(w[0]), _fmt(w[1])]
        )
    buf.write("\n")

    section("ideal_vectors")
    writer.writerow(["attribute", "bound", "y1", "y2", "y3", "y4"])
    for j, attr in enumerate(problem.attributes):
        writer.writerow([attr.id, "positive"] + [_fmt(v) for v in report.ideals.positive[j]])
        writer.writerow([attr.id, "negative"] + [_fmt(v) for v in report.ideals.negative[j]])
    buf.write("\n")

    section("incidence")
    writer.writerow(["plan", "gplus", "gminus"])
    gp, gm = report.incidence["gplus"], report.incidence["gminus"]
    for i, plan in enumerate(problem.plans):
        writer.writerow([plan, _fmt(gp[i]), _fmt(gm[i])])
    writer.writerow(["beta1", _fmt(report.incidence["beta1"]), ""])
    writer.writerow(["beta2", _fmt(report.incidence["beta2"]), ""])
    buf.write("\n")

    for ms in report.methods:
        section(f"method {ms.method}")
        writer.writerow(["plan", "score", "rank"])
        for i, plan in enumerate(problem.plans):
            writer.writerow([plan, _fmt(ms.scores[i]), int(ms.ranks[i])])
        buf.write("\n")

    section("borda")
    writer.writerow(["plan", "borda_score", "tiebreak_score", "final_rank"])
    for i, plan in enumerate(problem.plans):
        writer.writerow(
            [plan, _fmt(report.result.borda_scores[i]),
             _fmt(report.result.tiebreak_scores[i]), int(report.result.final_ranks[i])]
        )
    buf.write("\n")

    section("final_ranking")
    writer.writerow(["position", "plan"])
    for pos, plan in enumerate(report.final_order, start=1):
        writer.writerow([pos, plan])

    return buf.getvalue()


def _matrix_rows(problem: DecisionProblem) -> list:
    """Matrix cells from ``raw``; a term as the first label, canonical first, that parses to it."""
    name = {k: s for s, k in reversed(term_indices(problem.aliases).items())}
    column = {  # term indices are floats; they hash like the int keys of name
        "real": lambda col: [lo for lo, _ in col],
        "interval": lambda col: [{"interval": pair} for pair in col],
        "linguistic": lambda col: [{"ling": name[lo]} for lo, _ in col],
        "uncertain-linguistic": lambda col: [{"uncertain": [name[lo], name[hi]]} for lo, hi in col],
    }
    cols = problem.raw.transpose(1, 0, 2).tolist()
    return list(zip(*(column[a.kind](col) for a, col in zip(problem.attributes, cols))))


def render_json(report: Report) -> str:
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
        "normalized": report.normalized.tolist(),
        "weights": {
            "alpha": problem.subjective.tolist(),
            "beta_opt": report.weights.beta_opt.tolist(),
            "beta_ent": report.weights.beta_ent.tolist(),
            "beta_interval": report.weights.beta_interval.tolist(),
            "final": report.weights.w_final.tolist(),
        },
        "weighted": report.weighted.tolist(),
        "ideal_vectors": {
            "positive": report.ideals.positive.tolist(),
            "negative": report.ideals.negative.tolist(),
        },
        "incidence": {
            "gplus": report.incidence["gplus"].tolist(),
            "gminus": report.incidence["gminus"].tolist(),
            "beta1": float(report.incidence["beta1"]),
            "beta2": float(report.incidence["beta2"]),
        },
        "methods": [
            {"method": ms.method, "scores": ms.scores.tolist(), "ranks": ms.ranks.tolist()}
            for ms in report.methods
        ],
        "borda": {
            "scores": report.result.borda_scores.tolist(),
            "tiebreak": report.result.tiebreak_scores.tolist(),
            "final_ranks": report.result.final_ranks.tolist(),
        },
        "final_ranking": report.final_order,
    }
    # The problem as a document that solve parses back to an equal problem.
    echo = {key: doc[key] for key in
            ("schema", "name", "plans", "attributes", "params", "linguistic_aliases")}
    given = problem.subjective if problem.experts is None else problem.experts
    echo["subjective_weights"] = {problem.subjective_source: given.tolist()}
    echo["matrix"] = _matrix_rows(problem)
    echo["preferences"] = problem.preferences.tolist()
    if problem.notes is not None:
        echo["notes"] = problem.notes
    doc["problem"] = echo
    # one line: with no indent, json.dumps runs CPython's C encoder
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def emit_report(report: Report, fmt: str = "text") -> bytes:
    """Render ``report`` in the requested format and return UTF-8 bytes."""
    if fmt == "text":
        text = render_text(report)
    elif fmt == "csv":
        text = render_csv(report)
    elif fmt == "json-report":
        text = render_json(report)
    else:
        raise ValidationError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
    return text.encode("utf-8")
