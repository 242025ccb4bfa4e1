"""Independent reference implementations used to cross-check closed forms.

Everything here is deliberately written the slow, obvious way (plain loops,
grid/line searches) so it shares no code path with the package internals.
``loop_normalize_matrix`` is the column-by-column normalization that the
one-pass ``normalize_matrix`` replaced; it shares the term triangles and the
interval rule's mantissa-and-exponent scaling, so it checks the one pass's
vectorization and error order, not that scaling. ``exact_interval_rule``, the
interval rule in ``Fraction`` arithmetic, checks the scaling.
``loop_matrix_bounds``, ``loop_preferences`` and ``loop_experts`` are the
cell-by-cell parse that the one-pass parse replaced; they share the per-cell,
per-entry and per-vector validators, which the parse keeps as its error
locators. ``loop_matrix_rows`` is the json-report's matrix echo built one
column and one cell at a time, as before its cells were shared and gathered
a kind at a time; it shares the label table. ``loop_render_text`` is the
text report formatted one cell at a time, padded with ``rjust`` and joined
per row, as before each table was written from one row template.
``loop_render_csv`` is the CSV report with each row built from its keys and
its own cells, where ``render_csv`` formats a whole column at a time.
``broadcast_grid_sums`` is the deviation kernel's block loop as it was before
each block's grid was computed in one reused buffer: it shares
``distance_grid``'s default path and the block size, so it checks that the
buffered loop gives the same bits, not the distances themselves.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from greyrank._kernels import _SLAB, distance_grid
from greyrank.errors import DegenerateProblemError, ValidationError
from greyrank.evaluate import METHODS
from greyrank.normalize import _TRIANGLES, AttributeSpec
from greyrank.problem import _parse_cell, _parse_expert, _parse_preference
from greyrank.values import term_indices


def brute_deviation_coefficients(x: np.ndarray) -> np.ndarray:
    """Per-attribute total pairwise 4-tuple distance, one plan at a time
    against every plan: no sorting, counting or blocking."""
    c = np.zeros(x.shape[1])
    for row in x:
        c += np.sqrt(((row - x) ** 2).sum(-1)).sum(0)
    return c


def deviation_objective(x: np.ndarray, beta: np.ndarray) -> float:
    """D(beta) = sum_j beta_j * total pairwise deviation of column j."""
    return float(brute_deviation_coefficients(x) @ np.asarray(beta, dtype=float))


def projected_ascent_beta(
    x: np.ndarray, *, rng: np.random.Generator, starts: int = 5, iters: int = 400
) -> np.ndarray:
    """Maximize D(beta) on {sum beta^2 = 1, beta >= 0} by projected ascent.

    The objective is linear, so ascent + projection onto the nonnegative
    unit sphere converges fast from any interior start.
    """
    c = brute_deviation_coefficients(x)
    norm_c = np.linalg.norm(c)
    if norm_c == 0:
        raise ValueError("degenerate instance: zero deviation everywhere")
    step = 0.5 / norm_c
    best, best_val = None, -np.inf
    for _ in range(starts):
        beta = rng.random(len(c)) + 1e-3
        beta /= np.linalg.norm(beta)
        for _ in range(iters):
            beta = np.maximum(beta + step * c, 0.0)
            norm = np.linalg.norm(beta)
            if norm == 0:  # pragma: no cover - cannot happen with c >= 0
                beta = np.full(len(c), 1.0 / math.sqrt(len(c)))
                continue
            beta /= norm
        val = float(c @ beta)
        if val > best_val:
            best, best_val = beta, val
    return best


def grid_membership(gplus: float, gminus: float, points: int = 2001) -> float:
    """Minimize F(u) = [(1-u) g+]^2 + [u g-]^2 on [0, 1] by grid + refinement.

    F is an exact quadratic, so the parabola through the best grid point and
    its neighbours recovers the minimizer to machine precision.
    """
    us = np.linspace(0.0, 1.0, points)
    f = ((1.0 - us) * gplus) ** 2 + (us * gminus) ** 2
    k = int(np.argmin(f))
    if k == 0 or k == points - 1:
        return float(us[k])
    h = us[1] - us[0]
    denom = f[k + 1] - 2.0 * f[k] + f[k - 1]
    if denom <= 0:
        return float(us[k])
    return float(us[k] - 0.5 * h * (f[k + 1] - f[k - 1]) / denom)


def line_search_entropy_pair(c1: float, c2: float) -> tuple[float, float]:
    """Maximize H(b) = b c1 + (1-b) c2 - b ln b - (1-b) ln(1-b) on (0, 1).

    Golden-section search; H is strictly concave so the bracket converges
    to the unique maximizer.
    """

    def h(b: float) -> float:
        return b * c1 + (1.0 - b) * c2 - b * math.log(b) - (1.0 - b) * math.log(1.0 - b)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-15, 1.0 - 1e-15
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = h(x1), h(x2)
    while hi - lo > 1e-13:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = h(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = h(x1)
    b1 = 0.5 * (lo + hi)
    return b1, 1.0 - b1


def loop_competition_ranks(scores) -> list[int]:
    """rank(i) = 1 + number of strictly better plans, via plain loops."""
    ranks = []
    for i, s in enumerate(scores):
        better = sum(1 for t in scores if t > s)
        ranks.append(1 + better)
    return ranks


def loop_distance_grid(y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """4-tuple distance from every (plan, attribute) cell to ``ref``, via plain loops."""
    n, m, _ = y.shape
    d = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            d[i, j] = math.dist(y[i, j], ref[j])
    return d


def broadcast_grid_sums(x: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """``_kernels._grid_sums`` with a fresh two-sided broadcast grid per block."""
    n, m, _ = x.shape
    # (m, n, k) over component-major storage: the components of a block's
    # differences are contiguous slabs.
    u = np.ascontiguousarray(x.T).transpose(1, 2, 0)
    w = None if counts is None else np.ascontiguousarray(counts.T)
    rows = max(1, _SLAB // (m * n))
    total = np.zeros(m)
    for s in range(0, n, rows):
        b = min(rows, n - s)
        d = distance_grid(u[:, s:s + b, None, :], u[:, None, s:, :])
        if w is not None:
            d *= w[:, s:s + b, None]
            d *= w[:, None, s:]
        total += d[:, :, :b].sum(axis=(1, 2)) + 2.0 * d[:, :, b:].sum(axis=(1, 2))
    return total


def loop_incidence_grid(y: np.ndarray, ref: np.ndarray, rho: float) -> np.ndarray:
    """Deng incidence coefficients against ``ref``, min/max over the grid."""
    d = loop_distance_grid(y, ref)
    dmin, dmax = d.min(), d.max()
    if dmax <= 0:
        return np.ones_like(d)
    return (dmin + rho * dmax) / (d + rho * dmax)


def loop_topsis(y: np.ndarray) -> np.ndarray:
    """TOPSIS closeness D- / (D+ + D-) over the whole plan row, via plain loops."""
    n, m, _ = y.shape
    best = [[max(y[i, j, k] for i in range(n)) for k in range(4)] for j in range(m)]
    worst = [[min(y[i, j, k] for i in range(n)) for k in range(4)] for j in range(m)]
    scores = np.empty(n)
    for i in range(n):
        cells = [(y[i, j, k], j, k) for j in range(m) for k in range(4)]
        dpos = math.sqrt(sum((v - best[j][k]) ** 2 for v, j, k in cells))
        dneg = math.sqrt(sum((v - worst[j][k]) ** 2 for v, j, k in cells))
        scores[i] = 0.5 if dpos + dneg == 0 else dneg / (dpos + dneg)
    return scores


def random_generalized_matrix(
    rng: np.random.Generator, n: int, m: int, scale: float = 1.0
) -> np.ndarray:
    """Random (n, m, 4) matrix of ascending 4-tuples."""
    return np.sort(rng.random((n, m, 4)) * scale, axis=2)


def exact_interval_rule(lo: Sequence[float], hi: Sequence[float],
                        direction: str) -> list[tuple[Fraction, Fraction]]:
    """The interval rule on one column in exact arithmetic: ``(x_lo, x_hi)`` per row."""
    lo, hi = [Fraction(v) for v in lo], [Fraction(v) for v in hi]
    if direction == "cost":
        lo, hi = [1 / v for v in hi], [1 / v for v in lo]
    return [(a / sum(hi), b / sum(lo)) for a, b in zip(lo, hi)]


def _normalize_interval(lo: np.ndarray, hi: np.ndarray, spec: AttributeSpec) -> np.ndarray:
    cost = spec.direction == "cost"
    if cost and (lo <= 0).any():
        bad = int(np.argmax(lo <= 0))
        raise ValidationError(
            f"attribute {spec.id!r}: cost column requires strictly "
            f"positive values, got {lo[bad]}", row=bad
        )
    if not cost and (lo < 0).any():
        bad = int(np.argmax(lo < 0))
        raise ValidationError(
            f"attribute {spec.id!r}: negative value {lo[bad]} in a "
            f"benefit column is not supported", row=bad
        )
    # The rule is scale-free: each bound is a mantissa and an exponent, v = f * 2^e,
    # and the cost reciprocal 1/v is (1/f) * 2^-e. Each bound sums scaled by its
    # own largest exponent, zeros left out. A value that still overflows is
    # located by normalize_matrix.
    (fa, ea), (fb, eb) = np.frexp(hi if cost else lo), np.frexp(lo if cost else hi)
    if cost:
        fa, ea, fb, eb = 1.0 / fa, -ea, 1.0 / fb, -eb
    a_top, b_top = max(ea[fa != 0], default=0), max(eb[fb != 0], default=0)
    a_sum = np.ldexp(fa, ea - a_top).sum()
    b_sum = np.ldexp(fb, eb - b_top).sum()
    if not cost and a_sum <= 0:
        raise DegenerateProblemError(f"attribute {spec.id!r}: benefit column sums to zero")
    with np.errstate(over="ignore"):
        x_lo = np.ldexp(fa / b_sum, ea - b_top)
        x_hi = np.ldexp(fb / a_sum, eb - a_top)
    return np.stack([x_lo, x_lo, x_hi, x_hi], axis=1)


def _normalize_terms(lo: np.ndarray, hi: np.ndarray, spec: AttributeSpec) -> np.ndarray:
    on_scale = (np.abs(lo) <= 5) & (lo == np.round(lo)) & (np.abs(hi) <= 5) & (hi == np.round(hi))
    if not on_scale.all():
        bad = int(np.argmin(on_scale))
        raise ValidationError(
            f"attribute {spec.id!r}: ({lo[bad]}, {hi[bad]}) is not a pair "
            f"of term indices in -5..5 for kind {spec.kind!r}", row=bad
        )
    if spec.direction == "cost":
        # Mirroring reverses order, so the bounds swap roles. Mirroring the
        # indices keeps the triangles exact, where 1 - t would round.
        lo, hi = -hi, -lo
    a = _TRIANGLES[lo.astype(np.intp) + 5]
    b = _TRIANGLES[hi.astype(np.intp) + 5]
    trap = np.stack([a[:, 0], a[:, 1], b[:, 1], b[:, 2]], axis=1)
    lower_sum = trap[:, 1].sum()
    upper_sum = trap[:, 2].sum()
    if lower_sum <= 0 or upper_sum <= 0:
        raise DegenerateProblemError(
            f"attribute {spec.id!r}: {spec.kind} column midpoints sum to zero"
        )
    return trap / np.array([lower_sum, lower_sum, upper_sum, upper_sum])


def loop_normalize_matrix(raw: np.ndarray, specs: Sequence[AttributeSpec]) -> np.ndarray:
    """Normalize the (n, m, 2) bounds array column by column into shape (n, m, 4).

    Each column's tuples are put in ascending order by one sort. For the
    interval rule and for linguistic columns the components are already
    ordered and the sort only guards against floating-point inversions;
    uncertain columns can produce genuine inversions (a degenerate range next
    to wide ones), which the sort repairs as well. An upper bound too large
    for a float is degenerate, and is reported with its attribute and row.
    An error about one cell carries its row as ``row``.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[1:] != (len(specs), 2):
        raise ValidationError(
            f"expected a bounds array of shape (n, {len(specs)}, 2), got {raw.shape}"
        )
    if raw.shape[0] == 0:
        raise ValidationError("decision matrix has no plans")
    if len(specs) == 0:
        raise ValidationError("decision matrix has no attributes")
    out = np.empty((raw.shape[0], len(specs), 4))
    for j, spec in enumerate(specs):
        lo, hi = raw[:, j, 0], raw[:, j, 1]
        if spec.kind in ("real", "interval"):
            col = _normalize_interval(lo, hi, spec)
        else:
            col = _normalize_terms(lo, hi, spec)
        col = np.sort(col, axis=1)
        if not np.isfinite(col).all():
            raise DegenerateProblemError(
                f"attribute {spec.id!r}: normalized upper bound exceeds the largest float",
                row=int(np.argmin(np.isfinite(col).all(axis=1))),
            )
        out[:, j] = col
    return out


def loop_matrix_bounds(
    matrix: list, plans: list[str], specs: Sequence[AttributeSpec], aliases: dict[str, str]
) -> np.ndarray:
    """The (n, m, 2) cell bounds, one row and then one cell at a time."""
    m, terms = len(specs), term_indices(aliases)
    bounds: list[float] = []
    for i, row in enumerate(matrix):
        if not (isinstance(row, list) and len(row) == m):
            raise ValidationError(f"plan {plans[i]!r}: matrix row must have {m} cells")
        for j, cell in enumerate(row):
            where = f"plan {plans[i]!r}, attribute {specs[j].id!r}"
            bounds.extend(_parse_cell(cell, specs[j].kind, terms, where))
    return np.array(bounds, dtype=np.float64).reshape(len(matrix), m, 2)


def loop_matrix_rows(problem) -> list:
    """The echo of ``problem.raw``, a new list or dict per cell; a term as the
    first label, canonical first, that parses to it."""
    name = {k: s for s, k in reversed(term_indices(problem.aliases).items())}
    column = {  # term indices are floats; they hash like the int keys of name
        "real": lambda col: [lo for lo, _ in col],
        "interval": lambda col: [{"interval": pair} for pair in col],
        "linguistic": lambda col: [{"ling": name[lo]} for lo, _ in col],
        "uncertain-linguistic": lambda col: [{"uncertain": [name[lo], name[hi]]} for lo, hi in col],
    }
    cols = problem.raw.transpose(1, 0, 2).tolist()
    return list(zip(*(column[a.kind](col) for a, col in zip(problem.attributes, cols))))


def loop_preferences(entries: list, plans: list[str]) -> np.ndarray:
    """The (n, 4) preferences, one entry at a time."""
    return np.array(
        [_parse_preference(entry, f"preference for plan {plans[i]!r}")
         for i, entry in enumerate(entries)],
        dtype=np.float64,
    )


def loop_experts(vectors: list, ids: list[str]) -> np.ndarray:
    """The (k, m) expert vectors, one vector at a time."""
    return np.array([_parse_expert(vec, i, ids) for i, vec in enumerate(vectors)],
                    dtype=np.float64)


def _loop_cells(values) -> list[str]:
    return ["%.6f" % v for v in np.ravel(values).tolist()]


def _loop_plan_columns(report) -> list[list[str]]:
    """The four method scores, then gplus, gminus, borda and tiebreak, per cell."""
    columns = [*report.scores, report.gplus, report.gminus, report.borda, report.tiebreak]
    return [_loop_cells(col) for col in np.array(columns)]


def _loop_ranking_line(plans: list[str], ranks: np.ndarray) -> str:
    order = np.argsort(ranks, kind="stable").tolist()  # ties keep plan index order
    rank = ranks.tolist()
    parts = [plans[order[0]]]
    for prev, k in zip(order, order[1:]):
        parts += ["=" if rank[prev] == rank[k] else ">", plans[k]]
    return " ".join(parts)


def _loop_plan_table(plans: list[str], head: list[str], cols: list[list[str]],
                     width: int) -> list[str]:
    rows = zip(["plan", *plans], *([h, *col] for h, col in zip(head, cols)))
    return [f"  {plan:<10}" + "".join([cell.rjust(width) for cell in cells])
            for plan, *cells in rows]


def loop_render_text(report) -> str:
    """The text report, one cell at a time."""
    lines: list[str] = []
    out = lines.append
    problem = report.problem
    plans = problem.plans

    out(f"greyrank report: {problem.name}")
    out(f"plans: {problem.n_plans}   attributes: {problem.n_attributes}")
    out("")
    out("parameters in force:")
    out(f"  rho = {problem.params.rho:g}")
    out(f"  theta_plus = {problem.params.theta_plus:g}   "
        f"theta_minus = {problem.params.theta_minus:g}")
    out("  borda method weights = " + ", ".join(f"{w:g}" for w in problem.borda.method_weights))
    out(f"  tie break = {problem.borda.tie_break}")
    out(f"  subjective weights from: {problem.subjective_source}")
    if problem.aliases:
        pairs = ", ".join(f"{k!r} -> {v!r}" for k, v in sorted(problem.aliases.items()))
        out(f"  linguistic aliases: {pairs}")
    out("  attribute directions: " + ", ".join(f"{a.id}={a.direction}" for a in problem.attributes))
    if report.notes:
        out("notes:")
        for note in report.notes:
            out(f"  - {note}")
    out("")

    out("interval weights (subjective x objective):")
    out(f"  {'attribute':<12} {'alpha':>19} {'beta':>19} {'final':>19}")
    for attr, a, b, w in zip(problem.attributes, problem.subjective.tolist(),
                             report.beta_interval.tolist(), report.w_final.tolist()):
        out(f"  {attr.id:<12} [{a[0]:.4f}, {a[1]:.4f}]  "
            f"[{b[0]:.4f}, {b[1]:.4f}]  [{w[0]:.4f}, {w[1]:.4f}]")
    out("")

    *scores, gplus, gminus, borda, tiebreak = _loop_plan_columns(report)
    out("method scores (rows are plans):")
    lines += _loop_plan_table(plans, list(METHODS), scores, 16)
    out("")

    beta1, beta2 = _loop_cells([report.beta1, report.beta2])
    out("incidence degrees against the ideals:")
    lines += _loop_plan_table(plans, ["positive", "negative"], [gplus, gminus], 16)
    out(f"  max-entropy pair weights: beta1 = {beta1}, beta2 = {beta2}")
    out("")

    for method, ranks in zip(METHODS, report.ranks):
        out(f"ranking ({method}): " + _loop_ranking_line(plans, ranks))
    out("")

    out("weighted borda:")
    final = [str(r) for r in report.final_ranks.tolist()]
    lines += _loop_plan_table(plans, ["borda", "tiebreak", "final rank"],
                              [borda, tiebreak, final], 12)
    out("")
    out("final ranking: " + " > ".join(report.final_order))
    out("")
    return "\n".join(lines)


def loop_render_csv(report) -> str:
    """The CSV report, one ``csv.writer`` row per line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    problem = report.problem
    plans, attrs = problem.plans, problem.attributes

    def section(title: str, head: list[str], rows) -> None:
        buf.write(f"# {title}\n")
        writer.writerow(head)
        writer.writerows(rows)
        buf.write("\n")

    def keyed(keys: list[tuple], values) -> list[list[str]]:
        rows = np.reshape(values, (len(keys), -1))
        return [[*key, *_loop_cells(row)] for key, row in zip(keys, rows)]

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
    section("normalized", ["plan", "attribute", "x1", "x2", "x3", "x4"],
            keyed([(p, a.id) for p in plans for a in attrs], report.normalized))
    section("weights", ["attribute", "alpha_lo", "alpha_hi", "beta_opt",
                        "beta_ent_1", "beta_ent_2", "beta_ent_3", "beta_ent_4",
                        "beta_lo", "beta_hi", "w_lo", "w_hi"],
            keyed([(a.id,) for a in attrs], np.column_stack(
                [problem.subjective, report.beta_opt, report.beta_ent.T, report.beta_interval,
                 report.w_final])))
    section("ideal_vectors", ["attribute", "bound", "y1", "y2", "y3", "y4"],
            keyed([(a.id, bound) for a in attrs for bound in ("positive", "negative")],
                  np.stack([report.positive, report.negative], axis=1)))

    *scores, gplus, gminus, borda, tiebreak = _loop_plan_columns(report)
    beta1, beta2 = _loop_cells([report.beta1, report.beta2])
    section("incidence", ["plan", "gplus", "gminus"],
            [*zip(plans, gplus, gminus), ["beta1", beta1, ""], ["beta2", beta2, ""]])
    for method, col, ranks in zip(METHODS, scores, report.ranks):
        section(f"method {method}", ["plan", "score", "rank"],
                zip(plans, col, ranks.tolist()))
    section("borda", ["plan", "borda_score", "tiebreak_score", "final_rank"],
            zip(plans, borda, tiebreak, report.final_ranks.tolist()))
    section("final_ranking", ["position", "plan"], enumerate(report.final_order, start=1))
    return buf.getvalue()[:-1]  # no blank line after the last section
