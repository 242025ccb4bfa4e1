"""Attribute weighting: subjective intervals, two objective methods, and
their multiplicative composite.

The subjective weight of each attribute is the envelope [min, max] over the
expert weight vectors. Two objective weightings are computed from the
normalized matrix: a deviation-maximizing weight (each attribute in
proportion to its total pairwise plan deviation) and four entropy weights
(one per tuple component). Their coordinatewise envelope is the objective
interval weight, and the final weight is the normalized interval product of
subjective and objective. ``run_pipeline`` keeps the derived weights as the
``beta_opt``, ``beta_ent``, ``beta_interval`` and ``w_final`` fields of its
``Report``; the subjective ones are ``problem.subjective``. Both objective
weightings return ``(weights, notes)``: a weighting without signal falls back
to uniform, with a note. Each function takes what parsing or the step before
it produces and checks its shape no more.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._kernels import pairwise_deviation_sums
from .errors import DegenerateProblemError, ValidationError

__all__ = [
    "comprehensive_objective",
    "entropy_weight_table",
    "final_weights",
    "optimization_weights",
    "subjective_interval_weights",
]


def _interval_rows(w: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    """``w``, (m, 2) (lo, hi) rows, checked to be finite with 0 <= lo <= hi;
    row ``j`` is the weight of attribute ``ids[j]``."""
    ok = np.isfinite(w).all(axis=1) & (0.0 <= w[:, 0]) & (w[:, 0] <= w[:, 1])
    if not ok.all():
        j = int(np.argmin(ok))
        raise ValidationError(
            f"interval weight of attribute {ids[j]!r} needs finite 0 <= lo <= hi: {w[j].tolist()}"
        )
    return w


def subjective_interval_weights(expert_vectors: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    """Coordinatewise [min, max] envelope over the expert weight vectors, (m, 2).

    Takes the (k, m) expert vectors ``parse_problem_dict`` reads, unchecked,
    and the ids of their attributes.
    """
    envelope = expert_vectors.min(axis=0), expert_vectors.max(axis=0)
    return _interval_rows(np.column_stack(envelope), ids)


def optimization_weights(x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Deviation-maximizing weights renormalized to sum to one, and notes;
    uniform, with one note, when all plans are identical.

    Takes the (n, m, 4) matrix ``normalize_matrix`` returns, unchecked.
    """
    # The weights are a ratio of totals, so an exact power of two cancels; it
    # keeps the squared distances of huge entries finite.
    totals = pairwise_deviation_sums(np.ldexp(x, -np.frexp(np.abs(x).max())[1]))
    total = float(totals.sum())
    if total <= 0:
        return np.full(len(totals), 1.0 / len(totals)), [
            "deviation-based weights degenerate (all plans identical); "
            "used uniform weights instead"
        ]
    return totals / total, []


def entropy_weight_table(x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Entropy weights of all four tuple components, shape (4, m), and notes.

    Each column of a component is turned into a distribution over plans;
    attributes are weighted by one minus their normalized Shannon entropy, so
    flat and all-zero columns get zero weight. A component whose columns are
    all weightless, and each component of a single plan, is uniform with a note.

    Takes the (n, m, 4) matrix ``normalize_matrix`` returns, unchecked.
    """
    n, m, _ = x.shape
    uniform = np.full(m, 1.0 / m)
    if n == 1:
        # A single plan carries no dispersion information.
        return np.tile(uniform, (4, 1)), ["single plan: entropy weights fall back to uniform"] * 4
    # A column of n equal entries, all-zero ones included, has entropy exactly
    # 1; computed, it comes out 1 plus or minus rounding noise. Every other
    # column has a positive sum.
    top = x.max(axis=0)
    equal = x.min(axis=0) == top
    # A column's distribution is scale-free, and an exact power of two per
    # column keeps the sum of huge entries finite.
    x = np.ldexp(x, -np.frexp(top)[1])
    p = x / np.where(equal, 1.0, x.sum(axis=0))
    plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    entropy = np.where(equal, 1.0, -plogp.sum(axis=0) / np.log(n))
    # Rows of a contiguous (4, m) table sum in the order a lone (m,) vector does.
    eta = np.ascontiguousarray(np.clip(1.0 - entropy, 0.0, None).T)
    eta_sums = eta.sum(axis=1, keepdims=True)
    flat = eta_sums == 0
    table = np.where(flat, uniform, eta / np.where(flat, 1.0, eta_sums))
    notes = ["all attribute columns are flat: entropy weights fall back to uniform"]
    return table, notes * int(flat.sum())


def comprehensive_objective(
    beta_opt: np.ndarray, beta_ent: np.ndarray, ids: Sequence[str]
) -> np.ndarray:
    """Envelope [min, max] over the five objective weight candidates, (m, 2).

    Takes the two objective weightings of one matrix. Errors name attribute
    ``ids[j]``.
    """
    cand = np.vstack([beta_opt[None, :], beta_ent])
    return _interval_rows(np.column_stack((cand.min(axis=0), cand.max(axis=0))), ids)


def final_weights(alpha, beta, ids: Sequence[str]) -> np.ndarray:
    """Normalized interval product of subjective and objective weights, (m, 2).

    Outer-bound interval division: lower bounds over the sum of upper
    products, upper bounds over the sum of lower products, so every crisp
    instantiation of the inputs lands inside the output intervals. An upper
    bound too large for a float is degenerate. Errors name attribute
    ``ids[j]``.

    Takes ``problem.subjective`` and the ``comprehensive_objective`` envelope.
    """
    alpha, beta = _interval_rows(alpha, ids), _interval_rows(beta, ids)
    # Scaling a column of alpha by a power of two scales each quotient it
    # enters by that power, exactly unless it underflows; the powers are
    # undone at the end. One power per column, not one for all of alpha, keeps
    # the sums of huge weights finite without making the other column subnormal.
    e_lo, e_hi = np.frexp(alpha.max(axis=0))[1]
    prod_lo, prod_hi = (np.ldexp(alpha, [-e_lo, -e_hi]) * beta).T
    den_hi = float(prod_hi.sum())
    den_lo = float(prod_lo.sum())
    if den_hi <= 0 or den_lo <= 0:
        bound = "lower" if den_lo <= 0 else "upper"
        raise DegenerateProblemError(
            f"composite weights degenerate: no attribute has a nonzero product of its "
            f"{bound} subjective_weights bound and its {bound} objective weight"
        )
    with np.errstate(over="ignore"):
        hi = np.ldexp(prod_hi / den_lo, e_hi - e_lo)
    if not np.isfinite(hi).all():
        j = int(np.argmin(np.isfinite(hi)))
        raise DegenerateProblemError(
            f"interval weight of attribute {ids[j]!r}: the upper bound exceeds the largest float"
        )
    return _interval_rows(np.column_stack((np.ldexp(prod_lo / den_hi, e_lo - e_hi), hi)), ids)
