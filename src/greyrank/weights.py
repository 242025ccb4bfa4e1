"""Attribute weighting: subjective intervals, two objective methods, and
their multiplicative composite.

The subjective weight of each attribute is the envelope [min, max] over the
expert weight vectors. Two objective weightings are computed from the
normalized matrix: a deviation-maximizing weight (each attribute in
proportion to its total pairwise plan deviation) and four entropy weights
(one per tuple component). Their coordinatewise envelope is the objective
interval weight, and the final weight is the normalized interval product of
subjective and objective: ``normalize.interval_rule`` applied to the weight
products, each taken exactly as a mantissa and an exponent. ``run_pipeline``
keeps the derived weights as the ``beta_opt``, ``beta_ent``, ``beta_interval``
and ``w_final`` fields of its ``Report``; the subjective ones are
``problem.subjective``. Both objective weightings return ``(weights, notes)``:
a weighting without signal falls back to uniform, with a note. Each function
takes what parsing or the step before it produces and checks its shape no
more. Every interval weight this module derives is a (lo, hi) row with
0 <= lo <= hi by construction, unchecked: an envelope is the min and max of
nonnegative weights, and ``final_weights`` returns the larger of each row's
two rounded bounds as its upper bound.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._kernels import pairwise_deviation_sums
from .errors import DegenerateProblemError
from .normalize import interval_rule

__all__ = [
    "comprehensive_objective",
    "entropy_weight_table",
    "final_weights",
    "optimization_weights",
    "subjective_interval_weights",
]


def subjective_interval_weights(expert_vectors: np.ndarray) -> np.ndarray:
    """Coordinatewise [min, max] envelope over the expert weight vectors, (m, 2).

    Takes the (k, m) expert vectors ``parse_problem_dict`` reads, unchecked.
    """
    return np.column_stack((expert_vectors.min(axis=0), expert_vectors.max(axis=0)))


def optimization_weights(x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Deviation-maximizing weights renormalized to sum to one, and notes;
    uniform, with one note, when all plans are identical.

    Takes the nonnegative (n, m, 4) matrix ``normalize_matrix`` returns, unchecked.
    """
    # The weights are a ratio of totals, so an exact power of two cancels; it
    # keeps the squared distances of huge entries finite.
    totals = pairwise_deviation_sums(np.ldexp(x, -np.frexp(x.max())[1]))
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


def comprehensive_objective(beta_opt: np.ndarray, beta_ent: np.ndarray) -> np.ndarray:
    """Envelope [min, max] over the five objective weight candidates, (m, 2).

    Takes the two objective weightings of one matrix, unchecked.
    """
    cand = np.vstack([beta_opt[None, :], beta_ent])
    return np.column_stack((cand.min(axis=0), cand.max(axis=0)))


def final_weights(alpha, beta, ids: Sequence[str]) -> np.ndarray:
    """Normalized interval product of subjective and objective weights, (m, 2).

    Outer-bound interval division: lower bounds over the sum of upper
    products, upper bounds over the sum of lower products, so every crisp
    instantiation of the inputs lands inside the output intervals. An upper
    bound too large for a float is degenerate. Errors name attribute
    ``ids[j]``.

    Takes ``problem.subjective`` and the ``comprehensive_objective`` envelope,
    unchecked.
    """
    # A product of mantissas never underflows or overflows, and its exponent
    # is the sum. np.array lays the (2, m) rows out contiguously.
    (f_a, f_b), (e_a, e_b) = np.frexp(np.array((alpha.T, beta.T)))
    (lo, hi), sums = interval_rule(f_a * f_b, e_a + e_b)
    den_lo, den_hi = sums[:, 0]
    if den_hi <= 0 or den_lo <= 0:
        bound = "lower" if den_lo <= 0 else "upper"
        raise DegenerateProblemError(
            f"composite weights degenerate: no attribute has a nonzero product of its "
            f"{bound} subjective_weights bound and its {bound} objective weight"
        )
    if not np.isfinite(hi).all():
        j = int(np.argmin(np.isfinite(hi)))
        raise DegenerateProblemError(
            f"interval weight of attribute {ids[j]!r}: the upper bound exceeds the largest float"
        )
    # Exactly, hi >= lo; nothing shows the rounded bounds cannot cross.
    return np.column_stack((lo, np.maximum(lo, hi)))
