"""Attribute weighting: subjective intervals, two objective methods, and
their multiplicative composite.

The subjective weight of each attribute is the envelope [min, max] over the
expert weight vectors. Two objective weightings are computed from the
normalized matrix: a deviation-maximizing weight (each attribute in
proportion to its total pairwise plan deviation) and four entropy weights
(one per tuple component). Their coordinatewise envelope is the objective
interval weight, and the final weight is the normalized interval product of
subjective and objective. :class:`WeightBundle` holds the derived weights, not
``problem.subjective``. Both objective weightings return ``(weights, notes)``:
a weighting without signal falls back to uniform, with a note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import pairwise_deviation_sums
from .errors import DegenerateProblemError, ValidationError
from .evaluate import _check_matrix

__all__ = [
    "WeightBundle",
    "comprehensive_objective",
    "deviation_totals",
    "entropy_weight_table",
    "final_weights",
    "optimization_weights",
    "subjective_interval_weights",
]


def _interval_rows(w) -> np.ndarray:
    """``w`` as an (m, 2) float array of (lo, hi) rows, each finite with 0 <= lo <= hi."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] != 2:
        raise ValidationError(f"expected (m, 2) interval weights, m >= 1, got shape {w.shape}")
    ok = np.isfinite(w).all(axis=1) & (0.0 <= w[:, 0]) & (w[:, 0] <= w[:, 1])
    if not ok.all():
        j = int(np.argmin(ok))
        raise ValidationError(f"interval weight {j} needs finite 0 <= lo <= hi: {w[j].tolist()}")
    return w


def subjective_interval_weights(expert_vectors) -> np.ndarray:
    """Coordinatewise [min, max] envelope over the expert weight vectors, (m, 2)."""
    v = np.asarray(expert_vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ValidationError(
            f"expected a nonempty L x m array of expert weights, got shape {v.shape}"
        )
    return _interval_rows(np.column_stack((v.min(axis=0), v.max(axis=0))))


def deviation_totals(x: np.ndarray) -> np.ndarray:
    """Per-attribute sum of 4-D distances over all ordered plan pairs."""
    return pairwise_deviation_sums(_check_matrix(x))


def optimization_weights(x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Deviation-maximizing weights renormalized to sum to one, and notes;
    uniform, with one note, when all plans are identical."""
    # The weights are a ratio of totals, so an exact power of two cancels; it
    # keeps the squared distances of huge entries finite.
    x = _check_matrix(x)
    totals = deviation_totals(np.ldexp(x, -np.frexp(np.abs(x).max())[1]))
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
    """
    x = _check_matrix(x)
    n, m, _ = x.shape
    if (x < 0).any():
        raise ValidationError("entropy weights require nonnegative values")
    uniform = np.full(m, 1.0 / m)
    if n == 1:
        # A single plan carries no dispersion information.
        return np.tile(uniform, (4, 1)), ["single plan: entropy weights fall back to uniform"] * 4
    col_sums = x.sum(axis=0)
    p = x / np.where(col_sums > 0, col_sums, 1.0)
    plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    entropy = np.where(col_sums > 0, -plogp.sum(axis=0) / np.log(n), 1.0)
    # Rows of a contiguous (4, m) table sum in the order a lone (m,) vector does.
    eta = np.ascontiguousarray(np.clip(1.0 - entropy, 0.0, None).T)
    eta_sums = eta.sum(axis=1, keepdims=True)
    flat = eta_sums <= 1e-15
    table = np.where(flat, uniform, eta / np.where(flat, 1.0, eta_sums))
    notes = ["all attribute columns are flat: entropy weights fall back to uniform"]
    return table, notes * int(flat.sum())


def comprehensive_objective(beta_opt: np.ndarray, beta_ent: np.ndarray) -> np.ndarray:
    """Envelope [min, max] over the five objective weight candidates, (m, 2)."""
    beta_opt = np.asarray(beta_opt, dtype=np.float64)
    beta_ent = np.asarray(beta_ent, dtype=np.float64)
    if beta_ent.shape != (4, beta_opt.shape[0]):
        raise ValidationError(
            f"shape mismatch: beta_opt {beta_opt.shape}, beta_ent {beta_ent.shape}"
        )
    cand = np.vstack([beta_opt[None, :], beta_ent])
    return _interval_rows(np.column_stack((cand.min(axis=0), cand.max(axis=0))))


def final_weights(alpha, beta) -> np.ndarray:
    """Normalized interval product of subjective and objective weights, (m, 2).

    Outer-bound interval division: lower bounds over the sum of upper
    products, upper bounds over the sum of lower products, so every crisp
    instantiation of the inputs lands inside the output intervals.
    """
    alpha, beta = _interval_rows(alpha), _interval_rows(beta)
    if alpha.shape != beta.shape:
        raise ValidationError(f"length mismatch: {len(alpha)} alphas, {len(beta)} betas")
    # The result does not change when alpha is scaled. A power of two is exact
    # unless it underflows, and it keeps the sums of huge weights finite.
    alpha = np.ldexp(alpha, -np.frexp(alpha.max())[1])
    prod_lo, prod_hi = (alpha * beta).T
    den_hi = float(prod_hi.sum())
    den_lo = float(prod_lo.sum())
    if den_hi <= 0 or den_lo <= 0:
        raise DegenerateProblemError(
            "composite weights degenerate: a weight product sum is zero"
        )
    return _interval_rows(np.column_stack((prod_lo / den_hi, prod_hi / den_lo)))


@dataclass
class WeightBundle:
    """The weights the pipeline derives; the subjective ones are ``problem.subjective``."""

    beta_opt: np.ndarray  # (m,)
    beta_ent: np.ndarray  # (4, m)
    beta_interval: np.ndarray  # (m, 2) (lo, hi) rows, like w_final
    w_final: np.ndarray
