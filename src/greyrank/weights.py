"""Attribute weighting: subjective intervals, two objective methods, and
their multiplicative composite.

The subjective weight of each attribute is the envelope [min, max] over the
expert weight vectors. Two objective weightings are computed from the
normalized matrix: a deviation-maximizing weight (each attribute in
proportion to its total pairwise plan deviation) and four entropy weights
(one per tuple component). Their coordinatewise envelope is the objective
interval weight, and the final weight is the normalized interval product of
subjective and objective.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import pairwise_deviation_sums
from .errors import DegenerateProblemError, ValidationError

__all__ = [
    "WeightBundle",
    "comprehensive_objective",
    "deviation_totals",
    "entropy_weight_table",
    "entropy_weights",
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
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != 4:
        raise ValidationError(f"expected a (n, m, 4) matrix, got shape {x.shape}")
    return pairwise_deviation_sums(x)


def optimization_weights(x: np.ndarray) -> np.ndarray:
    """Deviation-maximizing weights renormalized to sum to one."""
    totals = deviation_totals(x)
    total = float(totals.sum())
    if total <= 0:
        raise DegenerateProblemError(
            "all plans are identical in every attribute; deviation weights undefined"
        )
    return totals / total


def entropy_weights(x: np.ndarray, component: int) -> np.ndarray:
    """Entropy weights of one tuple component (1-based, 1..4).

    Each column of the chosen component is turned into a distribution over
    plans; attributes are weighted by one minus their normalized Shannon
    entropy, so flat columns get zero weight. An all-zero column is treated
    as the limit of a flat one and also gets zero weight. If every column
    ends up weightless the weights fall back to uniform with a warning.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != 4:
        raise ValidationError(f"expected a (n, m, 4) matrix, got shape {x.shape}")
    if component not in (1, 2, 3, 4):
        raise ValidationError(f"component must be in 1..4, got {component}")
    v = x[:, :, component - 1]
    n, m = v.shape
    if (v < 0).any():
        raise ValidationError("entropy weights require nonnegative values")
    if n == 1:
        # A single plan carries no dispersion information.
        warnings.warn("single plan: entropy weights fall back to uniform", stacklevel=2)
        return np.full(m, 1.0 / m)
    col_sums = v.sum(axis=0)
    p = v / np.where(col_sums > 0, col_sums, 1.0)
    plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    entropy = -plogp.sum(axis=0) / np.log(n)
    entropy = np.where(col_sums > 0, entropy, 1.0)
    eta = np.clip(1.0 - entropy, 0.0, None)
    eta_sum = float(eta.sum())
    if eta_sum <= 1e-15:
        warnings.warn(
            "all attribute columns are flat: entropy weights fall back to uniform",
            stacklevel=2,
        )
        return np.full(m, 1.0 / m)
    return eta / eta_sum


def entropy_weight_table(x: np.ndarray) -> np.ndarray:
    """Entropy weights for all four tuple components, shape (4, m)."""
    return np.stack([entropy_weights(x, k) for k in (1, 2, 3, 4)])


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
    """Every weight vector the pipeline derives, kept for reporting."""

    alpha: np.ndarray  # (m, 2) (lo, hi) rows, like beta_interval and w_final
    beta_opt: np.ndarray
    beta_ent: np.ndarray  # (4, m)
    beta_interval: np.ndarray
    w_final: np.ndarray
