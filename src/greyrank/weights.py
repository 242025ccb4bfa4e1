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
from typing import Sequence

import numpy as np

from ._kernels import pairwise_deviation_sums
from .errors import DegenerateProblemError, ValidationError
from .values import IntervalGreyNumber

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


def subjective_interval_weights(expert_vectors) -> list[IntervalGreyNumber]:
    """Coordinatewise [min, max] envelope over the expert weight vectors."""
    v = np.asarray(expert_vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ValidationError(
            f"expected a nonempty L x m array of expert weights, got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise ValidationError("expert weight vectors contain non-finite entries")
    if (v < 0).any():
        raise ValidationError("expert weight vectors must be nonnegative")
    return [IntervalGreyNumber(lo, hi) for lo, hi in zip(v.min(axis=0), v.max(axis=0))]


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


def comprehensive_objective(
    beta_opt: np.ndarray, beta_ent: np.ndarray
) -> list[IntervalGreyNumber]:
    """Envelope [min, max] over the five objective weight candidates."""
    beta_opt = np.asarray(beta_opt, dtype=np.float64)
    beta_ent = np.asarray(beta_ent, dtype=np.float64)
    if beta_ent.shape != (4, beta_opt.shape[0]):
        raise ValidationError(
            f"shape mismatch: beta_opt {beta_opt.shape}, beta_ent {beta_ent.shape}"
        )
    cand = np.vstack([beta_opt[None, :], beta_ent])
    return [IntervalGreyNumber(lo, hi) for lo, hi in zip(cand.min(axis=0), cand.max(axis=0))]


def final_weights(
    alpha: Sequence[IntervalGreyNumber], beta: Sequence[IntervalGreyNumber]
) -> list[IntervalGreyNumber]:
    """Normalized interval product of subjective and objective weights.

    Outer-bound interval division: lower bounds over the sum of upper
    products, upper bounds over the sum of lower products, so every crisp
    instantiation of the inputs lands inside the output intervals.
    """
    if len(alpha) != len(beta):
        raise ValidationError(f"length mismatch: {len(alpha)} alphas, {len(beta)} betas")
    a_lo = np.array([a.lo for a in alpha])
    a_hi = np.array([a.hi for a in alpha])
    b_lo = np.array([b.lo for b in beta])
    b_hi = np.array([b.hi for b in beta])
    prod_lo = a_lo * b_lo
    prod_hi = a_hi * b_hi
    den_hi = float(prod_hi.sum())
    den_lo = float(prod_lo.sum())
    if den_hi <= 0 or den_lo <= 0:
        raise DegenerateProblemError(
            "composite weights degenerate: a weight product sum is zero"
        )
    return [
        IntervalGreyNumber(lo / den_hi, hi / den_lo)
        for lo, hi in zip(prod_lo, prod_hi)
    ]


@dataclass
class WeightBundle:
    """Every weight vector the pipeline derives, kept for reporting."""

    alpha: list[IntervalGreyNumber]
    beta_opt: np.ndarray
    beta_ent: np.ndarray  # (4, m)
    beta_interval: list[IntervalGreyNumber]
    w_final: list[IntervalGreyNumber]

