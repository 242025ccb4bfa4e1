"""Rank construction and weighted Borda fusion of the four method rankings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["BordaConfig", "scores_to_ranks", "weighted_borda"]

TIE_BREAKS = ("normalized-score-sum", "plan-index")


def scores_to_ranks(scores: np.ndarray) -> np.ndarray:
    """Competition ranking, rank 1 for the largest score; ties share the smaller rank.

    Takes a method's finite (n,) score vector, unchecked.
    """
    # 1 + the number of strictly larger scores, in O(n log n) time and O(n) memory
    return 1 + scores.size - np.searchsorted(np.sort(scores), scores, side="right")


@dataclass(frozen=True)
class BordaConfig:
    """Method weights and tie-break rule for the final fusion."""

    method_weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    tie_break: str = "normalized-score-sum"

    def __post_init__(self) -> None:
        w = np.asarray(self.method_weights, dtype=np.float64)
        if w.shape != (4,):
            raise ValidationError(f"expected 4 method weights, got {len(self.method_weights)}")
        if not np.isfinite(w).all():
            raise ValidationError(f"method weights must be finite, got {w.tolist()}")
        if (w < 0).any():
            raise ValidationError("method weights must be nonnegative")
        total = sum(w.tolist())  # a float sum overflows to inf without a warning
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"method weights must sum to 1, got {total}")
        if self.tie_break not in TIE_BREAKS:
            raise ValidationError(
                f"unknown tie-break rule {self.tie_break!r}; expected one of {TIE_BREAKS}"
            )


def weighted_borda(
    scores: np.ndarray, config: BordaConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rank each method's scores and fuse the four rankings by weighted Borda points.

    Each plan collects ``weight * (n - rank)`` from every method. Ties on
    Borda points are broken by the configured rule: the sum of min-max
    normalized method scores (flat methods contribute nothing), then plan
    index; or plan index alone. The final ranking is a strict 1..n order, with
    the Borda and tie-break scores returned so residual ties stay visible.

    Takes the (4, n) scores ``score_all_methods`` returns, unchecked, and
    returns ``(ranks, final_ranks, borda, tiebreak)``: the (4, n) per-method
    competition ranks, then three (n,) arrays.
    """
    n = scores.shape[1]
    ranks = np.array([scores_to_ranks(s) for s in scores])
    borda, tiebreak = np.zeros(n), np.zeros(n)
    for w, s, r in zip(config.method_weights, scores, ranks):
        borda += w * (n - r)
        span = float(s.max() - s.min())
        if config.tie_break == "normalized-score-sum" and span > 0:
            tiebreak += (s - s.min()) / span
    # lexsort reads its keys last to first: Borda points, tie-break, plan index
    order = np.lexsort((np.arange(n), -tiebreak, -borda))
    final_ranks = np.empty(n, dtype=np.int64)
    final_ranks[order] = np.arange(1, n + 1)
    return ranks, final_ranks, borda, tiebreak
