"""Rank construction and weighted Borda fusion of the four method rankings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .evaluate import MethodScores

__all__ = ["BordaConfig", "RankResult", "scores_to_ranks", "weighted_borda"]

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
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"method weights must sum to 1, got {w.sum()}")
        if self.tie_break not in TIE_BREAKS:
            raise ValidationError(
                f"unknown tie-break rule {self.tie_break!r}; expected one of {TIE_BREAKS}"
            )


@dataclass
class RankResult:
    """Final ranking with the Borda and tie-break scores behind it."""

    final_ranks: np.ndarray
    borda_scores: np.ndarray
    tiebreak_scores: np.ndarray

    @property
    def order(self) -> np.ndarray:
        """Plan indices, best first."""
        return np.argsort(self.final_ranks, kind="stable")


def _normalized_score_sums(per_method: Sequence["MethodScores"]) -> np.ndarray:
    n = len(per_method[0].scores)
    total = np.zeros(n)
    for ms in per_method:
        s = ms.scores
        span = float(s.max() - s.min())
        if span > 0:
            total += (s - s.min()) / span
    return total


def weighted_borda(
    per_method: Sequence["MethodScores"], config: BordaConfig | None = None
) -> RankResult:
    """Fuse four method rankings by weighted Borda points.

    Each plan collects ``weight * (n - rank)`` from every method. Ties on
    Borda points are broken by the configured rule: the sum of min-max
    normalized method scores (flat methods contribute nothing), then plan
    index; or plan index alone. The final ranking is a strict 1..n order, with
    the Borda and tie-break scores reported so residual ties stay visible.

    Takes the four method results ``score_all_methods`` returns, unchecked.
    """
    config = config or BordaConfig()
    n = len(per_method[0].ranks)
    borda = np.zeros(n)
    for w, ms in zip(config.method_weights, per_method):
        borda += w * (n - ms.ranks)
    if config.tie_break == "normalized-score-sum":
        tiebreak = _normalized_score_sums(per_method)
    else:
        tiebreak = np.zeros(n)
    # lexsort reads its keys last to first: Borda points, tie-break, plan index
    order = np.lexsort((np.arange(n), -tiebreak, -borda))
    final_ranks = np.empty(n, dtype=np.int64)
    final_ranks[order] = np.arange(1, n + 1)
    return RankResult(final_ranks=final_ranks, borda_scores=borda, tiebreak_scores=tiebreak)
