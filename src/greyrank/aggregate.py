"""Rank construction and weighted Borda fusion of the four method rankings."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .evaluate import MethodScores

__all__ = ["BordaConfig", "RankResult", "TIE_BREAKS", "scores_to_ranks", "weighted_borda"]

TIE_BREAKS = ("normalized-score-sum", "plan-index")


def scores_to_ranks(scores) -> np.ndarray:
    """Competition ranking, rank 1 for the largest score; ties share the smaller rank."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValidationError(f"expected a nonempty score vector, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValidationError("scores contain non-finite entries")
    # 1 + the number of strictly larger scores, in O(n log n) time and O(n) memory
    return 1 + s.size - np.searchsorted(np.sort(s), s, side="right")


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
    """Final ranking with the Borda scores and the per-method inputs."""

    final_ranks: np.ndarray
    borda_scores: np.ndarray
    per_method: list
    tiebreak_scores: np.ndarray = field(default=None)  # type: ignore[assignment]

    @property
    def order(self) -> np.ndarray:
        """Plan indices, best first."""
        return np.argsort(self.final_ranks, kind="stable")


def _normalized_score_sums(per_method: Sequence["MethodScores"]) -> np.ndarray:
    n = len(per_method[0].scores)
    total = np.zeros(n)
    for ms in per_method:
        s = np.asarray(ms.scores, dtype=np.float64)
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
    """
    config = config or BordaConfig()
    if len(per_method) != 4:
        raise ValidationError(f"expected 4 method score sets, got {len(per_method)}")
    n = len(per_method[0].ranks)
    for ms in per_method:
        if len(ms.ranks) != n or len(ms.scores) != n:
            raise ValidationError("method score/rank vectors have mismatched lengths")
    weights = np.asarray(config.method_weights, dtype=np.float64)
    borda = np.zeros(n)
    for w, ms in zip(weights, per_method):
        borda += w * (n - np.asarray(ms.ranks, dtype=np.float64))
    if config.tie_break == "normalized-score-sum":
        tiebreak = _normalized_score_sums(per_method)
    else:
        tiebreak = np.zeros(n)
    order = sorted(range(n), key=lambda i: (-borda[i], -tiebreak[i], i))
    final_ranks = np.empty(n, dtype=np.int64)
    for pos, plan in enumerate(order):
        final_ranks[plan] = pos + 1
    return RankResult(
        final_ranks=final_ranks,
        borda_scores=borda,
        per_method=list(per_method),
        tiebreak_scores=tiebreak,
    )
