"""Type- and direction-aware normalization of the decision matrix.

The input is the problem's bounds array of shape (n, m, 2): ``(lo, hi)`` for
real and interval cells (a real is ``(v, v)``) and ``(lower, upper)`` term
indices in -5..5 for linguistic and uncertain cells (a single term ``k`` is
``(k, k)``). Every column is normalized against its own column sums, so the
result is dimensionless and scale-invariant. Two rules cover the four kinds:

* interval rule (real and interval columns), lifted to (x_lo, x_lo, x_hi, x_hi):
  benefit lo_i / sum(hi), hi_i / sum(lo); cost takes reciprocals with a bound
  swap, (1/hi_i) / sum(1/lo), (1/lo_i) / sum(1/hi), which keeps lower <= upper
* term rule (linguistic and uncertain columns): the index range [a, b] lifts to
  the trapezoid (L_a, M_a, M_b, U_b) spanned by the two terms' triangles, and
  (L_a, M_a) is divided by sum(M_a), (M_b, U_b) by sum(M_b). A linguistic
  term is the range [k, k], whose trapezoid is its triangle (L, M, M, U).

Cost-direction term columns are first mirrored on the scale, [a, b] ->
[-b, -a], and then normalized as benefit columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateProblemError, ValidationError
from .values import term_to_triangle

__all__ = ["AttributeSpec", "KINDS", "DIRECTIONS", "normalize_matrix"]

KINDS = ("real", "interval", "linguistic", "uncertain-linguistic")
DIRECTIONS = ("benefit", "cost")

_TRIANGLES = np.array([term_to_triangle(k) for k in range(-5, 6)])  # (11, 3) = L, M, U


@dataclass(frozen=True)
class AttributeSpec:
    """Identity, value kind, and optimization direction of one attribute."""

    id: str
    kind: str
    direction: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(
                f"attribute {self.id!r}: unknown kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.direction not in DIRECTIONS:
            raise ValidationError(
                f"attribute {self.id!r}: unknown direction {self.direction!r}; "
                f"expected one of {DIRECTIONS}"
            )


def _normalize_interval(lo: np.ndarray, hi: np.ndarray, spec: AttributeSpec) -> np.ndarray:
    if spec.direction == "cost":
        if (lo <= 0).any():
            bad = int(np.argmax(lo <= 0))
            raise ValidationError(
                f"attribute {spec.id!r}, row {bad}: cost column requires strictly "
                f"positive values, got {lo[bad]}"
            )
        # An overflowing reciprocal is reported by normalize_matrix, located.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            inv_lo_sum = (1.0 / lo).sum()
            inv_hi_sum = (1.0 / hi).sum()
            x_lo = (1.0 / hi) / inv_lo_sum
            x_hi = (1.0 / lo) / inv_hi_sum
    else:
        if (lo < 0).any():
            bad = int(np.argmax(lo < 0))
            raise ValidationError(
                f"attribute {spec.id!r}, row {bad}: negative value {lo[bad]} in a "
                f"benefit column is not supported"
            )
        # The rule is scale-free; an exact power of two keeps huge sums finite.
        e = -np.frexp(hi.max())[1]
        lo, hi = np.ldexp(lo, e), np.ldexp(hi, e)
        lo_sum = lo.sum()
        hi_sum = hi.sum()
        if lo_sum <= 0:
            raise DegenerateProblemError(
                f"attribute {spec.id!r}: benefit column sums to zero"
            )
        x_lo = lo / hi_sum
        x_hi = hi / lo_sum
    return np.stack([x_lo, x_lo, x_hi, x_hi], axis=1)


def _normalize_terms(lo: np.ndarray, hi: np.ndarray, spec: AttributeSpec) -> np.ndarray:
    on_scale = (np.abs(lo) <= 5) & (lo == np.round(lo)) & (np.abs(hi) <= 5) & (hi == np.round(hi))
    if not on_scale.all():
        bad = int(np.argmin(on_scale))
        raise ValidationError(
            f"attribute {spec.id!r}, row {bad}: ({lo[bad]}, {hi[bad]}) is not a pair "
            f"of term indices in -5..5 for kind {spec.kind!r}"
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


def normalize_matrix(raw: np.ndarray, specs: Sequence[AttributeSpec]) -> np.ndarray:
    """Normalize the (n, m, 2) bounds array column by column into shape (n, m, 4).

    Each column's tuples are put in ascending order by one sort. For the
    interval rule and for linguistic columns the components are already
    ordered and the sort only guards against floating-point inversions;
    uncertain columns can produce genuine inversions (a degenerate range next
    to wide ones), which the sort repairs as well. A non-finite result is
    reported with its attribute and row.
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
            bad = int(np.argmin(np.isfinite(col).all(axis=1)))
            raise ValidationError(
                f"attribute {spec.id!r}, row {bad}: normalized value "
                f"{col[bad].tolist()} is not finite"
            )
        out[:, j] = col
    return out
