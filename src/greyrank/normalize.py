"""Type- and direction-aware normalization of the decision matrix.

The input is the problem's bounds array of shape (n, m, 2): ``(lo, hi)`` for
real and interval cells (a real is ``(v, v)``) and ``(lower, upper)`` term
indices in -5..5 for linguistic and uncertain cells (a single term ``k`` is
``(k, k)``). Every column is normalized against its own column sums, so the
result is dimensionless and scale-invariant. Two rules cover the four kinds:

* interval rule (real and interval columns), lifted to (x_lo, x_lo, x_hi, x_hi)
  = (a_i / sum(b), a_i / sum(b), b_i / sum(a), b_i / sum(a)) with
  (a, b) = (lo, hi) for benefit columns. A cost column is the same rule on the
  reciprocal bounds, (a, b) = (1/hi, 1/lo), which keeps lower <= upper.
  ``interval_rule`` computes it from mantissas and exponents; it has a
  second caller, ``weights.final_weights``, which applies it to the products
  of the subjective and objective weight bounds
* term rule (linguistic and uncertain columns): the index range [a, b] lifts to
  the trapezoid (L_a, M_a, M_b, U_b) spanned by the two terms' triangles, and
  (L_a, M_a) is divided by sum(M_a), (M_b, U_b) by sum(M_b). A linguistic
  term is the range [k, k], whose trapezoid is its triangle (L, M, M, U).

Cost-direction term columns are first mirrored on the scale, [a, b] ->
[-b, -a], and then normalized as benefit columns.

All columns go through one pass of array operations, one rule each, with no
loop over columns. When several columns are bad, the error names the first
of them in column order, with the first check that column fails: a value the
rule cannot take (exit 2), a zero column sum (exit 3), or a result that is
not finite (exit 3). Parsing gives finite bounds, from which only an upper
bound can overflow: lower bounds are at most 1, and the term rule's values
are bounded. An error about one cell carries its plan's index as ``row``;
the pipeline names the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateProblemError, ValidationError
from .values import term_to_triangle

__all__ = ["AttributeSpec", "normalize_matrix"]

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


def interval_rule(f: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The interval rule (a_i / sum(b), b_i / sum(a)) on values v = f * 2^e.

    ``f`` and ``e`` stack the mantissas and exponents of (a, b) as (2, ..., k),
    with each row of ``f`` C-contiguous, so it sums in the pairwise order of a
    lone 1-D row. Returns the (2, ..., k) quotients and the (2, ..., 1) sums of
    a and b, each scaled by its row's largest exponent, that of a zero left
    out: a sum is zero where the rule is undefined. Quotients that divide by a
    zero sum or exceed the largest float are left for the caller to check.
    """
    # The rule is scale-free: each row sums scaled by its own largest exponent,
    # and each quotient undoes the scales in one ldexp. The floor lies below
    # the exponent of any product of two floats, 2 * -1073.
    top = e.max(axis=-1, keepdims=True, where=f != 0, initial=-2200)
    sums = np.ldexp(f, e - top).sum(axis=-1, keepdims=True)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.ldexp(f / sums[::-1], e - top[::-1]), sums


def normalize_matrix(raw: np.ndarray, specs: Sequence[AttributeSpec]) -> np.ndarray:
    """Normalize the (n, m, 2) bounds array into shape (n, m, 4), all columns at once.

    Each cell's tuple is put in ascending order by one sort. For the interval
    rule and for linguistic columns the components are already ordered and
    the sort only guards against floating-point inversions; uncertain columns
    can produce genuine inversions (a degenerate range next to wide ones),
    which the sort repairs as well. An upper bound too large for a float is
    degenerate, and is reported with its attribute and row.

    Takes the bounds and attributes of a problem ``parse_problem_dict`` made, unchecked.
    """
    m, n = len(specs), raw.shape[0]
    # (m, n) views; a masked selection of their rows is a contiguous copy, so each
    # column sums in the pairwise order of a lone 1-D column.
    lo, hi = raw.transpose(2, 1, 0)
    terms = np.array([s.kind not in ("real", "interval") for s in specs])
    cost = np.array([s.direction == "cost" for s in specs])
    bad = np.empty((m, n), dtype=bool)  # values the column's rule cannot take
    zero = np.empty(m, dtype=bool)  # a column sum the rule divides by is not positive
    x = np.empty((n, m, 4))

    # Division by a bad column's sums is harmless: its error is raised below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c, a, b = cost[~terms, None], lo[~terms], hi[~terms]
        bad[~terms] = np.where(c, a <= 0, a < 0)
        # The rule runs on the mantissas and exponents of the bounds (a, b),
        # v = f * 2^e: a cost reciprocal is (1/f) * 2^-e, which never overflows.
        f, e = np.frexp(np.stack([np.where(c, b, a), np.where(c, a, b)]))
        (x_lo, x_hi), sums = interval_rule(np.where(c, 1.0 / f, f), np.where(c, -e, e))
        zero[~terms] = ~c[:, 0] & (sums[0, :, 0] <= 0)
        x[:, ~terms, 0] = x[:, ~terms, 1] = x_lo.T
        x[:, ~terms, 2] = x[:, ~terms, 3] = x_hi.T

        c, a, b = cost[terms, None], lo[terms], hi[terms]
        on_scale = (np.abs(a) <= 5) & (a == np.round(a)) & (np.abs(b) <= 5) & (b == np.round(b))
        bad[terms] = ~on_scale
        # Mirroring reverses order, so the bounds swap roles. Mirroring the
        # indices keeps the triangles exact, where 1 - t would round.
        a, b = np.where(c, -b, a), np.where(c, -a, b)
        a = np.where(on_scale, a, 0).astype(np.intp) + 5
        b = np.where(on_scale, b, 0).astype(np.intp) + 5
        L, M, U = _TRIANGLES.T
        mid_a, mid_b = M[a], M[b]
        sum_a, sum_b = mid_a.sum(axis=1)[:, None], mid_b.sum(axis=1)[:, None]
        zero[terms] = (sum_a[:, 0] <= 0) | (sum_b[:, 0] <= 0)
        x[:, terms, 0], x[:, terms, 1] = (L[a] / sum_a).T, (mid_a / sum_a).T
        x[:, terms, 2], x[:, terms, 3] = (mid_b / sum_b).T, (U[b] / sum_b).T

    x.sort(axis=2)
    failed = bad.any(axis=1) | zero | ~np.isfinite(x).all(axis=0).all(axis=1)
    if not failed.any():
        return x
    j = int(np.argmax(failed))
    spec = specs[j]
    if bad[j].any():
        i = int(np.argmax(bad[j]))
        if terms[j]:
            problem = (f"({lo[j, i]}, {hi[j, i]}) is not a pair of term indices in -5..5 "
                       f"for kind {spec.kind!r}")
        elif cost[j]:
            problem = f"cost column requires strictly positive values, got {lo[j, i]}"
        else:
            problem = f"negative value {lo[j, i]} in a benefit column is not supported"
        raise ValidationError(f"attribute {spec.id!r}: {problem}", row=i)
    if zero[j]:
        what = f"{spec.kind} column midpoints sum" if terms[j] else "benefit column sums"
        raise DegenerateProblemError(f"attribute {spec.id!r}: {what} to zero")
    raise DegenerateProblemError(
        f"attribute {spec.id!r}: normalized upper bound exceeds the largest float",
        row=int(np.argmin(np.isfinite(x[:, j]).all(axis=1))),
    )
