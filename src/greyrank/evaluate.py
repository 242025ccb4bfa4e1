"""The four plan-scoring methods over the weighted decision matrix.

All four consume the same matrix Y: the normalized matrix blended with the
decision maker's per-plan preference tuples and scaled by the final interval
weights. One (n, m) grid of 4-D distances to each componentwise ideal feeds
all four. TOPSIS scores closeness by the Euclidean norm of each plan's grid
rows; the other three are built on grey incidence degrees, the mean Deng
closeness coefficient of each plan against the positive and negative ideal
vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import distance_grid
from .aggregate import scores_to_ranks
from .errors import DegenerateProblemError, ValidationError

__all__ = [
    "IdealVectors",
    "MethodParams",
    "MethodScores",
    "apply_weights",
    "approach_with_preference",
    "blend_preference",
    "comprehensive_incidence",
    "ideal_vectors",
    "incidence_coefficients",
    "incidence_degrees",
    "max_entropy_weights",
    "membership_degrees",
    "score_all_methods",
    "topsis_scores",
]

@dataclass(frozen=True)
class MethodParams:
    """Shared scoring parameters.

    ``rho`` is the distinguishing coefficient of the incidence coefficient.
    ``theta_plus``/``theta_minus`` bias the grey approach degree toward the
    positive or negative ideal; they must sum to one, and the boundary case
    theta_plus=1, theta_minus=0 switches to the plain positive incidence
    degree.
    """

    rho: float = 0.5
    theta_plus: float = 0.5
    theta_minus: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValidationError(f"rho must lie in (0, 1), got {self.rho}")
        if not (0.0 < self.theta_plus <= 1.0 and 0.0 <= self.theta_minus < 1.0):
            raise ValidationError(
                f"preference coefficients out of range: theta_plus={self.theta_plus}, "
                f"theta_minus={self.theta_minus}"
            )
        if abs(self.theta_plus + self.theta_minus - 1.0) > 1e-9:
            raise ValidationError(
                f"preference coefficients must sum to 1, got "
                f"{self.theta_plus} + {self.theta_minus}"
            )


@dataclass
class MethodScores:
    """One method's score vector and the ranking it induces."""

    method: str
    scores: np.ndarray
    ranks: np.ndarray

    @classmethod
    def from_scores(cls, method: str, scores: np.ndarray) -> "MethodScores":
        scores = np.asarray(scores, dtype=np.float64)
        return cls(method=method, scores=scores, ranks=scores_to_ranks(scores))


@dataclass
class IdealVectors:
    """Componentwise best and worst rows of the weighted matrix, per attribute."""

    positive: np.ndarray  # (m, 4)
    negative: np.ndarray  # (m, 4)


def _check_matrix(y: np.ndarray, ndim: int = 3) -> np.ndarray:
    """``y`` as a nonempty float array of shape (n, m, 4), or (n, m) if ``ndim`` is 2."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != ndim or y.shape[2:] not in ((), (4,)) or 0 in y.shape:
        shape = "(n, m, 4)" if ndim == 3 else "(n, m)"
        raise ValidationError(f"expected a nonempty {shape} array, got shape {y.shape}")
    return y


def blend_preference(x: np.ndarray, preferences: np.ndarray) -> np.ndarray:
    """Average the normalized matrix with the per-plan preference tuples.

    ``preferences`` has shape (n, 4); each plan's tuple is blended into every
    attribute of its row: z = (q + x) / 2, componentwise.
    """
    x = _check_matrix(x)
    q = np.asarray(preferences, dtype=np.float64)
    if q.shape != (x.shape[0], 4):
        raise ValidationError(
            f"expected preferences of shape ({x.shape[0]}, 4), got {q.shape}"
        )
    if (np.diff(q, axis=1) < 0).any():
        raise ValidationError("preference tuples must be ascending 4-tuples")
    return 0.5 * (q[:, None, :] + x)


def apply_weights(z: np.ndarray, w_final: np.ndarray) -> np.ndarray:
    """Scale the lower pair of each tuple by the weight's lower bound and the
    upper pair by its upper bound; ``w_final`` holds (m, 2) (lo, hi) rows."""
    z = _check_matrix(z)
    if (z < 0).any():
        raise ValidationError("weighted scaling requires a nonnegative matrix")
    w = np.asarray(w_final, dtype=np.float64)
    if w.shape != (z.shape[1], 2):
        raise ValidationError(f"expected ({z.shape[1]}, 2) interval weights, got shape {w.shape}")
    scale = w[:, [0, 0, 1, 1]]  # (m, 4)
    return z * scale[None, :, :]


def ideal_vectors(y: np.ndarray) -> IdealVectors:
    """Componentwise column maxima (positive) and minima (negative)."""
    y = _check_matrix(y)
    return IdealVectors(positive=y.max(axis=0), negative=y.min(axis=0))


def topsis_scores(dplus: np.ndarray, dminus: np.ndarray) -> MethodScores:
    """Relative closeness D- / (D+ + D-), where D is the norm of a plan's row of
    the (n, m) distance grid to the positive or negative ideal.

    When the two ideals coincide (all plans identical) every plan scores 0.5
    by convention, a full tie.
    """
    dplus, dminus = _check_matrix(dplus, 2), _check_matrix(dminus, 2)
    dpos, dneg = (np.sqrt((d * d).sum(axis=1)) for d in (dplus, dminus))
    total = dpos + dneg
    scores = np.where(total > 0, dneg / np.where(total > 0, total, 1.0), 0.5)
    return MethodScores.from_scores("topsis", scores)


def incidence_coefficients(d: np.ndarray, rho: float = 0.5) -> np.ndarray:
    """Deng incidence coefficient of every cell of the (n, m) distance grid ``d``.

    r = (d_min + rho * d_max) / (d + rho * d_max), with d_min and d_max taken
    over the full plan-by-attribute grid. All distances zero yields all ones.
    """
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"rho must lie in (0, 1), got {rho}")
    d = _check_matrix(d, 2)
    d_max = float(d.max())
    if d_max <= 0:
        return np.ones_like(d)
    # The formula is scale-free. An exact power of two puts d_max in [1, 2),
    # so rho * d_max >= rho > 0 however small rho is.
    d = np.ldexp(d, 1 - np.frexp(d_max)[1])
    d_min, d_max = float(d.min()), float(d.max())
    return (d_min + rho * d_max) / (d + rho * d_max)


def incidence_degrees(coefficients: np.ndarray) -> np.ndarray:
    """Row mean of incidence coefficients: one closeness degree per plan."""
    return _check_matrix(coefficients, 2).mean(axis=1)


def _scaled_pairs(
    gplus: np.ndarray, gminus: np.ndarray, degree: str
) -> tuple[np.ndarray, np.ndarray]:
    """Each plan's (G+, G-) pair scaled by 2^-e of its larger entry.

    The two ratio scores are scale-free per plan. An exact power of two puts
    the larger degree of each pair in [0.5, 1), so tiny degrees neither
    underflow in products nor square to zero. An all-zero pair is named.
    """
    gplus = np.asarray(gplus, dtype=np.float64)
    gminus = np.asarray(gminus, dtype=np.float64)
    peak = np.maximum(gplus, gminus)
    if (peak <= 0).any():
        raise DegenerateProblemError(
            f"{degree} undefined: row {int(np.argmax(peak <= 0))} has zero "
            "incidence against both ideals"
        )
    e = -np.frexp(peak)[1]
    return np.ldexp(gplus, e), np.ldexp(gminus, e)


def approach_with_preference(
    gplus: np.ndarray, gminus: np.ndarray, params: MethodParams | None = None
) -> MethodScores:
    """Grey approach degree with preference bias between the two ideals.

    C' = G+ * theta_plus / (G+ * theta_plus + G- * theta_minus); the boundary
    theta_plus=1 returns G+ itself (the ratio would degenerate to 1).
    """
    params = params or MethodParams()
    if params.theta_minus == 0.0:
        return MethodScores.from_scores("grey-approach", np.array(gplus, dtype=np.float64))
    gplus, gminus = _scaled_pairs(gplus, gminus, "grey approach degree")
    num = gplus * params.theta_plus
    den = num + gminus * params.theta_minus
    # a zero numerator scores 0, also when a tiny theta_minus leaves den = 0
    scores = np.divide(num, den, out=np.zeros_like(num), where=num > 0)
    return MethodScores.from_scores("grey-approach", scores)


def membership_degrees(gplus: np.ndarray, gminus: np.ndarray) -> MethodScores:
    """Relative membership in the positive ideal: G+^2 / (G+^2 + G-^2).

    This is the exact minimizer of the squared-residual objective that scores
    u against G+ and (1 - u) against G-.
    """
    gplus, gminus = _scaled_pairs(gplus, gminus, "membership degree")
    denom = gplus**2 + gminus**2
    return MethodScores.from_scores("membership", gplus**2 / denom)


def max_entropy_weights(gplus: np.ndarray, gminus: np.ndarray) -> tuple[float, float]:
    """Entropy-regularized weights of the two incidence degrees.

    Maximizing total comprehensive incidence plus the entropy of (b1, b2)
    under b1 + b2 = 1 gives the softmax of (sum G+, sum (1 - G-)), computed in
    overflow-safe form.
    """
    gplus = np.asarray(gplus, dtype=np.float64)
    gminus = np.asarray(gminus, dtype=np.float64)
    c1 = float(gplus.sum())
    c2 = float((1.0 - gminus).sum())
    t = c2 - c1
    if t >= 0:
        b1 = math.exp(-t) / (1.0 + math.exp(-t))
    else:
        b1 = 1.0 / (1.0 + math.exp(t))
    return b1, 1.0 - b1


def comprehensive_incidence(
    gplus: np.ndarray, gminus: np.ndarray, beta1: float, beta2: float
) -> MethodScores:
    """Convex mix of closeness to the positive ideal and distance from the negative:
    C'' = b1 * G+ + b2 * (1 - G-)."""
    if abs(beta1 + beta2 - 1.0) > 1e-9 or beta1 < 0 or beta2 < 0:
        raise ValidationError(f"weights must be convex: beta1={beta1}, beta2={beta2}")
    gplus = np.asarray(gplus, dtype=np.float64)
    gminus = np.asarray(gminus, dtype=np.float64)
    scores = beta1 * gplus + beta2 * (1.0 - gminus)
    return MethodScores.from_scores("max-entropy", scores)


def score_all_methods(
    y: np.ndarray, ideals: IdealVectors, params: MethodParams | None = None
) -> tuple[list[MethodScores], dict]:
    """Run all four scoring methods on the weighted matrix.

    Returns the four MethodScores, in fixed order (topsis, grey-approach,
    membership, max-entropy), plus the shared intermediates: the incidence
    degrees against both ideals and the entropy-derived pair weights.
    """
    params = params or MethodParams()
    y = _check_matrix(y)
    if ideals.positive.shape != y.shape[1:] or ideals.negative.shape != y.shape[1:]:
        raise ValidationError(f"expected ideal vectors of shape {y.shape[1:]}")
    # Every method is invariant to the scale of y. An exact power of two
    # keeps the squared distances of huge entries finite.
    e = -np.frexp(np.abs(y).max())[1]
    y = np.ldexp(y, e)
    dplus = distance_grid(y, np.ldexp(ideals.positive, e))
    dminus = distance_grid(y, np.ldexp(ideals.negative, e))
    topsis = topsis_scores(dplus, dminus)
    gplus = incidence_degrees(incidence_coefficients(dplus, params.rho))
    gminus = incidence_degrees(incidence_coefficients(dminus, params.rho))
    approach = approach_with_preference(gplus, gminus, params)
    membership = membership_degrees(gplus, gminus)
    b1, b2 = max_entropy_weights(gplus, gminus)
    comprehensive = comprehensive_incidence(gplus, gminus, b1, b2)
    extras = {"gplus": gplus, "gminus": gminus, "beta1": b1, "beta2": b2}
    return [topsis, approach, membership, comprehensive], extras
