"""The four plan-scoring methods over the weighted decision matrix.

All four consume the same matrix Y: the normalized matrix blended with the
decision maker's per-plan preference tuples and scaled by the final interval
weights. One (n, m) grid of 4-D distances to each componentwise ideal feeds
all four. TOPSIS scores closeness by the Euclidean norm of each plan's grid
rows; the other three are built on grey incidence degrees, the mean Deng
closeness coefficient of each plan against the positive and negative ideal
vectors. Each method returns its (n,) score array; ``score_all_methods``
stacks the four into one (4, n) array, one row per method in ``METHODS``
order. Each function takes what parsing or the step before it produces and
checks its shape, signs and order no more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import distance_grid
from .errors import DegenerateProblemError, ValidationError

__all__ = [
    "METHODS",
    "MethodParams",
    "apply_weights",
    "approach_with_preference",
    "blend_preference",
    "ideal_vectors",
    "incidence_coefficients",
    "membership_degrees",
    "score_all_methods",
    "topsis_scores",
]

# The methods in the order of the rows of every (4, n) score and rank array.
METHODS = ("topsis", "grey-approach", "membership", "max-entropy")


@dataclass(frozen=True)
class MethodParams:
    """Shared scoring parameters.

    ``rho`` is the distinguishing coefficient of the incidence coefficient.
    ``theta_plus``/``theta_minus`` bias the grey approach degree toward the
    positive or negative ideal; they must sum to one, and the boundary case
    theta_plus=1, theta_minus=0 switches to the plain positive incidence
    degree. theta_minus may be 1: ``1 - theta_plus`` rounds to 1.0 for a
    theta_plus of 2**-54 or less.
    """

    rho: float = 0.5
    theta_plus: float = 0.5
    theta_minus: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValidationError(f"rho must lie in (0, 1), got {self.rho}")
        if not (0.0 < self.theta_plus <= 1.0 and 0.0 <= self.theta_minus <= 1.0):
            raise ValidationError(
                f"preference coefficients out of range: theta_plus={self.theta_plus}, "
                f"theta_minus={self.theta_minus}"
            )
        if abs(self.theta_plus + self.theta_minus - 1.0) > 1e-9:
            raise ValidationError(
                f"preference coefficients must sum to 1, got "
                f"{self.theta_plus} + {self.theta_minus}"
            )


def blend_preference(x: np.ndarray, preferences: np.ndarray) -> np.ndarray:
    """Average the normalized matrix with the per-plan preference tuples.

    ``preferences`` has shape (n, 4); each plan's tuple is blended into every
    attribute of its row: z = (q + x) / 2, componentwise.

    Each operand is halved before the sum, so two values near the largest
    float do not overflow. Halving is exact unless a value is below 2**-1021,
    so z is the correctly rounded mean except where q or x is that small;
    there it may be one unit in the last place away.

    Takes the normalized matrix and the parsed preferences, unchecked.
    """
    z = 0.5 * x
    # in place: a second (n, m, 4) temporary takes about 3x as long
    z += 0.5 * preferences[:, None, :]
    return z


def apply_weights(z: np.ndarray, w_final: np.ndarray) -> np.ndarray:
    """Scale the lower pair of each tuple by the weight's lower bound and the
    upper pair by its upper bound; ``w_final`` holds (m, 2) (lo, hi) rows.

    When a product could overflow, ``z`` is first scaled by the power of two
    that keeps every product finite; every score is invariant to that scale.

    Takes the nonnegative blend and the ``final_weights`` rows, unchecked.
    """
    excess = np.frexp(z.max())[1] + np.frexp(w_final.max())[1] - 1023
    if excess > 0:
        z = np.ldexp(z, -excess)
    scale = w_final[:, [0, 0, 1, 1]]  # (m, 4)
    return z * scale[None, :, :]


def ideal_vectors(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise column maxima (positive) and minima (negative), each (m, 4).

    Takes the weighted matrix ``apply_weights`` returns, unchecked.
    """
    return y.max(axis=0), y.min(axis=0)


def topsis_scores(dplus: np.ndarray, dminus: np.ndarray) -> np.ndarray:
    """Relative closeness D- / (D+ + D-), where D is the norm of a plan's row of
    the (n, m) distance grid to the positive or negative ideal.

    When the two ideals coincide (all plans identical) every plan scores 0.5
    by convention, a full tie.
    """
    dpos, dneg = (np.sqrt((d * d).sum(axis=1)) for d in (dplus, dminus))
    total = dpos + dneg
    return np.where(total > 0, dneg / np.where(total > 0, total, 1.0), 0.5)


def incidence_coefficients(d: np.ndarray, rho: float) -> np.ndarray:
    """Deng incidence coefficient of every cell of the (n, m) distance grid ``d``.

    r = (d_min + rho * d_max) / (d + rho * d_max), with d_min and d_max taken
    over the full plan-by-attribute grid. All distances zero yields all ones.
    """
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
    return coefficients.mean(axis=1)


def _scaled_pairs(
    gplus: np.ndarray, gminus: np.ndarray, degree: str
) -> tuple[np.ndarray, np.ndarray]:
    """Each plan's (G+, G-) pair scaled by 2^-e of its larger entry.

    The two ratio scores are scale-free per plan. An exact power of two puts
    the larger degree of each pair in [0.5, 1), so tiny degrees neither
    underflow in products nor square to zero. An all-zero pair is named.
    """
    peak = np.maximum(gplus, gminus)
    if (peak <= 0).any():
        raise DegenerateProblemError(
            f"{degree} undefined: row {int(np.argmax(peak <= 0))} has zero "
            "incidence against both ideals"
        )
    e = -np.frexp(peak)[1]
    return np.ldexp(gplus, e), np.ldexp(gminus, e)


def approach_with_preference(
    gplus: np.ndarray, gminus: np.ndarray, params: MethodParams
) -> np.ndarray:
    """Grey approach degree with preference bias between the two ideals.

    C' = G+ * theta_plus / (G+ * theta_plus + G- * theta_minus); the boundary
    theta_plus=1 returns G+ itself (the ratio would degenerate to 1).
    """
    if params.theta_minus == 0.0:
        return gplus.copy()
    gplus, gminus = _scaled_pairs(gplus, gminus, "grey approach degree")
    num = gplus * params.theta_plus
    den = num + gminus * params.theta_minus
    # a zero numerator scores 0, also when a tiny theta_minus leaves den = 0
    return np.divide(num, den, out=np.zeros_like(num), where=num > 0)


def membership_degrees(gplus: np.ndarray, gminus: np.ndarray) -> np.ndarray:
    """Relative membership in the positive ideal: G+^2 / (G+^2 + G-^2).

    This is the exact minimizer of the squared-residual objective that scores
    u against G+ and (1 - u) against G-.
    """
    gplus, gminus = _scaled_pairs(gplus, gminus, "membership degree")
    return gplus**2 / (gplus**2 + gminus**2)


def max_entropy_weights(gplus: np.ndarray, gminus: np.ndarray) -> tuple[float, float]:
    """Entropy-regularized weights of the two incidence degrees.

    Maximizing total comprehensive incidence plus the entropy of (b1, b2)
    under b1 + b2 = 1 gives the softmax of (sum G+, sum (1 - G-)), computed in
    overflow-safe form.
    """
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
) -> np.ndarray:
    """Convex mix of closeness to the positive ideal and distance from the negative:
    C'' = b1 * G+ + b2 * (1 - G-)."""
    return beta1 * gplus + beta2 * (1.0 - gminus)


def score_all_methods(
    y: np.ndarray, positive: np.ndarray, negative: np.ndarray, params: MethodParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Run all four scoring methods on the weighted matrix.

    Returns ``(scores, gplus, gminus, beta1, beta2)``: the (4, n) scores, one
    row per method in ``METHODS`` order, and the shared intermediates, the
    incidence degrees against both ideals and the entropy-derived pair weights.

    Takes the nonnegative weighted matrix and its ``ideal_vectors``, unchecked.
    """
    # Every method is invariant to the scale of y. An exact power of two
    # keeps the squared distances of huge entries finite; the largest entry of
    # y is that of its positive ideal.
    e = -np.frexp(positive.max())[1]
    y = np.ldexp(y, e)
    dplus = distance_grid(y, np.ldexp(positive, e))
    dminus = distance_grid(y, np.ldexp(negative, e))
    topsis = topsis_scores(dplus, dminus)
    gplus = incidence_degrees(incidence_coefficients(dplus, params.rho))
    gminus = incidence_degrees(incidence_coefficients(dminus, params.rho))
    b1, b2 = max_entropy_weights(gplus, gminus)
    scores = np.array([
        topsis,
        approach_with_preference(gplus, gminus, params),
        membership_degrees(gplus, gminus),
        comprehensive_incidence(gplus, gminus, b1, b2),
    ])
    return scores, gplus, gminus, b1, b2
