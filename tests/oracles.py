"""Independent reference implementations used to cross-check closed forms.

Everything here is deliberately written the slow, obvious way (plain loops,
grid/line searches) so it shares no code path with the package internals.
"""

from __future__ import annotations

import math

import numpy as np


def brute_deviation_coefficients(x: np.ndarray) -> np.ndarray:
    """Per-attribute total pairwise 4-tuple distance, via plain loops."""
    n, m, _ = x.shape
    c = np.zeros(m)
    for j in range(m):
        for i in range(n):
            for k in range(n):
                c[j] += math.dist(x[i, j], x[k, j])
    return c


def deviation_objective(x: np.ndarray, beta: np.ndarray) -> float:
    """D(beta) = sum_j beta_j * total pairwise deviation of column j."""
    return float(brute_deviation_coefficients(x) @ np.asarray(beta, dtype=float))


def projected_ascent_beta(
    x: np.ndarray, *, rng: np.random.Generator, starts: int = 5, iters: int = 400
) -> np.ndarray:
    """Maximize D(beta) on {sum beta^2 = 1, beta >= 0} by projected ascent.

    The objective is linear, so ascent + projection onto the nonnegative
    unit sphere converges fast from any interior start.
    """
    c = brute_deviation_coefficients(x)
    norm_c = np.linalg.norm(c)
    if norm_c == 0:
        raise ValueError("degenerate instance: zero deviation everywhere")
    step = 0.5 / norm_c
    best, best_val = None, -np.inf
    for _ in range(starts):
        beta = rng.random(len(c)) + 1e-3
        beta /= np.linalg.norm(beta)
        for _ in range(iters):
            beta = np.maximum(beta + step * c, 0.0)
            norm = np.linalg.norm(beta)
            if norm == 0:  # pragma: no cover - cannot happen with c >= 0
                beta = np.full(len(c), 1.0 / math.sqrt(len(c)))
                continue
            beta /= norm
        val = float(c @ beta)
        if val > best_val:
            best, best_val = beta, val
    return best


def grid_membership(gplus: float, gminus: float, points: int = 2001) -> float:
    """Minimize F(u) = [(1-u) g+]^2 + [u g-]^2 on [0, 1] by grid + refinement.

    F is an exact quadratic, so the parabola through the best grid point and
    its neighbours recovers the minimizer to machine precision.
    """
    us = np.linspace(0.0, 1.0, points)
    f = ((1.0 - us) * gplus) ** 2 + (us * gminus) ** 2
    k = int(np.argmin(f))
    if k == 0 or k == points - 1:
        return float(us[k])
    h = us[1] - us[0]
    denom = f[k + 1] - 2.0 * f[k] + f[k - 1]
    if denom <= 0:
        return float(us[k])
    return float(us[k] - 0.5 * h * (f[k + 1] - f[k - 1]) / denom)


def line_search_entropy_pair(c1: float, c2: float) -> tuple[float, float]:
    """Maximize H(b) = b c1 + (1-b) c2 - b ln b - (1-b) ln(1-b) on (0, 1).

    Golden-section search; H is strictly concave so the bracket converges
    to the unique maximizer.
    """

    def h(b: float) -> float:
        return b * c1 + (1.0 - b) * c2 - b * math.log(b) - (1.0 - b) * math.log(1.0 - b)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-15, 1.0 - 1e-15
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = h(x1), h(x2)
    while hi - lo > 1e-13:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = h(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = h(x1)
    b1 = 0.5 * (lo + hi)
    return b1, 1.0 - b1


def loop_competition_ranks(scores) -> list[int]:
    """rank(i) = 1 + number of strictly better plans, via plain loops."""
    ranks = []
    for i, s in enumerate(scores):
        better = sum(1 for t in scores if t > s)
        ranks.append(1 + better)
    return ranks


def loop_distance_grid(y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """4-tuple distance from every (plan, attribute) cell to ``ref``, via plain loops."""
    n, m, _ = y.shape
    d = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            d[i, j] = math.dist(y[i, j], ref[j])
    return d


def loop_incidence_grid(y: np.ndarray, ref: np.ndarray, rho: float) -> np.ndarray:
    """Deng incidence coefficients against ``ref``, min/max over the grid."""
    d = loop_distance_grid(y, ref)
    dmin, dmax = d.min(), d.max()
    if dmax <= 0:
        return np.ones((n, m))
    return (dmin + rho * dmax) / (d + rho * dmax)


def loop_topsis(y: np.ndarray) -> np.ndarray:
    """TOPSIS closeness D- / (D+ + D-) over the whole plan row, via plain loops."""
    n, m, _ = y.shape
    best = [[max(y[i, j, k] for i in range(n)) for k in range(4)] for j in range(m)]
    worst = [[min(y[i, j, k] for i in range(n)) for k in range(4)] for j in range(m)]
    scores = np.empty(n)
    for i in range(n):
        cells = [(y[i, j, k], j, k) for j in range(m) for k in range(4)]
        dpos = math.sqrt(sum((v - best[j][k]) ** 2 for v, j, k in cells))
        dneg = math.sqrt(sum((v - worst[j][k]) ** 2 for v, j, k in cells))
        scores[i] = 0.5 if dpos + dneg == 0 else dneg / (dpos + dneg)
    return scores


def random_generalized_matrix(
    rng: np.random.Generator, n: int, m: int, scale: float = 1.0
) -> np.ndarray:
    """Random (n, m, 4) matrix of ascending 4-tuples."""
    return np.sort(rng.random((n, m, 4)) * scale, axis=2)
