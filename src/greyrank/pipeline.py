"""End-to-end pipeline: normalize, weight, score, aggregate.

``run_pipeline`` drives a validated :class:`~greyrank.problem.DecisionProblem`
through the full chain and returns a :class:`Report`: the problem itself plus
every array computed from it, one named field each, so renderers and tests
can inspect each stage. This module only computes; :mod:`greyrank.report`
owns the output formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import weighted_borda
from .errors import located
from .evaluate import apply_weights, blend_preference, ideal_vectors, score_all_methods
from .normalize import normalize_matrix
from .problem import DecisionProblem
from .weights import (
    comprehensive_objective,
    entropy_weight_table,
    final_weights,
    optimization_weights,
)

__all__ = ["Report", "run_pipeline"]


@dataclass
class Report:
    """The problem ``run_pipeline`` solved and every array it computed, in order.

    ``scores`` and ``ranks`` hold one row per method, in
    :data:`~greyrank.evaluate.METHODS` order.
    """

    problem: DecisionProblem
    normalized: np.ndarray  # (n, m, 4)
    beta_opt: np.ndarray  # (m,)
    beta_ent: np.ndarray  # (4, m)
    beta_interval: np.ndarray  # (m, 2) (lo, hi) rows
    w_final: np.ndarray  # (m, 2) (lo, hi) rows
    weighted: np.ndarray  # (n, m, 4)
    positive: np.ndarray  # (m, 4)
    negative: np.ndarray  # (m, 4)
    scores: np.ndarray  # (4, n)
    gplus: np.ndarray  # (n,)
    gminus: np.ndarray  # (n,)
    beta1: float
    beta2: float
    ranks: np.ndarray  # (4, n)
    borda: np.ndarray  # (n,)
    tiebreak: np.ndarray  # (n,)
    final_ranks: np.ndarray  # (n,), a strict 1..n order
    notes: list[str]

    @property
    def final_order(self) -> list[str]:
        return [self.problem.plans[i] for i in np.argsort(self.final_ranks, kind="stable")]


def run_pipeline(problem: DecisionProblem) -> Report:
    """Run the full chain on a validated problem.

    Takes a problem that ``parse_problem`` or ``parse_problem_dict`` made; no
    stage checks again what parsing or the stage before it guarantees. The
    stages run under ``np.errstate(...="raise")``, so a floating-point
    overflow, invalid operation or division by zero that no stage catches
    exits as a :class:`~greyrank.errors.DegenerateProblemError` naming its
    stage, never as a silent inf or NaN. An error about one plan's cell
    names that plan.
    """
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with located("stage normalize", problem.plans):
            x = normalize_matrix(problem.raw, problem.attributes)

        with located("stage weights"):
            beta_opt, notes = optimization_weights(x)
            beta_ent, entropy_notes = entropy_weight_table(x)
            notes += entropy_notes
            ids = [a.id for a in problem.attributes]
            beta_interval = comprehensive_objective(beta_opt, beta_ent, ids)
            w_final = final_weights(problem.subjective, beta_interval, ids)

        with located("stage evaluate"):
            z = blend_preference(x, problem.preferences)
            y = apply_weights(z, w_final)
            positive, negative = ideal_vectors(y)
            scores, gplus, gminus, beta1, beta2 = score_all_methods(
                y, positive, negative, problem.params
            )

        with located("stage aggregate"):
            ranks, final_ranks, borda, tiebreak = weighted_borda(scores, problem.borda)

    return Report(
        problem=problem, normalized=x, notes=notes, beta_opt=beta_opt, beta_ent=beta_ent,
        beta_interval=beta_interval, w_final=w_final, weighted=y, positive=positive,
        negative=negative, scores=scores, gplus=gplus, gminus=gminus, beta1=beta1,
        beta2=beta2, ranks=ranks, borda=borda, tiebreak=tiebreak, final_ranks=final_ranks,
    )
