"""End-to-end pipeline: normalize, weight, score, aggregate.

``run_pipeline`` drives a validated :class:`~greyrank.problem.DecisionProblem`
through the full chain and returns a :class:`Report`: the problem itself plus
every table computed from it, so renderers and tests can inspect each stage.
This module only computes; :mod:`greyrank.report` owns the output formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import RankResult, weighted_borda
from .errors import located
from .evaluate import (
    IdealVectors,
    MethodScores,
    apply_weights,
    blend_preference,
    ideal_vectors,
    score_all_methods,
)
from .normalize import normalize_matrix
from .problem import DecisionProblem
from .weights import (
    WeightBundle,
    comprehensive_objective,
    entropy_weight_table,
    final_weights,
    optimization_weights,
)

__all__ = ["Report", "run_pipeline"]


@dataclass
class Report:
    """The problem ``run_pipeline`` solved and every table it computed, in order."""

    problem: DecisionProblem
    normalized: np.ndarray  # (n, m, 4)
    weights: WeightBundle
    weighted: np.ndarray  # (n, m, 4)
    ideals: IdealVectors
    methods: list[MethodScores]
    incidence: dict  # gplus, gminus, beta1, beta2
    result: RankResult
    notes: list[str]

    @property
    def final_order(self) -> list[str]:
        return [self.problem.plans[i] for i in self.result.order]


def run_pipeline(problem: DecisionProblem) -> Report:
    """Run the full chain on a validated problem.

    The stages run under ``np.errstate(...="raise")``, so a floating-point
    overflow, invalid operation or division by zero that no stage catches
    exits as a :class:`~greyrank.errors.DegenerateProblemError` naming its
    stage, never as a silent inf or NaN.
    """
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with located("stage normalize"):
            x = normalize_matrix(problem.raw, problem.attributes)

        with located("stage weights"):
            beta_opt, notes = optimization_weights(x)
            beta_ent, entropy_notes = entropy_weight_table(x)
            notes += entropy_notes
            ids = [a.id for a in problem.attributes]
            beta_interval = comprehensive_objective(beta_opt, beta_ent, ids)
            w_final = final_weights(problem.subjective, beta_interval, ids)
            bundle = WeightBundle(
                beta_opt=beta_opt,
                beta_ent=beta_ent,
                beta_interval=beta_interval,
                w_final=w_final,
            )

        with located("stage evaluate"):
            z = blend_preference(x, problem.preferences)
            y = apply_weights(z, w_final)
            ideals = ideal_vectors(y)
            methods, incidence = score_all_methods(y, ideals, problem.params)

        with located("stage aggregate"):
            result = weighted_borda(methods, problem.borda)

    return Report(
        problem=problem,
        normalized=x,
        weights=bundle,
        weighted=y,
        ideals=ideals,
        methods=methods,
        incidence=incidence,
        result=result,
        notes=notes,
    )
