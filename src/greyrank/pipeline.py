"""End-to-end pipeline: normalize, weight, score, aggregate.

``run_pipeline`` drives a validated :class:`~greyrank.problem.DecisionProblem`
through the full chain and returns a :class:`Report` holding every
intermediate table, so renderers and tests can inspect each stage.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .aggregate import BordaConfig, RankResult, weighted_borda
from .errors import GreyrankError
from .evaluate import (
    IdealVectors,
    MethodParams,
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


@contextmanager
def _stage(name: str):
    """Re-raise pipeline errors with the failing stage prepended."""
    try:
        yield
    except GreyrankError as exc:
        if str(exc).startswith("stage "):
            raise
        raise type(exc)(f"stage {name}: {exc}") from exc


@dataclass
class Report:
    """Everything ``run_pipeline`` computed, in evaluation order."""

    name: str
    plans: list[str]
    attributes: list  # list[AttributeSpec]
    params: MethodParams
    borda_config: BordaConfig
    aliases: dict[str, str]
    subjective_source: str
    normalized: np.ndarray  # (n, m, 4)
    weights: WeightBundle
    weighted: np.ndarray  # (n, m, 4)
    ideals: IdealVectors
    methods: list[MethodScores]
    incidence: dict  # gplus, gminus, beta1, beta2
    result: RankResult
    notes: list[str] = field(default_factory=list)
    problem_payload: dict = field(default_factory=dict)

    @property
    def final_order(self) -> list[str]:
        return [self.plans[i] for i in self.result.order]

    def to_dict(self) -> dict:
        """A JSON-ready view of the whole report."""
        return {
            "schema": 1,
            "name": self.name,
            "plans": list(self.plans),
            "attributes": [
                {"id": a.id, "kind": a.kind, "direction": a.direction}
                for a in self.attributes
            ],
            "params": {
                "rho": self.params.rho,
                "theta_plus": self.params.theta_plus,
                "theta_minus": self.params.theta_minus,
                "borda_weights": list(self.borda_config.method_weights),
                "tie_break": self.borda_config.tie_break,
            },
            "linguistic_aliases": dict(sorted(self.aliases.items())),
            "subjective_source": self.subjective_source,
            "notes": list(self.notes),
            "normalized": self.normalized.tolist(),
            "weights": {
                "alpha": self.weights.alpha.tolist(),
                "beta_opt": self.weights.beta_opt.tolist(),
                "beta_ent": self.weights.beta_ent.tolist(),
                "beta_interval": self.weights.beta_interval.tolist(),
                "final": self.weights.w_final.tolist(),
            },
            "weighted": self.weighted.tolist(),
            "ideal_vectors": {
                "positive": self.ideals.positive.tolist(),
                "negative": self.ideals.negative.tolist(),
            },
            "incidence": {
                "gplus": self.incidence["gplus"].tolist(),
                "gminus": self.incidence["gminus"].tolist(),
                "beta1": float(self.incidence["beta1"]),
                "beta2": float(self.incidence["beta2"]),
            },
            "methods": [
                {
                    "method": ms.method,
                    "scores": ms.scores.tolist(),
                    "ranks": ms.ranks.tolist(),
                }
                for ms in self.methods
            ],
            "borda": {
                "scores": self.result.borda_scores.tolist(),
                "tiebreak": self.result.tiebreak_scores.tolist(),
                "final_ranks": self.result.final_ranks.tolist(),
            },
            "final_ranking": self.final_order,
            "problem": self.problem_payload,
        }


def run_pipeline(problem: DecisionProblem) -> Report:
    """Run the full chain on a validated problem."""
    with _stage("normalize"):
        x = normalize_matrix(problem.raw, problem.attributes)

    with _stage("weights"):
        beta_opt, notes = optimization_weights(x)
        beta_ent, entropy_notes = entropy_weight_table(x)
        notes += entropy_notes
        beta_interval = comprehensive_objective(beta_opt, beta_ent)
        w_final = final_weights(problem.subjective, beta_interval)
        bundle = WeightBundle(
            alpha=problem.subjective,
            beta_opt=beta_opt,
            beta_ent=beta_ent,
            beta_interval=beta_interval,
            w_final=w_final,
        )

    with _stage("evaluate"):
        z = blend_preference(x, problem.preferences)
        y = apply_weights(z, w_final)
        ideals = ideal_vectors(y)
        methods, incidence = score_all_methods(y, ideals, problem.params)

    with _stage("aggregate"):
        result = weighted_borda(methods, problem.borda)

    return Report(
        name=problem.name,
        plans=list(problem.plans),
        attributes=list(problem.attributes),
        params=problem.params,
        borda_config=problem.borda,
        aliases=dict(problem.aliases),
        subjective_source=problem.subjective_source,
        normalized=x,
        weights=bundle,
        weighted=y,
        ideals=ideals,
        methods=methods,
        incidence=incidence,
        result=result,
        notes=notes,
        problem_payload=problem.payload,
    )
