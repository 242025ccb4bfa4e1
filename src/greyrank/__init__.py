"""greyrank: rank decision plans with mixed-type attributes.

Real numbers, intervals, linguistic terms, and uncertain linguistic terms
are parsed into one array of bounds, lifted onto a common 4-tuple
representation and normalized by attribute direction, weighted by combined
subjective/objective interval grey weights, scored by four grey-relational
methods, and fused into one final ranking with a weighted Borda count.

The package namespace holds the entry points, the errors, the types a caller
builds, and :class:`Report`, one flat record of named arrays. The per-step
helpers stay importable from their modules (``greyrank.normalize``,
``greyrank.weights``, ``greyrank.evaluate``, ``greyrank.aggregate``,
``greyrank.report``).
"""

from .aggregate import BordaConfig
from .datasets import fighter_problem_path, load_fighter_problem
from .errors import DegenerateProblemError, GreyrankError, ValidationError
from .evaluate import MethodParams
from .normalize import AttributeSpec
from .pipeline import Report, run_pipeline
from .problem import DecisionProblem, parse_problem, parse_problem_dict
from .report import emit_report

__version__ = "0.1.0"

__all__ = [
    "AttributeSpec",
    "BordaConfig",
    "DecisionProblem",
    "DegenerateProblemError",
    "GreyrankError",
    "MethodParams",
    "Report",
    "ValidationError",
    "__version__",
    "emit_report",
    "fighter_problem_path",
    "load_fighter_problem",
    "parse_problem",
    "parse_problem_dict",
    "run_pipeline",
]
