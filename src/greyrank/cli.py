"""Command-line interface.

::

    greyrank solve problem.json [--format text|csv|json-report]
                                [--rho R] [--theta-plus T]
                                [--borda-weights w1,w2,w3,w4]
                                [--out PATH]

Exit codes: 0 on success, 2 for validation problems (bad file, a document
nested too deeply to read, bad cell, bad flag value), 3 when the problem is degenerate (well-formed input on
which the method itself breaks down).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import DegenerateProblemError, ValidationError, located
from .pipeline import Report, run_pipeline
from .problem import DecisionProblem, _collector_paused, _load_document, parse_problem_dict
from .report import FORMATS, emit_report

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greyrank",
        description="Rank decision plans with mixed-type attributes via "
        "grey relational analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the full ranking pipeline on a problem file")
    solve.add_argument("file", help="problem file (JSON, schema 1)")
    solve.add_argument("--format", choices=FORMATS, default="text", help="output format")
    solve.add_argument("--rho", type=float, default=None, help="distinguishing coefficient in (0, 1)")
    solve.add_argument(
        "--theta-plus",
        type=float,
        default=None,
        help="weight on the positive ideal; theta_minus becomes 1 - theta_plus",
    )
    solve.add_argument(
        "--borda-weights",
        default=None,
        metavar="W1,W2,W3,W4",
        help="comma-separated weights for the four methods (must sum to 1)",
    )
    solve.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


# Built once per process: parse_args leaves a parser unchanged, and building
# one costs several times what a parse does.
_PARSER = build_parser()


def _parse_borda_weights(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(
            f"--borda-weights needs exactly 4 comma-separated values, got {len(parts)}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--borda-weights: {exc}") from exc


def _apply_overrides(problem: DecisionProblem, args: argparse.Namespace) -> DecisionProblem:
    """The parsed problem with the param flags in force. Reports echo its params,
    so a json-report fed back through ``solve`` reproduces the ranking. The
    file's own params are validated first, also those a flag replaces."""
    changes, weights = {}, {}
    if args.rho is not None:
        changes["rho"] = args.rho
    if args.theta_plus is not None:
        changes.update(theta_plus=args.theta_plus, theta_minus=1.0 - args.theta_plus)
    if args.borda_weights is not None:
        weights["method_weights"] = _parse_borda_weights(args.borda_weights)
    with located("params"):
        params, borda = replace(problem.params, **changes), replace(problem.borda, **weights)
    return replace(problem, params=params, borda=borda)


def _write_report(report: Report, args: argparse.Namespace) -> int:
    """Write ``report`` to the ``--out`` file, opened only now, or to stdout;
    exit code 2 with one line when opening, writing or flushing it fails."""
    try:
        if args.out:
            with open(args.out, "wb") as dest:
                emit_report(report, args.format, dest)
        else:
            emit_report(report, args.format, sys.stdout.buffer)
            sys.stdout.buffer.flush()
    except OSError as exc:
        where = args.out or "the report to stdout"
        print(f"greyrank: error: cannot write {where}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with _collector_paused():
            data = _load_document(args.file)
            problem = _apply_overrides(parse_problem_dict(data, source=args.file), args)
            del data  # the problem holds everything a report needs
            report = run_pipeline(problem)
            # the pipeline and the render make no garbage cycles; a json-report
            # render's echo alone would set off dozens of collections
            return _write_report(report, args)
    except ValidationError as exc:
        print(f"greyrank: error: {exc}", file=sys.stderr)
        return 2
    except DegenerateProblemError as exc:
        print(f"greyrank: degenerate problem: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # greyrank has no recursion of its own, and the decode reports a document
        # nested too deeply itself: only quoting a deeply nested value in a
        # message gets here
        print(f"greyrank: error: {args.file}: the document is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
