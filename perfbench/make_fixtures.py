"""Record the package's fighter-sweep answers as the benchmark's fixture.

Run from the repository root, at the commit whose answers are the reference::

    PYTHONPATH=src python3 perfbench/make_fixtures.py

It solves the bundled fighter problem once per entry of the sweep grid,
through ``greyrank solve --format json-report``, and writes every method's
full-precision scores and the final order to ``fixtures/fighter_grid.json``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from greyrank.cli import main
from greyrank.datasets import fighter_problem_path
from workloads import FIGHTER_GRID, FIXTURE, parse_json_report


def main_fixtures() -> None:
    grid = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for flags in FIGHTER_GRID:
            argv = ["solve", str(fighter_problem_path()), *flags,
                    "--format", "json-report", "--out", str(out)]
            if main(argv) != 0:
                raise SystemExit(f"solve failed for flags {flags}")
            grid.append(parse_json_report(out.read_text()))
    FIXTURE.write_text(json.dumps({"grid": grid}, indent=1) + "\n")


if __name__ == "__main__":
    main_fixtures()
