"""The benchmark's tracer wraps names bound in the package's modules.

``perfbench/child.py`` lists them in ``TRACED``; a refactor that drops or
renames one would break ``python3 perfbench/run.py --trace 1``. The file is
read and executed here without writing anything next to it. The package's
public names, and the fields of ``Report`` and ``DecisionProblem``, are the
ones the README lists.
"""

import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import greyrank
from greyrank import cli, fighter_problem_path, parse_problem

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def _child_namespace() -> dict:
    namespace = {"__name__": "perfbench_child", "__file__": str(CHILD)}
    exec(compile(CHILD.read_text(encoding="utf-8"), str(CHILD), "exec"), namespace)
    return namespace


def test_perfbench_traced_names_resolve():
    namespace = _child_namespace()
    assert namespace["TRACED"]
    for module, name, metric in namespace["TRACED"]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} ({metric})"
    assert callable(namespace["using_numba"])  # from greyrank._kernels


def test_traced_names_called_per_solve(tmp_path, monkeypatch):
    # a renamed or bypassed call would read as 0 ms in a trace; each name the
    # tracer wraps must be the one a solve actually calls
    namespace = _child_namespace()
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name, _ in namespace["TRACED"]:
        key = f"{module.__name__}.{name}"
        calls[key] = 0
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    assert cli.main(["solve", str(fighter_problem_path()), "--out", str(tmp_path / "r")]) == 0
    assert all(calls.values()), {key: n for key, n in calls.items() if not n}


def test_perfbench_report_bytes_is_the_written_size(tmp_path, monkeypatch):
    # --trace 1 takes report.bytes as len() of what cli.emit_report returns,
    # which for a report written to its destination holds no bytes
    report_bytes = _child_namespace()["RESULT_COUNTS"]["report.render_ms"]
    emit, counts = cli.emit_report, []

    def capturing(*args, **kwargs):
        written = emit(*args, **kwargs)
        counts.append(report_bytes(written))
        return written

    monkeypatch.setattr(cli, "emit_report", capturing)
    out = tmp_path / "r"
    assert cli.main(["solve", str(fighter_problem_path()), "--format", "json-report",
                     "--out", str(out)]) == 0
    assert counts == [{"report.bytes": out.stat().st_size}]


def test_perfbench_problem_counts_read_a_parsed_problem():
    # --trace 1 counts plans, attributes and cells of each kind off the parse result
    problem_counts = _child_namespace()["RESULT_COUNTS"]["problem.parse_ms"]
    counts = problem_counts(parse_problem(fighter_problem_path()))
    assert counts == {
        "n_plans": 5, "n_attributes": 9, "cells.real": 10, "cells.interval": 15,
        "cells.linguistic": 10, "cells.uncertain": 10,
    }


def test_text_and_csv_solves_never_load_orjson(tmp_path):
    # only render_json imports orjson, so importing the CLI and solving to
    # text or CSV cost no more than before it was a dependency
    script = (
        "import sys\n"
        "import greyrank.cli as cli\n"
        "assert 'orjson' not in sys.modules\n"
        "for fmt in ('text', 'csv'):\n"
        f"    assert cli.main(['solve', {str(fighter_problem_path())!r}, '--format', fmt,\n"
        f"                     '--out', {str(tmp_path / 'r')!r}]) == 0\n"
        "assert 'orjson' not in sys.modules\n"
    )
    src = str(Path(greyrank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_public_names_are_the_readme_list_and_resolve():
    text = README.read_text(encoding="utf-8")
    listed = text.split("`greyrank` exports exactly these 15 names:\n\n")[1].split("\n\n")[0]
    names = {re.match(r"\w+", quoted).group() for quoted in re.findall(r"`([^`]+)`", listed)}
    assert len(names) == 15
    assert sorted(greyrank.__all__) == sorted(names)
    modules = [greyrank] + [importlib.import_module(f"greyrank.{info.name}")
                            for info in pkgutil.iter_modules(greyrank.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("cls", [greyrank.Report, greyrank.DecisionProblem],
                         ids=["Report", "DecisionProblem"])
def test_readme_field_lists_are_the_dataclass_fields(cls):
    text = README.read_text(encoding="utf-8")
    header = f"`{cls.__name__}` has exactly these fields, in order:\n\n"
    assert text.count(header) == 1
    listed = text.split(header)[1].split("\n\n")[0]
    assert re.findall(r"^- `(\w+)`", listed, re.M) == [
        field.name for field in dataclasses.fields(cls)]
