"""The benchmark's tracer wraps names bound in the package's modules.

``perfbench/child.py`` lists them in ``TRACED``; a refactor that drops or
renames one would break ``python3 perfbench/run.py --trace 1``. The file is
read and executed here without writing anything next to it.
"""

from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_perfbench_traced_names_resolve():
    namespace = {"__name__": "perfbench_child", "__file__": str(CHILD)}
    exec(compile(CHILD.read_text(encoding="utf-8"), str(CHILD), "exec"), namespace)
    assert namespace["TRACED"]
    for module, name, metric in namespace["TRACED"]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} ({metric})"
    assert callable(namespace["using_numba"])  # from greyrank._kernels
