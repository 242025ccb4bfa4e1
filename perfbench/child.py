"""Closed-loop client for one workload: one thread, solves in-process.

Run by ``run.py`` in a fresh interpreter, one workload per process::

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC lists the ``greyrank solve`` argument vectors to cycle through, the run
length and whether to trace. Each vector is solved once untimed as a warm-up,
which also records its report bytes. Timed solves then call
``greyrank.cli.main`` until the run length is used, with ``gc.collect()``
and the probe below between them, and count a solve as failed when its exit code
is not 0 or its report bytes differ from the warm-up's. Only the built-in
64-bit hash of each warm-up report is kept (``hashlib`` would load OpenSSL,
several MiB of RSS), and each timed report is dropped before the next solve,
so the child's peak RSS holds no report bytes beyond the solve's own.
The warm-up reports are written out for ``run.py`` to check against the
reference.

The host's speed drifts by tens of percent over seconds to minutes, so each
untraced solve is also reported relative to a fixed probe (``_probe``: a
small mix of Python object work and numpy array work, independent of
greyrank) timed just before and just after it. Program changes move only the
solve side of the ratio; host speed moves both.

With tracing on, every timed solve is traced. Tracing wraps the names that ``greyrank.cli``, ``greyrank.pipeline``,
``greyrank.weights`` and ``greyrank.evaluate`` bind; the package itself is
not modified. Spans are kept in memory and written to ``spans.jsonl`` in the
work directory when the run ends. The tracing overhead is the number of spans
in a traced solve times the cost of one wrapped call, calibrated in-process on
an empty function.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import greyrank
import greyrank.cli as cli
import greyrank.evaluate as evaluate
import greyrank.pipeline as pipeline
import greyrank.weights as weights
from greyrank._kernels import using_numba

# (module, bound name, per-layer metric). ``cli.main`` is the root span of a
# traced solve. Several calls may share a metric; their self times add up.
TRACED = [
    (cli, "main", "cli.self_ms"),
    (cli, "parse_problem_dict", "problem.parse_ms"),
    (cli, "run_pipeline", "pipeline.self_ms"),
    (cli, "emit_report", "report.render_ms"),
    (pipeline, "normalize_matrix", "normalize.ms"),
    (pipeline, "optimization_weights", "weights.deviation_ms"),
    (weights, "pairwise_deviation_sums", "kernels.pairwise_deviation_ms"),
    (pipeline, "entropy_weight_table", "weights.entropy_ms"),
    (pipeline, "comprehensive_objective", "weights.combine_ms"),
    (pipeline, "final_weights", "weights.combine_ms"),
    (pipeline, "blend_preference", "evaluate.prepare_ms"),
    (pipeline, "apply_weights", "evaluate.prepare_ms"),
    (pipeline, "ideal_vectors", "evaluate.prepare_ms"),
    (pipeline, "score_all_methods", "evaluate.score_ms"),
    (evaluate, "distance_grid", "kernels.distance_grid_ms"),
    (pipeline, "weighted_borda", "aggregate.borda_ms"),
]
# Part of the benchmark's definition: changing the probe rescales solve_rel_p50.
# Its temporaries (20*20*30 doubles) stay below glibc's mmap threshold, so the
# probe neither faults in fresh pages nor raises the child's peak RSS much.
PROBE_ARRAY = np.linspace(0.0, 1.0, 600).reshape(20, 30)
PROBE_REPEATS = 5
CALIBRATION_CALLS = 20000
CALIBRATION_ROUNDS = 5
CELL_KINDS = {"real": "cells.real", "interval": "cells.interval",
              "linguistic": "cells.linguistic", "uncertain-linguistic": "cells.uncertain"}


def _problem_counts(problem) -> dict:
    counts = {"n_plans": problem.n_plans, "n_attributes": problem.n_attributes}
    counts.update({name: 0 for name in CELL_KINDS.values()})
    for attr in problem.attributes:
        counts[CELL_KINDS[attr.kind]] += problem.n_plans
    return counts


def _deviation_pairs(x) -> dict:
    n, m = x.shape[0], x.shape[1]
    return {"kernels.deviation_pairs": m * n * (n - 1) // 2}


# Counts taken at a layer boundary: from a call's result, or from its arguments.
RESULT_COUNTS = {
    "problem.parse_ms": _problem_counts,
    "report.render_ms": lambda payload: {"report.bytes": len(payload)},
}
ARG_COUNTS = {"kernels.pairwise_deviation_ms": _deviation_pairs}


class Tracer:
    """Spans (sample, id, parent, metric, start, end) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.sample = -1
        self._stack: list[int] = []
        self._saved = [(mod, name, getattr(mod, name)) for mod, name, _ in TRACED]
        self._wrapped = [self.wrap(getattr(mod, name), metric) for mod, name, metric in TRACED]

    def wrap(self, fn, metric: str):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [self.sample, sid, parent, metric, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if metric in ARG_COUNTS:
                self.counts.update(ARG_COUNTS[metric](*args))
            if metric in RESULT_COUNTS:
                self.counts.update(RESULT_COUNTS[metric](result))
            return result
        return traced

    def install(self) -> None:
        for (mod, name, _), fn in zip(self._saved, self._wrapped):
            setattr(mod, name, fn)

    def uninstall(self) -> None:
        for mod, name, fn in self._saved:
            setattr(mod, name, fn)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per sample, each metric's summed self time in ms."""
        child_ms = [0.0] * len(self.spans)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_ms[parent] += (t1 - t0) * 1e3
        out: dict[int, dict[str, float]] = {}
        for (sample, sid, _, metric, t0, t1) in self.spans:
            per = out.setdefault(sample, {})
            per[metric] = per.get(metric, 0.0) + (t1 - t0) * 1e3 - child_ms[sid]
        return out


def _probe() -> float:
    """Wall ms of a fixed mix of Python object work and numpy array work."""
    t0 = time.perf_counter()
    json.dumps({f"p{i}": [i * 0.37, f"{i * 1.5:.6f}"] for i in range(400)})
    for _ in range(PROBE_REPEATS):
        np.abs(PROBE_ARRAY[:, None, :] - PROBE_ARRAY[None, :, :]).sum()
    return (time.perf_counter() - t0) * 1e3


def _solve(argv: list[str], out_file: Path | None) -> tuple[int, bytes, float]:
    """One call of the entry point: exit code, report bytes, wall ms."""
    if out_file is not None:
        out_file.unlink(missing_ok=True)
    saved, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
    try:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = (time.perf_counter() - t0) * 1e3
        sys.stdout.flush()
        payload = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = saved
    if out_file is not None and rc == 0:
        payload = out_file.read_bytes()
    return rc, payload, elapsed


def run(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    if src not in Path(greyrank.__file__).resolve().parents:
        raise SystemExit(f"greyrank was imported from {greyrank.__file__}, not from {src}")
    solves = spec["solves"]
    out_files = [Path(s["argv"][-1]) if "--out" in s["argv"] else None for s in solves]
    tracer = Tracer() if spec["trace"] else None

    expected: list[int] = []  # hash of each warm-up report
    for k, solve in enumerate(solves):
        rc, payload, _ = _solve(solve["argv"], out_files[k])
        if rc != 0:
            payload = b""
        expected.append(hash(payload))
        Path(spec["work"], f"output-{k}.bin").write_bytes(payload)
    del payload

    attempted = [0] * len(solves)
    failed = [0] * len(solves)
    plain_ms: list[float] = []
    plain_rel: list[float] = []  # each plain solve over the mean of its two probes
    traced_ms: list[float] = []
    deadline = time.perf_counter() + spec["seconds"]
    i = 0
    gc.collect()
    before = _probe()
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(solves)
        if tracer is not None:
            tracer.sample = i
            tracer.install()
        try:
            rc, payload, elapsed = _solve(solves[k]["argv"], out_files[k])
        finally:
            if tracer is not None:
                tracer.uninstall()
        gc.collect()
        after = _probe()
        if tracer is not None:
            traced_ms.append(elapsed)
        else:
            plain_ms.append(elapsed)
            plain_rel.append(elapsed / ((before + after) / 2))
        before = after
        attempted[k] += 1
        if rc != 0 or hash(payload) != expected[k]:
            failed[k] += 1
        del payload
        i += 1

    result = {
        "attempted": attempted,
        "failed": failed,
        "samples_ms": plain_ms,
        "samples_rel": plain_rel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "numba": using_numba(),
        },
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, traced_ms)
        with open(Path(spec["work"], "spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def _layer_metrics(tracer: Tracer, traced_ms: list[float]) -> dict:
    per_sample = tracer.self_times().values()
    names = sorted({name for _, _, name in TRACED})
    layers = {name: statistics.median(s.get(name, 0.0) for s in per_sample) for name in names}
    root_ms = [(t1 - t0) * 1e3 for _, _, parent, _, t0, t1 in tracer.spans if parent < 0]
    layers["trace.unaccounted_ms"] = statistics.median(
        wall - root for wall, root in zip(traced_ms, root_ms))
    spans_per_solve = statistics.median(Counter(span[0] for span in tracer.spans).values())
    layers["trace.overhead_ms"] = spans_per_solve * _wrapper_cost_ms()
    layers.update(tracer.counts)
    return layers


def _wrapper_cost_ms() -> float:
    """Extra ms of one traced call over a plain one, best of several rounds."""
    def empty():
        return None

    calibration = Tracer()
    wrapped = calibration.wrap(empty, "calibration")
    best = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        calibration.spans.clear()
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            empty()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) * 1e3 / CALIBRATION_CALLS)
    return best


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    Path(sys.argv[2]).write_text(json.dumps(run(spec)))


if __name__ == "__main__":
    main()
