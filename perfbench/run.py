"""End-to-end and per-layer benchmark of ``greyrank solve``.

Run from the repository root::

    python3 perfbench/run.py --workload mixed-2k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --steadiness [--workload W ...]

One run generates the workload's inputs from ``--seed``, measures set-up
time, then starts one fresh child interpreter (``child.py``) that solves the
workload in-process through ``greyrank.cli.main`` with a single closed-loop
client for ``--seconds``. The child runs with one BLAS/OpenMP thread and a
fixed hash seed. Every solve's report is checked (see ``workloads.py``).
Human-readable lines come first; the last line is one JSON object with the
metrics that ``BENCHMARK.json`` declares: its ``end_to_end`` metrics with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

End-to-end metrics, lower is better for each:

* ``solve_rel_p50`` -- median over solves of the wall time of one
  ``cli.main`` solve (JSON load, parse, pipeline, render, write) divided by
  the mean wall time of the fixed probe timed just before and just after it
  (see ``child.py``), in multiples of the probe. This is the declared latency
  metric because the host's speed drifts by tens of percent for seconds to
  minutes at a time, which moves the solve and the probe alike. The plain
  median ``solve_ms_p50`` is printed too, and ``solve_ms_p90`` when at least
  100 samples leave ten beyond it, which in practice is fighter-sweep.
* ``peak_rss_mb`` -- ``ru_maxrss`` of the child, in MiB.
* ``setup_s`` -- fresh interpreter to ``import greyrank.cli`` done, median of
  launches made half before and half after the timed solves, so they sample
  two moments of the host's drift; one untimed launch first warms the
  bytecode cache.
* ``failed_share`` -- failed over attempted solves; printed, and reported as
  the ``failed``/``attempted`` fields of the JSON line.

``--steadiness`` runs the benchmark in two sets of ten runs per workload,
each run on a new seed, and prints every end-to-end metric's median, quartiles
and spread against its bound, and how far the two sets' medians disagree, in
either direction. It exits with 1 when a spread or a disagreement exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_output, make_inputs

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_LAUNCHES = 6  # timed launches before, and again after, the timed solves
RUNS = 10  # runs per workload in one steadiness set
SETS = 2
CHILD_GRACE_S = 100
P90_MIN_SAMPLES = 100


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def measure_setup(root: Path, env: dict, launches: int) -> list[float]:
    """Seconds from interpreter launch to ``import greyrank.cli`` done, per launch."""
    code = "import time, greyrank.cli; print(time.monotonic())"
    times = []
    for _ in range(launches):
        start = time.monotonic()  # system-wide clock, comparable across processes
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout) - start)
    return times


def _declared(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(args: argparse.Namespace) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "greyrank" / "cli.py").is_file():
        print(f"perfbench: no greyrank sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = _declared(root)
    workload = args.workload[0]
    work = root / WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_1m = os.getloadavg()[0]
    env = child_env(src)

    spec = make_inputs(workload, args.seed, work, src / "greyrank" / "data" / "fighter.json")
    if not args.trace:
        measure_setup(root, env, 1)  # untimed: warms the bytecode cache
        setup_times = measure_setup(root, env, SETUP_LAUNCHES)
    child_spec = {
        "src": str(src),
        "work": str(work),
        "solves": [{"argv": s["argv"]} for s in spec["solves"]],
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    (work / "spec.json").write_text(json.dumps(child_spec))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(work / "spec.json"),
                    str(work / "result.json")], env=env, cwd=root, check=True,
                   timeout=args.seconds + CHILD_GRACE_S)
    result = json.loads((work / "result.json").read_text())
    if not args.trace:
        setup_times += measure_setup(root, env, SETUP_LAUNCHES)

    failed = 0
    for k, solve in enumerate(spec["solves"]):
        problem = check_output((work / f"output-{k}.bin").read_bytes(), solve, spec["format"])
        if problem:
            print(f"check failed: {' '.join(solve['argv'][2:]) or 'default flags'}: {problem}")
            failed += result["attempted"][k]
        else:
            failed += result["failed"][k]
    attempted = sum(result["attempted"])

    env_rec = result["env"]
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    why = next(w["why"] for w in declared["workloads"] if w["name"] == workload)
    print(f"  why: {why}")
    print(f"env python {env_rec['python']}  numpy {env_rec['numpy']}  numba {env_rec['numba']}"
          f"  nproc {len(os.sched_getaffinity(0))}  loadavg_1m {load_1m:.2f}"
          f"  blas_threads 1  PYTHONHASHSEED 0")
    samples = result["samples_ms"]
    if args.trace:
        layers = result["layers"]
        declared_metrics = declared["per_layer"]
        times = sorted((v, k) for k, v in layers.items() if k.endswith("ms")
                       and not k.startswith("trace."))
        print(f"per-layer self times, median of {attempted} traced solves:")
        for value, name in reversed(times):
            print(f"  {name:<32} {value:10.4f} ms")
        print(f"  largest self time: {times[-1][1]}")
        print(f"spans: {work / 'spans.jsonl'}")
        values = layers
    else:
        rel_p50 = statistics.median(result["samples_rel"])
        print(f"solve_rel_p50 {rel_p50:.5f} x  (n={len(samples)} solves)")
        print(f"solve_ms_p50  {statistics.median(samples):.4f} ms  (n={len(samples)} solves)")
        if len(samples) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(samples, n=10)[-1]
            print(f"solve_ms_p90  {p90:.4f} ms  (n={len(samples)} solves)")
        else:
            print(f"solve_ms_p90  not reported: {len(samples)} solves leave fewer than 10 "
                  f"beyond the 90th percentile")
        print(f"peak_rss_mb   {result['peak_rss_mb']:.3f} MiB")
        setup_s = statistics.median(setup_times)
        print(f"setup_s       {setup_s:.4f} s  (median of {len(setup_times)} launches)")
        declared_metrics = declared["end_to_end"]
        values = {"solve_rel_p50": rel_p50, "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": setup_s}
    print(f"failed_share  {failed / attempted:.6g}  ({failed}/{attempted} solves)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics},
    }))
    return 0


def steadiness(args: argparse.Namespace) -> int:
    root = Path.cwd()
    declared = _declared(root)
    seconds = args.seconds or declared["run_seconds"]
    names = args.workload or [w["name"] for w in declared["workloads"]]
    values: dict[tuple, list[float]] = {}
    ok = True
    for s in range(SETS):
        for i in range(RUNS):
            for name in names:
                seed = 1000 * (s + 1) + i
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                      timeout=seconds + 2 * CHILD_GRACE_S)
                if done.returncode != 0:
                    print(done.stdout + done.stderr, file=sys.stderr)
                    return 1
                res = json.loads(done.stdout.strip().splitlines()[-1])
                ok &= res["correct"] and res["failed"] == 0
                line = "  ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                print(f"set {s + 1} run {i + 1} {name} seed {seed}: {line}"
                      f"  failed {res['failed']}/{res['attempted']}", file=sys.stderr)
                for metric, v in res["metrics"].items():
                    values.setdefault((s, name, metric), []).append(v["value"])

    print(f"{'workload':<14} {'metric':<13} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11}"
          f" {'spread':>8} {'bound':>6}  verdict")
    for name in names:
        for metric in declared["end_to_end"]:
            medians = []
            for s in range(SETS):
                vals = values[(s, name, metric["name"])]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians.append(med)
                spread = (q3 - q1) / med
                if spread < metric["bound"] / 3:
                    verdict = "steady"
                elif spread <= metric["bound"]:
                    verdict = "within bound, above a third of it"
                else:
                    verdict, ok = "TOO NOISY", False
                print(f"{name:<14} {metric['name']:<13} {s + 1:>3} {med:>11.5g} {q1:>11.5g}"
                      f" {q3:>11.5g} {spread:>8.2%} {metric['bound']:>6.0%}  {verdict}")
            for s in range(1, SETS):
                apart = abs(medians[s] - medians[0]) / medians[0]
                agree = apart <= metric["bound"]
                ok &= agree
                print(f"{name:<14} {metric['name']:<13} set {s + 1} vs 1: medians "
                      f"{apart:.2%} apart (bound {metric['bound']:.0%})  "
                      f"{'agree' if agree else 'DISAGREE'}")
    print("steadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable with --steadiness)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    if args.seconds is None:
        args.seconds = _declared(Path.cwd())["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
