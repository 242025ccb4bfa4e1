"""Seeded workload inputs and the checks applied to every solve's output.

Each workload turns a seed into problem files plus a list of ``greyrank
solve`` argument vectors. The checks compare outputs with an independent
reference computation written from the method's published formulas; it
shares no code with ``greyrank``. The reference is itself anchored to the
package: ``fixtures/fighter_grid.json`` holds the scores the package gave
for the fighter sweep at the commit that introduced this benchmark, and
every run first checks the reference against that fixture.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "fighter_grid.json"
WORKLOADS = ("fighter-sweep", "mixed-2k", "wide-json")
METHODS = ("topsis", "grey-approach", "membership", "max-entropy")
PUBLISHED_FIGHTER_ORDER = ["G2", "G5", "G1", "G3", "G4"]

# Score tolerances: text reports print six decimals, json-report prints
# full precision. The reference sums in another order than the package.
TEXT_TOL = 1e-6
JSON_TOL = 1e-9
REFERENCE_TOL = 1e-12

# The 11-term linguistic scale, index -5..5 worst to best. Term k is the
# triangle (max(k+4, 0), k+5, min(k+6, 10)) / 10.
LABELS = [
    "extremely low", "very low", "low", "comparatively low", "a little low", "general",
    "a little high", "comparatively high", "high", "very high", "extremely high",
]
DEFAULT_ALIASES = {
    "ordinary": "general",
    "rather low": "comparatively low",
    "rather high": "comparatively high",
}

# fighter-sweep cycles this grid of flag overrides over the bundled problem.
# The empty entry is the default-params solve with the published answer.
FIGHTER_GRID = [[]] + [
    ["--rho", rho, "--theta-plus", theta, "--borda-weights", borda]
    for rho in ("0.3", "0.5", "0.8")
    for theta in ("0.3", "0.6", "1.0")
    for borda in ("0.25,0.25,0.25,0.25", "0.4,0.2,0.2,0.2", "0.1,0.1,0.4,0.4")
]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _kinds_block(counts: dict[str, int], rng: random.Random) -> list[dict]:
    """Attributes in the given per-kind counts, directions drawn at random."""
    attrs = []
    for kind, count in counts.items():
        for _ in range(count):
            attrs.append({
                "id": f"A{len(attrs) + 1}",
                "kind": kind,
                "direction": rng.choice(("benefit", "cost")),
            })
    return attrs


def _cell(kind: str, rng: random.Random):
    if kind == "real":
        return round(rng.uniform(50.0, 5000.0), 3)
    if kind == "interval":
        lo = rng.uniform(10.0, 900.0)
        return {"interval": [round(lo, 3), round(lo + rng.uniform(0.0, 120.0), 3)]}
    if kind == "linguistic":
        return {"ling": rng.choice(LABELS)}
    lo, hi = sorted(rng.randrange(len(LABELS)) for _ in range(2))
    return {"uncertain": [LABELS[lo], LABELS[hi]]}


def synthetic_problem(n: int, counts: dict[str, int], seed: int, name: str) -> dict:
    """A random problem document with ``n`` plans and the given kind mix."""
    rng = random.Random(f"{name}:{seed}")
    attrs = _kinds_block(counts, rng)
    m = len(attrs)
    width = len(str(n))
    experts = []
    for _ in range(3):
        raw = [rng.uniform(0.5, 1.5) for _ in range(m)]
        total = sum(raw)
        experts.append([round(w / total, 6) for w in raw])
    return {
        "schema": 1,
        "name": name,
        "plans": [f"P{i:0{width}d}" for i in range(1, n + 1)],
        "attributes": attrs,
        "matrix": [[_cell(a["kind"], rng) for a in attrs] for _ in range(n)],
        "subjective_weights": {"experts": experts},
        "preferences": [
            sorted(round(rng.uniform(0.05, 0.6), 3) for _ in range(4)) for _ in range(n)
        ],
    }


def make_inputs(workload: str, seed: int, work: Path, fighter_src: Path) -> dict:
    """Write the workload's input files under ``work``; return its spec.

    The spec lists the argument vectors the client cycles through, the
    reference answer for each, and the report format.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload == "fighter-sweep":
        path = work / "fighter.json"
        shutil.copyfile(fighter_src, path)
        fixture = json.loads(FIXTURE.read_text())
        doc = json.loads(path.read_text())
        check_reference_against_fixture(doc, fixture)
        order = list(range(len(FIGHTER_GRID)))
        random.Random(f"{workload}:{seed}").shuffle(order)
        solves = [
            {
                "argv": ["solve", str(path), *FIGHTER_GRID[k]],
                "expect": fixture["grid"][k],
                "published": not FIGHTER_GRID[k],
            }
            for k in order
        ]
        return {"solves": solves, "format": "text"}
    if workload == "mixed-2k":
        counts = {"real": 3, "interval": 3, "linguistic": 2, "uncertain-linguistic": 2}
        doc = synthetic_problem(2000, counts, seed, workload)
        fmt, extra = "text", []
    elif workload == "wide-json":
        counts = {k: 100 for k in ("real", "interval", "linguistic", "uncertain-linguistic")}
        doc = synthetic_problem(100, counts, seed, workload)
        fmt, extra = "json-report", ["--format", "json-report", "--out", str(work / "report.json")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = work / f"{workload}.json"
    path.write_text(json.dumps(doc))
    expect = reference_solve(doc)
    return {
        "solves": [{"argv": ["solve", str(path), *extra], "expect": expect, "published": False}],
        "format": fmt,
    }


# ---------------------------------------------------------------------------
# Reference computation
# ---------------------------------------------------------------------------

def _term_index(label: str, aliases: dict[str, str]) -> int:
    key = " ".join(label.strip().lower().split())
    if key in aliases:
        key = " ".join(aliases[key].strip().lower().split())
    key = DEFAULT_ALIASES.get(key, key)
    return LABELS.index(key) - 5


def _triangle(k: np.ndarray) -> np.ndarray:
    """(L, M, U) of term indices ``k`` in -5..5, shape (n, 3)."""
    return np.stack([np.maximum(k + 4, 0), k + 5, np.minimum(k + 6, 10)], axis=1) / 10.0


def _normalized(doc: dict) -> np.ndarray:
    attrs = doc["attributes"]
    aliases = {" ".join(k.strip().lower().split()): v
               for k, v in (doc.get("linguistic_aliases") or {}).items()}
    rows = doc["matrix"]
    n = len(rows)
    x = np.empty((n, len(attrs), 4))
    for j, a in enumerate(attrs):
        col = [row[j] for row in rows]
        cost = a["direction"] == "cost"
        if a["kind"] in ("real", "interval"):
            lo = np.empty(n)
            hi = np.empty(n)
            for i, c in enumerate(col):
                if isinstance(c, dict) and "interval" in c:
                    lo[i], hi[i] = c["interval"]
                else:
                    lo[i] = hi[i] = c["real"] if isinstance(c, dict) else c
            if cost:
                lo, hi = 1.0 / hi, 1.0 / lo
            x[:, j] = np.stack([lo / hi.sum(), lo / hi.sum(), hi / lo.sum(), hi / lo.sum()], 1)
        elif a["kind"] == "linguistic":
            k = np.array([_term_index(c["ling"], aliases) for c in col])
            tri = _triangle(-k if cost else k)
            x[:, j] = tri[:, [0, 1, 1, 2]] / tri[:, 1].sum()
        else:
            k = np.array([[_term_index(t, aliases) for t in c["uncertain"]] for c in col])
            if cost:
                k = -k[:, ::-1]
            low, up = _triangle(k[:, 0]), _triangle(k[:, 1])
            trap = np.stack([low[:, 0], low[:, 1], up[:, 1], up[:, 2]], axis=1)
            x[:, j] = trap / np.array([low[:, 1].sum()] * 2 + [up[:, 1].sum()] * 2)
    return np.sort(x, axis=2)


def _deviation_totals(x: np.ndarray) -> np.ndarray:
    """Sum over ordered plan pairs of the 4-tuple distance, per attribute.

    A crisp column (all four components equal) uses the sorted-prefix
    identity sum_{i<k} |v_i - v_k| = sum_k (2k - n + 1) v_(k); any other
    column sums over its distinct tuples weighted by their multiplicities.
    """
    n, m, _ = x.shape
    out = np.zeros(m)
    for j in range(m):
        col = x[:, j, :]
        if (col == col[:, :1]).all():
            v = np.sort(col[:, 0])
            out[j] = 2.0 * 2.0 * float(((2.0 * np.arange(n) - n + 1) * v).sum())
            continue
        uniq, counts = np.unique(col, axis=0, return_counts=True)
        for start in range(0, len(uniq), 256):
            blk = uniq[start:start + 256]
            dist = np.sqrt(((blk[:, None, :] - uniq[None, :, :]) ** 2).sum(axis=2))
            out[j] += float(counts[start:start + 256] @ dist @ counts)
    return out


def _entropy_weights(v: np.ndarray) -> np.ndarray:
    n, m = v.shape
    if n == 1:
        return np.full(m, 1.0 / m)
    sums = v.sum(axis=0)
    eta = np.zeros(m)
    for j in range(m):
        if sums[j] <= 0:
            continue
        p = v[:, j] / sums[j]
        p = p[p > 0]
        eta[j] = max(1.0 + float((p * np.log(p)).sum()) / math.log(n), 0.0)
    return eta / eta.sum() if eta.sum() > 1e-15 else np.full(m, 1.0 / m)


def _ranks(s: np.ndarray) -> np.ndarray:
    """Competition ranks, 1 for the largest score."""
    srt = np.sort(s)
    return 1 + len(s) - np.searchsorted(srt, s, side="right")


def reference_solve(doc: dict, overrides: list[str] = ()) -> dict:
    """Method scores and final order for a problem document and CLI flags."""
    params = dict(doc.get("params") or {})
    flags = dict(zip(overrides[::2], overrides[1::2]))
    rho = float(flags.get("--rho", params.get("rho", 0.5)))
    theta_plus = float(flags.get("--theta-plus", params.get("theta_plus", 0.5)))
    theta_minus = 1.0 - theta_plus if "--theta-plus" in flags else float(
        params.get("theta_minus", 1.0 - theta_plus))
    borda_w = ([float(w) for w in flags["--borda-weights"].split(",")]
               if "--borda-weights" in flags else params.get("borda_weights", [0.25] * 4))

    x = _normalized(doc)
    n = x.shape[0]
    dev = _deviation_totals(x)
    cand = np.vstack([dev / dev.sum()] + [_entropy_weights(x[:, :, c]) for c in range(4)])
    b_lo, b_hi = cand.min(axis=0), cand.max(axis=0)
    subj = doc["subjective_weights"]
    if "experts" in subj:
        e = np.array(subj["experts"], dtype=float)
        a_lo, a_hi = e.min(axis=0), e.max(axis=0)
    else:
        a_lo, a_hi = np.array(subj["intervals"], dtype=float).T
    p_lo, p_hi = a_lo * b_lo, a_hi * b_hi
    w_lo, w_hi = p_lo / p_hi.sum(), p_hi / p_lo.sum()

    q = np.array(doc["preferences"], dtype=float)
    y = (q[:, None, :] + x) / 2.0 * np.stack([w_lo, w_lo, w_hi, w_hi], axis=1)
    pos, neg = y.max(axis=0), y.min(axis=0)

    dpos = np.sqrt(((y - pos) ** 2).sum(axis=(1, 2)))
    dneg = np.sqrt(((y - neg) ** 2).sum(axis=(1, 2)))
    tot = dpos + dneg
    topsis = np.where(tot > 0, dneg / np.where(tot > 0, tot, 1.0), 0.5)

    def degree(ideal):
        d = np.sqrt(((y - ideal) ** 2).sum(axis=2))
        if d.max() <= 0:
            return np.ones(n)
        return ((d.min() + rho * d.max()) / (d + rho * d.max())).mean(axis=1)

    gp, gm = degree(pos), degree(neg)
    approach = gp if theta_minus == 0 else gp * theta_plus / (gp * theta_plus + gm * theta_minus)
    membership = gp ** 2 / (gp ** 2 + gm ** 2)
    t = float((1.0 - gm).sum() - gp.sum())
    b1 = math.exp(-t) / (1.0 + math.exp(-t)) if t >= 0 else 1.0 / (1.0 + math.exp(t))
    entropy = b1 * gp + (1.0 - b1) * (1.0 - gm)
    scores = [topsis, approach, membership, entropy]

    borda = np.zeros(n)
    tiebreak = np.zeros(n)
    for w, s in zip(borda_w, scores):
        borda += w * (n - _ranks(s).astype(float))
        span = s.max() - s.min()
        if span > 0:
            tiebreak += (s - s.min()) / span
    order = sorted(range(n), key=lambda i: (-borda[i], -tiebreak[i], i))
    plans = doc["plans"]
    return {
        "scores": {name: s.tolist() for name, s in zip(METHODS, scores)},
        "final_order": [plans[i] for i in order],
    }


def check_reference_against_fixture(doc: dict, fixture: dict) -> None:
    """Raise if the reference disagrees with the package's recorded scores."""
    for flags, want in zip(FIGHTER_GRID, fixture["grid"]):
        got = reference_solve(doc, flags)
        problem = compare(got, want, REFERENCE_TOL)
        if problem:
            raise AssertionError(f"reference vs fixture, flags {flags}: {problem}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def compare(got: dict, want: dict, tol: float) -> str | None:
    """None when scores agree within ``tol`` and the final orders match."""
    for name in METHODS:
        g = np.asarray(got["scores"][name], dtype=float)
        w = np.asarray(want["scores"][name], dtype=float)
        if g.shape != w.shape or not np.isfinite(g).all():
            return f"{name}: scores missing or not finite"
        err = float(np.abs(g - w).max())
        if err > tol:
            return f"{name}: max score error {err:.3g} exceeds {tol:g}"
    if got["final_order"] != want["final_order"]:
        return "final order differs from the reference"
    return None


_FLOAT = re.compile(r"-?\d+\.\d+")


def parse_text_report(text: str) -> dict:
    """Method scores and final order from a text-format report."""
    lines = text.splitlines()
    start = lines.index("method scores (rows are plans):") + 2
    scores = {name: [] for name in METHODS}
    for line in lines[start:]:
        if not line.strip():
            break
        for name, value in zip(METHODS, _FLOAT.findall(line.split(None, 1)[1])):
            scores[name].append(float(value))
    final = next(line for line in lines if line.startswith("final ranking: "))
    return {"scores": scores, "final_order": final[len("final ranking: "):].split(" > ")}


def parse_json_report(text: str) -> dict:
    data = json.loads(text)
    return {
        "scores": {ms["method"]: ms["scores"] for ms in data["methods"]},
        "final_order": data["final_ranking"],
    }


def check_output(payload: bytes, solve: dict, fmt: str) -> str | None:
    """None when one solve's report is correct, else what is wrong."""
    text = payload.decode("utf-8")
    try:
        got = parse_text_report(text) if fmt == "text" else parse_json_report(text)
    except (ValueError, KeyError, StopIteration) as exc:
        return f"unreadable report: {exc!r}"
    want = solve["expect"]
    if sorted(got["final_order"]) != sorted(want["final_order"]):
        return "final ranking is not a permutation of the plans"
    if solve["published"] and got["final_order"] != PUBLISHED_FIGHTER_ORDER:
        return f"default fighter order {got['final_order']} is not the published one"
    return compare(got, want, TEXT_TOL if fmt == "text" else JSON_TOL)
