"""Problem-file ingestion and validation.

Problem files are JSON documents with ``"schema": 1``:

* ``plans`` — list of plan names.
* ``attributes`` — list of ``{"id", "kind", "direction"}`` where kind is one
  of ``real | interval | linguistic | uncertain-linguistic`` and direction is
  ``benefit | cost``.
* ``matrix`` — n rows of m cells. Cells are tagged unions: a bare number or
  ``{"real": 3610}``, ``{"interval": [465, 485]}``, ``{"ling": "high"}``, or
  ``{"uncertain": ["a little high", "high"]}``.
* ``subjective_weights`` — either ``{"experts": [[...], ...]}`` (one weight
  vector per expert, enveloped coordinatewise) or
  ``{"intervals": [[lo, hi], ...]}`` giving the envelope directly.
* ``preferences`` — one ascending, nonnegative 4-tuple per plan, the
  decision maker's prior preference for that plan.
* ``params`` — optional: ``rho``, ``theta_plus``, ``theta_minus``,
  ``borda_weights`` (4 values), ``tie_break``.
* ``linguistic_aliases`` — optional extra label spellings, mapped onto the
  canonical 11-term scale.
* ``name``, ``notes`` — optional free text; either must be a string.

Plan names, attribute ids, alias keys and targets, ``name`` and ``notes`` are
written into every report, which is UTF-8, so none may hold a lone surrogate
(a JSON escape such as ``"\\ud800"`` can spell one).

Every violation is reported with the plan/attribute location that caused it.
The matrix is validated a cell kind at a time: one pass per check over all
the cells of a kind, gathered in row order, then finiteness and order once
over the whole matrix. The columns of a kind that fails, and those with a
non-finite or descending bound, are validated cell by cell. The preferences,
expert vectors and subjective intervals are checked in one pass each, or
else one entry at a time. The matrix is stored as one float array
of bounds, :attr:`DecisionProblem.raw`, of shape (n, m, 2): ``(lo, hi)`` for
real and interval cells (a real ``v`` is ``(v, v)``), and ``(lower, upper)``
term indices in -5..5 for linguistic and uncertain cells (a term ``k`` is
``(k, k)``). The column kinds in :attr:`DecisionProblem.attributes` say which
reading applies.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .aggregate import BordaConfig
from .errors import ValidationError, located
from .evaluate import MethodParams
from .normalize import AttributeSpec
from .values import fold_label, term_index, term_indices
from .weights import subjective_interval_weights

__all__ = ["DecisionProblem", "parse_problem", "parse_problem_dict"]

SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {
    "schema",
    "name",
    "notes",
    "plans",
    "attributes",
    "matrix",
    "subjective_weights",
    "preferences",
    "params",
    "linguistic_aliases",
}

_PARAM_KEYS = {"rho", "theta_plus", "theta_minus", "borda_weights", "tie_break"}


@dataclass
class DecisionProblem:
    """A fully validated decision problem, ready for the pipeline."""

    name: str
    plans: list[str]
    attributes: list[AttributeSpec]
    raw: np.ndarray  # (n, m, 2) cell bounds; see the module docstring
    subjective: np.ndarray  # (m, 2) interval weights, (lo, hi) rows
    experts: np.ndarray | None  # (k, m) expert vectors, or None for given intervals
    preferences: np.ndarray  # (n, 4)
    params: MethodParams
    borda: BordaConfig
    aliases: dict[str, str]
    notes: str | None

    @property
    def subjective_source(self) -> str:
        return "intervals" if self.experts is None else "experts"

    @property
    def n_plans(self) -> int:
        return len(self.plans)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _require_utf8(text: str, where: str, *args) -> None:
    """Reports are UTF-8, which cannot encode a string with a lone surrogate.

    The error names ``where % args``, formatted only when it is raised.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(
            f"{where % args}: {text!r} has a lone surrogate, which UTF-8 cannot encode"
        ) from None


def _as_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # JSON integers are unbounded; this one has no finite float value
        raise ValidationError("non-finite number, integer too large for a float") from None


def _parse_cell(raw, kind: str, terms: dict[str, int], where: str) -> tuple[float, float]:
    """Validate one cell and return its bounds: values, or term indices in ``terms``."""
    with located(where):
        if kind == "real":
            if isinstance(raw, dict):
                if set(raw) != {"real"}:
                    raise ValidationError(
                        f"real cell must be a number or {{\"real\": v}}, got {raw!r}"
                    )
                raw = raw["real"]
            value = _as_number(raw)
            if not math.isfinite(value):
                raise ValidationError(f"non-finite real cell {value}")
            return value, value
        if kind == "interval":
            if not (isinstance(raw, dict) and set(raw) == {"interval"}):
                raise ValidationError(
                    f"interval cell must look like {{\"interval\": [lo, hi]}}, got {raw!r}"
                )
            bounds = raw["interval"]
            if not (isinstance(bounds, list) and len(bounds) == 2):
                raise ValidationError(f"interval needs exactly two bounds, got {bounds!r}")
            lo, hi = _as_number(bounds[0]), _as_number(bounds[1])
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(f"non-finite interval bound in [{lo}, {hi}]")
            if lo > hi:
                raise ValidationError(f"interval bounds out of order: [{lo}, {hi}]")
            return lo, hi
        if kind == "linguistic":
            if not (isinstance(raw, dict) and set(raw) == {"ling"} and isinstance(raw["ling"], str)):
                raise ValidationError(
                    f"linguistic cell must look like {{\"ling\": \"high\"}}, got {raw!r}"
                )
            k = term_index(raw["ling"], terms)
            return k, k
        # uncertain-linguistic
        if not (isinstance(raw, dict) and set(raw) == {"uncertain"}):
            raise ValidationError(
                f"uncertain cell must look like {{\"uncertain\": [\"low\", \"high\"]}}, "
                f"got {raw!r}"
            )
        pair = raw["uncertain"]
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(t, str) for t in pair)):
            raise ValidationError(f"uncertain cell needs two term labels, got {pair!r}")
        lower, upper = term_index(pair[0], terms), term_index(pair[1], terms)
        if lower > upper:
            raise ValidationError(
                f"uncertain linguistic range out of order: [{pair[0]!r}, {pair[1]!r}]"
            )
        return lower, upper


# What the one-pass checks below raise on input they leave to the per-cell loop.
_NOT_BULK = (LookupError, TypeError, ValueError, OverflowError)
_NUMBER_TYPES = {int, float}
_CELL_KEY = {"interval": "interval", "linguistic": "ling", "uncertain-linguistic": "uncertain"}


def _only(values, types: set) -> None:
    """Raise TypeError unless every value's exact type is in ``types``."""
    if not set(map(type, values)) <= types:
        raise TypeError("not a bulk column")


def _bulk_bounds(rows: list, js: list[int], kind: str, terms: dict[str, int]) -> np.ndarray:
    """The (len(rows), len(js), 2) bounds of columns ``js``, all of ``kind``.

    Gathers the cells in row order, the order the decoder made them in.
    Accepts bare numbers, ``[lo, hi]`` number pairs and term labels spelled
    exactly as a key of ``terms``: a subset of what :func:`_parse_cell`
    accepts, with the same bounds as long as every bound is finite and no
    pair is out of order, which the caller checks. Anything else raises one
    of ``_NOT_BULK``.
    """
    get = itemgetter(*js)
    cells = list(map(get, rows)) if len(js) == 1 else list(chain.from_iterable(map(get, rows)))
    if kind == "real":
        _only(cells, _NUMBER_TYPES)
        values, count = cells, len(cells)
    else:
        _only(cells, {dict})
        if set(map(len, cells)) != {1}:
            raise ValueError("not a bulk column")
        inner = list(map(itemgetter(_CELL_KEY[kind]), cells))
        if kind == "linguistic":
            values, count = map(terms.__getitem__, inner), len(cells)
        else:
            _only(inner, {list})
            if set(map(len, inner)) != {2}:
                raise ValueError("not a bulk column")
            values, count = chain.from_iterable(inner), 2 * len(cells)
            if kind == "interval":
                _only(chain.from_iterable(inner), _NUMBER_TYPES)
            else:
                values = map(terms.__getitem__, values)
    # raises OverflowError on an integer too large for a float
    bounds = np.fromiter(values, np.float64, count)
    if count == len(cells):  # a real or a term is its own pair
        bounds = bounds.repeat(2)
    return bounds.reshape(len(rows), len(js), 2)


def _parse_matrix(
    rows: list, plans: list[str], attributes: list[AttributeSpec], terms: dict[str, int]
) -> np.ndarray:
    """The (len(rows), m, 2) bounds of well-shaped matrix rows, a kind at a time.

    The columns of a kind that :func:`_bulk_bounds` rejects, and those whose
    bounds are not finite and in order, go through :func:`_parse_cell` in
    row-major order, so the first bad cell raises the same located message
    as a cell-by-cell pass would.
    """
    k = len(rows)
    kinds: dict[str, list[int]] = {}
    for j, attr in enumerate(attributes):
        kinds.setdefault(attr.kind, []).append(j)
    order, parts, slow = [], [], []
    for kind, js in kinds.items():
        order += js
        try:
            parts.append(_bulk_bounds(rows, js, kind, terms))
        except _NOT_BULK:
            parts.append(np.zeros((k, len(js), 2)))
            slow += js
    raw = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
    if order != sorted(order):
        raw = raw[:, np.argsort(order)]
    lo, hi = raw[..., 0], raw[..., 1]
    if not (np.isfinite(raw).all() and (lo <= hi).all()):
        bad = ~(np.isfinite(raw).all(axis=2) & (lo <= hi)).all(axis=0)
        slow += np.flatnonzero(bad).tolist()
    slow.sort()
    for i in range(k if slow else 0):
        for j in slow:
            where = f"plan {plans[i]!r}, attribute {attributes[j].id!r}"
            raw[i, j] = _parse_cell(rows[i][j], attributes[j].kind, terms, where)
    return raw


def _number_rows(entries: list, width: int, ok, parse_entry, names: list[str]) -> np.ndarray:
    """The (len(entries), width) float array of rows of numbers.

    One pass checks that every entry is a list of ``width`` numbers, and that
    ``ok(entries)``, the caller's range check, holds. Otherwise each entry
    goes through ``parse_entry(entry, i, names)``, which names the first bad
    one.
    """
    try:
        _only(entries, {list})
        _only(chain.from_iterable(entries), _NUMBER_TYPES)
        # raises ValueError on rows of unequal widths, and OverflowError on
        # an integer too large for a float
        rows = np.array(entries, dtype=np.float64)
        if rows.shape[1] == width and ok(entries):
            return rows
    except _NOT_BULK:
        pass
    return np.array([parse_entry(entry, i, names) for i, entry in enumerate(entries)],
                    dtype=np.float64)


def _parse_preferences(entries: list, plans: list[str]) -> np.ndarray:
    """The (n, 4) preferences."""
    return _number_rows(
        entries, 4, lambda rows: all(0 <= a <= b <= c <= d < math.inf for a, b, c, d in rows),
        _parse_preference, plans,
    )


def _parse_preference(entry, i: int, plans: list[str]) -> list[float]:
    """Plan ``i``'s preference: one ascending, finite, nonnegative 4-tuple of numbers."""
    with located(f"preference for plan {plans[i]!r}"):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 4):
            raise ValidationError(f"expected 4 components, got {entry!r}")
        q = [_as_number(v) for v in entry]
        if not all(math.isfinite(v) for v in q):
            raise ValidationError(f"non-finite component in 4-tuple {q}")
        if not q[0] <= q[1] <= q[2] <= q[3]:
            raise ValidationError(f"4-tuple components not ascending: {q}")
        if q[0] < 0:
            raise ValidationError(f"4-tuple components must be nonnegative: {q}")
        return q


def _parse_aliases(data) -> tuple[dict[str, str], dict[str, int]]:
    """The aliases keyed by their folded spellings, and the label table they give."""
    data = {} if data is None else data
    _require(isinstance(data, dict), "linguistic_aliases must be an object")
    for key, value in data.items():
        if not (isinstance(key, str) and isinstance(value, str)):
            raise ValidationError(f"linguistic_aliases entry {key!r}: both sides must be strings")
        _require_utf8(key, "linguistic_aliases key")
        _require_utf8(value, "linguistic_aliases entry %r: target", key)
    return {fold_label(key): value for key, value in data.items()}, term_indices(data)


def _parse_experts(vectors: list, ids: list[str]) -> np.ndarray:
    """The (k, m) expert vectors."""
    return _number_rows(
        vectors, len(ids), lambda rows: all(0 <= w < math.inf for w in chain.from_iterable(rows)),
        _parse_expert, ids,
    )


def _parse_expert(vec, i: int, ids: list[str]) -> list[float]:
    """Expert ``i``'s vector: one finite, nonnegative weight per attribute."""
    if not (isinstance(vec, list) and len(vec) == len(ids)):
        raise ValidationError(f"expert vector {i} must list {len(ids)} weights")
    row = []
    for attr_id, value in zip(ids, vec):
        with located(f"expert {i}, attribute {attr_id!r}"):
            w = _as_number(value)
            if not (math.isfinite(w) and w >= 0):
                raise ValidationError(f"weight must be finite and nonnegative, got {w}")
        row.append(w)
    return row


def _parse_intervals(intervals: list, ids: list[str]) -> np.ndarray:
    """The (m, 2) subjective interval weights."""
    return _number_rows(
        intervals, 2, lambda rows: all(0 <= lo <= hi < math.inf for lo, hi in rows),
        _parse_interval, ids,
    )


def _parse_interval(pair, j: int, ids: list[str]) -> tuple[float, float]:
    """The subjective weight of attribute ``j``: finite ``0 <= lo <= hi``."""
    with located(f"subjective weight for attribute {ids[j]!r}"):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValidationError(f"expected a [lo, hi] pair, got {pair!r}")
        lo, hi = _as_number(pair[0]), _as_number(pair[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
            raise ValidationError(f"requires finite 0 <= lo <= hi, got [{lo}, {hi}]")
    return lo, hi


def _parse_subjective(data, ids: list[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """The (m, 2) interval weights, and the expert vectors they come from, if any."""
    _require(isinstance(data, dict), "subjective_weights must be an object")
    m = len(ids)
    keys = set(data)
    if keys == {"experts"}:
        vectors = data["experts"]
        _require(
            isinstance(vectors, list) and len(vectors) >= 1,
            "subjective_weights.experts must be a nonempty list of weight vectors",
        )
        experts = _parse_experts(vectors, ids)
        return subjective_interval_weights(experts, ids), experts
    if keys == {"intervals"}:
        intervals = data["intervals"]
        if not (isinstance(intervals, list) and len(intervals) == m):
            raise ValidationError(f"subjective_weights.intervals must list {m} [lo, hi] pairs")
        return _parse_intervals(intervals, ids), None
    raise ValidationError(
        "subjective_weights must contain exactly one of 'experts' or 'intervals'"
    )


def _parse_params(params) -> tuple[MethodParams, BordaConfig]:
    params = {} if params is None else params
    _require(isinstance(params, dict), "params must be an object")
    unknown = set(params) - _PARAM_KEYS
    if unknown:
        raise ValidationError(f"unknown params keys: {sorted(unknown)}")
    with located("params.rho"):
        rho = _as_number(params.get("rho", 0.5))
    with located("params.theta_plus"):
        theta_plus = _as_number(params.get("theta_plus", 0.5))
    with located("params.theta_minus"):
        theta_minus = _as_number(params.get("theta_minus", 1.0 - theta_plus))
    with located("params"):
        mp = MethodParams(rho=rho, theta_plus=theta_plus, theta_minus=theta_minus)
    weights = params.get("borda_weights", [0.25, 0.25, 0.25, 0.25])
    _require(
        isinstance(weights, (list, tuple)) and len(weights) == 4,
        "params.borda_weights must list 4 method weights",
    )
    tie_break = params.get("tie_break", "normalized-score-sum")
    with located("params.borda_weights"):
        method_weights = tuple(map(_as_number, weights))
    with located("params"):
        borda = BordaConfig(method_weights=method_weights, tie_break=tie_break)
    return mp, borda


def parse_problem_dict(data: dict, source: str = "<memory>") -> DecisionProblem:
    """Validate a problem document and build a :class:`DecisionProblem`."""
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: problem document must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValidationError(
            f"missing or unsupported schema version {schema!r}; expected {SCHEMA_VERSION}"
        )

    plans = data.get("plans")
    _require(
        isinstance(plans, list) and len(plans) >= 1 and all(isinstance(p, str) for p in plans),
        "plans must be a nonempty list of names",
    )
    _require(len(set(plans)) == len(plans), "plan names must be unique")
    try:
        "".join(plans).encode("utf-8")
    except UnicodeEncodeError:  # find and name the plan
        for i, plan in enumerate(plans):
            _require_utf8(plan, "plan %d", i)

    raw_attrs = data.get("attributes")
    _require(
        isinstance(raw_attrs, list) and len(raw_attrs) >= 1,
        "attributes must be a nonempty list",
    )
    attributes = []
    for j, entry in enumerate(raw_attrs):
        if not (isinstance(entry, dict) and {"id", "kind", "direction"} <= set(entry)):
            raise ValidationError(f"attribute {j} must carry id, kind, and direction")
        extra = set(entry) - {"id", "kind", "direction"}
        if extra:
            raise ValidationError(f"attribute {j}: unknown keys {sorted(extra)}")
        if not isinstance(entry["id"], str):
            raise ValidationError(f"attribute {j}: id must be a string, got {entry['id']!r}")
        _require_utf8(entry["id"], "attribute %d: id", j)
        attributes.append(AttributeSpec(entry["id"], entry["kind"], entry["direction"]))
    ids = [a.id for a in attributes]
    _require(len(set(ids)) == len(ids), "attribute ids must be unique")

    aliases, terms = _parse_aliases(data.get("linguistic_aliases"))

    n, m = len(plans), len(attributes)
    matrix = data.get("matrix")
    if not (isinstance(matrix, list) and len(matrix) == n):
        raise ValidationError(f"matrix must have one row per plan ({n} rows)")
    # cells in rows above a malformed row are checked, and located, first
    short = next((i for i, row in enumerate(matrix)
                  if not (isinstance(row, list) and len(row) == m)), n)
    raw = _parse_matrix(matrix[:short], plans, attributes, terms)
    if short < n:
        raise ValidationError(f"plan {plans[short]!r}: matrix row must have {m} cells")

    _require("subjective_weights" in data, "subjective_weights is required")
    subjective, experts = _parse_subjective(data["subjective_weights"], ids)
    # all lower bounds zero make the composite weights' lower sum zero
    _require(subjective[:, 0].any(), "subjective_weights: every lower bound is zero")

    prefs_raw = data.get("preferences")
    if not (isinstance(prefs_raw, list) and len(prefs_raw) == n):
        raise ValidationError(f"preferences must list one 4-tuple per plan ({n} entries)")
    prefs = _parse_preferences(prefs_raw, plans)

    params, borda = _parse_params(data.get("params"))

    # the default is built only when needed: a Path is slow to build
    name = data["name"] if "name" in data else Path(source).stem if source else "problem"
    _require(isinstance(name, str), "name must be a string")
    notes = data.get("notes")
    _require("notes" not in data or isinstance(notes, str), "notes must be a string")
    _require_utf8(name, "name")
    if notes is not None:
        _require_utf8(notes, "notes")

    return DecisionProblem(
        name=name,
        plans=list(plans),
        attributes=attributes,
        raw=raw,
        subjective=subjective,
        experts=experts,
        preferences=prefs,
        params=params,
        borda=borda,
        aliases=aliases,
        notes=notes,
    )


def _load_document(source: str):
    """The problem document in the JSON file ``source``, or the problem a
    json-report in it embeds.

    An unreadable file, invalid JSON and a document nested past the
    recursion limit raise ValidationError; every message, the OS error's
    included, quotes ``source`` as given.
    """
    try:
        with open(source, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise ValidationError(f"{source}: cannot read problem file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{source}: not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{source}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{source}: the document is nested too deeply") from exc
    if isinstance(data, dict) and "problem" in data and "final_ranking" in data:
        return data["problem"]
    return data


class _collector_paused:
    """A context that pauses the cyclic garbage collector while a decoded
    document is alive: open it before the decode, close it once the document
    is freed.

    A decoded document is tens of thousands of acyclic containers on a large
    file. With the collector running, they set off dozens of collections
    during the decode; paused for the decode alone, the first allocation
    after it scans them all at once. Freed while the collector is paused,
    they are never scanned. ``cli.main`` keeps it open through the pipeline
    and the render as well, which make no garbage cycles; a json-report's
    problem echo is thousands more acyclic containers. The caller's
    collector state is restored. A class, not a ``contextlib`` generator,
    which cost a fighter solve about 7 µs.
    """

    __slots__ = ("enabled",)

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, kind, exc, tb) -> None:
        if self.enabled:
            gc.enable()


def parse_problem(path: str | Path) -> DecisionProblem:
    """Load and validate a problem file, or the problem a json-report embeds."""
    source = str(path)
    with _collector_paused():
        return parse_problem_dict(_load_document(source), source=source)
