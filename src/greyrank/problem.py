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
The matrix is validated a column at a time, in one pass per check over the
column or, where that fails, cell by cell; the preferences and expert
vectors are checked the same way. The matrix is stored as one float array
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
from operator import itemgetter, le
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


def _finite_numbers(values) -> None:
    """Raise one of ``_NOT_BULK`` unless every value is an int or float, finite as a float."""
    _only(values, _NUMBER_TYPES)
    # math.isfinite raises OverflowError on an integer too large for a float
    if not all(map(math.isfinite, values)):
        raise ValueError("not a bulk column")


def _bulk_column(cells: tuple, kind: str, terms: dict[str, int]) -> list:
    """One column's k lower bounds, then its k upper bounds.

    Accepts bare numbers, ``[lo, hi]`` number pairs and term labels spelled
    exactly as a key of ``terms``, when every bound is finite and no pair is
    out of order: a subset of what :func:`_parse_cell` accepts, with the same
    bounds. Anything else raises one of ``_NOT_BULK``.
    """
    if kind == "real":
        _finite_numbers(cells)
        return list(cells) * 2
    _only(cells, {dict})
    if set(map(len, cells)) != {1}:
        raise ValueError("not a bulk column")
    inner = list(map(itemgetter(_CELL_KEY[kind]), cells))
    if kind == "linguistic":  # term indices: finite, and a term is its own pair
        return list(map(terms.__getitem__, inner)) * 2
    _only(inner, {list})
    if set(map(len, inner)) != {2}:
        raise ValueError("not a bulk column")
    flat = list(chain.from_iterable(inner))
    if kind == "interval":
        _finite_numbers(flat)
    else:
        flat = list(map(terms.__getitem__, flat))
    lo, hi = flat[0::2], flat[1::2]
    if not all(map(le, lo, hi)):
        raise ValueError("not a bulk column")
    return lo + hi


def _parse_matrix(
    rows: list, plans: list[str], attributes: list[AttributeSpec], terms: dict[str, int]
) -> np.ndarray:
    """The (len(rows), m, 2) bounds of well-shaped matrix rows, a column at a time.

    The columns :func:`_bulk_column` rejects go through :func:`_parse_cell`
    in row-major order, so the first bad cell raises the same located
    message as a cell-by-cell pass would.
    """
    k, m = len(rows), len(attributes)
    flat: list = []
    slow = []
    for j, (attr, cells) in enumerate(zip(attributes, zip(*rows))):
        try:
            flat += _bulk_column(cells, attr.kind, terms)
        except _NOT_BULK:
            flat += [0.0] * (2 * k)
            slow.append(j)
    raw = np.array(flat, dtype=np.float64).reshape(m, 2, k).transpose(2, 0, 1).copy()
    for i in range(k if slow else 0):
        for j in slow:
            where = f"plan {plans[i]!r}, attribute {attributes[j].id!r}"
            raw[i, j] = _parse_cell(rows[i][j], attributes[j].kind, terms, where)
    return raw


def _parse_preferences(entries: list, plans: list[str]) -> np.ndarray:
    """The (n, 4) preferences: one pass over all entries, or else one at a time."""
    try:
        _only(entries, {list, tuple})
        _only(chain.from_iterable(entries), _NUMBER_TYPES)
        # unpacking raises ValueError on an entry that is not a 4-tuple
        if all(0 <= a <= b <= c <= d < math.inf for a, b, c, d in entries):
            return np.array(entries, dtype=np.float64)
    except _NOT_BULK:
        pass
    return np.array(
        [_parse_preference(entry, f"preference for plan {plans[i]!r}")
         for i, entry in enumerate(entries)],
        dtype=np.float64,
    )


def _parse_preference(entry, where: str) -> list[float]:
    """One ascending, finite, nonnegative 4-tuple of numbers."""
    with located(where):
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
    """The (k, m) expert vectors: one pass over all values, or else one vector at a time."""
    try:
        _only(vectors, {list})
        if set(map(len, vectors)) == {len(ids)}:
            _only(chain.from_iterable(vectors), _NUMBER_TYPES)
            # raises OverflowError on an integer too large for a float
            experts = np.array(vectors, dtype=np.float64)
            if (experts >= 0).all() and np.isfinite(experts).all():
                return experts
    except _NOT_BULK:
        pass
    return np.array([_parse_expert(vec, i, ids) for i, vec in enumerate(vectors)],
                    dtype=np.float64)


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
        return subjective_interval_weights(experts), experts
    if keys == {"intervals"}:
        intervals = data["intervals"]
        if not (isinstance(intervals, list) and len(intervals) == m):
            raise ValidationError(f"subjective_weights.intervals must list {m} [lo, hi] pairs")
        rows = []
        for attr_id, pair in zip(ids, intervals):
            # the messages are formatted only on failure: a pair's repr costs
            # more than its checks
            with located(f"subjective weight for attribute {attr_id!r}"):
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ValidationError(f"expected a [lo, hi] pair, got {pair!r}")
                lo, hi = _as_number(pair[0]), _as_number(pair[1])
                if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
                    raise ValidationError(f"requires finite 0 <= lo <= hi, got [{lo}, {hi}]")
            rows.append((lo, hi))
        return np.array(rows, dtype=np.float64), None
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
    _require((subjective[:, 0] > 0).any(), "subjective_weights: every lower bound is zero")

    prefs_raw = data.get("preferences")
    if not (isinstance(prefs_raw, list) and len(prefs_raw) == n):
        raise ValidationError(f"preferences must list one 4-tuple per plan ({n} entries)")
    prefs = _parse_preferences(prefs_raw, plans)

    params, borda = _parse_params(data.get("params"))

    name = data.get("name", Path(source).stem if source else "problem")
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


def _load_document(path: Path, use_orjson: bool = False):
    """Read a JSON file; unreadable files and invalid JSON raise ValidationError.

    ``use_orjson`` is for json-report solves, which load orjson to write the
    report anyway; it decodes faster than ``json.loads``. What it rejects
    (``NaN`` and ``Infinity`` literals, numbers beyond the float range, lone
    surrogates, a BOM, bytes that are not UTF-8, invalid JSON, unreadable
    files) is read again below, so every error is that of ``json.loads``.
    Both give equal values, but orjson reads an integer literal outside the
    64-bit range as a float, so a message that quotes one spells a float.
    """
    if use_orjson:
        import orjson

        try:
            return orjson.loads(path.read_bytes())
        except (OSError, orjson.JSONDecodeError):
            pass
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read problem file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


class _collector_paused:
    """A context that pauses the cyclic garbage collector while a decoded
    document is alive: open it before the decode, close it once the document
    is freed.

    A decoded document is tens of thousands of acyclic containers on a large
    file. With the collector running, they set off dozens of collections
    during the decode; paused for the decode alone, the first allocation
    after it scans them all at once. Freed while the collector is paused,
    they are never scanned. The caller's collector state is restored. A
    class, not a ``contextlib`` generator, which cost a fighter solve about
    7 µs.
    """

    __slots__ = ("enabled",)

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, kind, exc, tb) -> None:
        if self.enabled:
            gc.enable()


def parse_problem(path: str | Path) -> DecisionProblem:
    """Load and validate a problem file."""
    path = Path(path)
    with _collector_paused():
        return parse_problem_dict(_load_document(path), source=str(path))
