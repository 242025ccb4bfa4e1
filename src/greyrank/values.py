"""The linguistic scale.

Attribute values come in four flavours: crisp reals, closed intervals,
linguistic terms on an 11-step scale, and uncertain linguistic ranges (a pair
of terms). A problem stores them all as bounds in one float array of shape
(n, m, 2): ``(lo, hi)`` for reals and intervals, a real ``v`` being
``(v, v)``, and ``(lower, upper)`` term indices in -5..5 for linguistic and
uncertain cells, a single term ``k`` being ``(k, k)``. Normalization lifts
those bounds into ordered real 4-tuples, so every downstream computation
happens in one metric space, 4-dimensional Euclidean.
"""

from __future__ import annotations

from .errors import ValidationError

__all__ = [
    "DEFAULT_ALIASES",
    "canonical_labels",
    "term_index",
    "term_to_triangle",
]

# 11-step linguistic scale, index -5 (worst) .. +5 (best), each term carrying
# a fixed triangular fuzzy number on [0, 1].
_SCALE: dict[int, tuple[str, tuple[float, float, float]]] = {
    -5: ("extremely low", (0.0, 0.0, 0.1)),
    -4: ("very low", (0.0, 0.1, 0.2)),
    -3: ("low", (0.1, 0.2, 0.3)),
    -2: ("comparatively low", (0.2, 0.3, 0.4)),
    -1: ("a little low", (0.3, 0.4, 0.5)),
    0: ("general", (0.4, 0.5, 0.6)),
    1: ("a little high", (0.5, 0.6, 0.7)),
    2: ("comparatively high", (0.6, 0.7, 0.8)),
    3: ("high", (0.7, 0.8, 0.9)),
    4: ("very high", (0.8, 0.9, 1.0)),
    5: ("extremely high", (0.9, 1.0, 1.0)),
}

_LABEL_TO_INDEX = {label: idx for idx, (label, _) in _SCALE.items()}

# Synonyms accepted on input. Problem files may extend or override these.
DEFAULT_ALIASES: dict[str, str] = {
    "ordinary": "general",
    "rather low": "comparatively low",
    "rather high": "comparatively high",
}


def canonical_labels() -> list[str]:
    """The 11 canonical term labels, worst to best."""
    return [label for _, (label, _) in sorted(_SCALE.items())]


def _normalize_label(label: str) -> str:
    return " ".join(label.strip().lower().split())


def term_index(label: str, aliases: dict[str, str] | None = None) -> int:
    """Resolve a label, case-insensitively, through the alias map to its index.

    Custom aliases take precedence over the built-in ones. Unknown labels
    raise :class:`ValidationError` listing every accepted spelling.
    """
    key = _normalize_label(label)
    if aliases and key in aliases:
        key = _normalize_label(aliases[key])
    if key in DEFAULT_ALIASES:
        key = DEFAULT_ALIASES[key]
    if key not in _LABEL_TO_INDEX:
        accepted = ", ".join(
            canonical_labels() + sorted(DEFAULT_ALIASES) + sorted(aliases or {})
        )
        raise ValidationError(
            f"unknown linguistic term {label!r}; accepted terms: {accepted}"
        )
    return _LABEL_TO_INDEX[key]


def term_to_triangle(index: int) -> tuple[float, float, float]:
    """The fixed triangular fuzzy number (L, M, U) attached to a scale index."""
    if index not in _SCALE:
        raise ValidationError(f"linguistic index {index} out of range -5..5")
    return _SCALE[index][1]

