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

from .errors import ValidationError, located

__all__ = [
    "DEFAULT_ALIASES",
    "canonical_labels",
    "fold_label",
    "term_index",
    "term_indices",
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

# Synonyms accepted on input. Problem files may extend or override these.
DEFAULT_ALIASES: dict[str, str] = {
    "ordinary": "general",
    "rather low": "comparatively low",
    "rather high": "comparatively high",
}


def canonical_labels() -> list[str]:
    """The 11 canonical term labels, worst to best."""
    return [label for _, (label, _) in sorted(_SCALE.items())]


def fold_label(label: str) -> str:
    """A spelling as the label table keys it: lower case, single spaces, trimmed."""
    return " ".join(label.lower().split())


# The label table without problem aliases: canonical labels, then default aliases.
_BUILT_IN_INDICES = {label: idx for idx, (label, _) in sorted(_SCALE.items())}
_BUILT_IN_INDICES |= {alias: _BUILT_IN_INDICES[t] for alias, t in sorted(DEFAULT_ALIASES.items())}


def term_indices(aliases: dict[str, str] | None = None) -> dict[str, int]:
    """The label table: every accepted spelling, folded, mapped to its index.

    The built-in spellings come first, canonical labels and then the default
    aliases, followed by the problem's ``aliases`` in folded order. An alias
    resolves its target against the built-ins only, and one that shadows a
    built-in spelling overrides it in that spelling's place. An unknown target,
    or two keys that fold to one spelling, raise :class:`ValidationError`
    naming the ``linguistic_aliases`` entries at fault.
    """
    terms, keys = dict(_BUILT_IN_INDICES), {}
    # a stable sort: keys that fold alike end up next to each other, in order
    for key in sorted(aliases or {}, key=fold_label):
        label = fold_label(key)
        if label in keys:
            raise ValidationError(
                f"linguistic_aliases keys {keys[label]!r} and {key!r} both fold to {label!r}"
            )
        with located(f"linguistic_aliases entry {key!r}"):
            terms[label], keys[label] = term_index(aliases[key]), key
    return terms


def term_index(label: str, terms: dict[str, int] = _BUILT_IN_INDICES) -> int:
    """The index of ``label``, folded, in a label table from :func:`term_indices`.

    By default the built-in spellings alone are accepted. An unknown label
    raises :class:`ValidationError` listing every accepted spelling once.
    """
    try:
        return terms[fold_label(label)]
    except KeyError:
        raise ValidationError(
            f"unknown linguistic term {label!r}; accepted terms: {', '.join(terms)}"
        ) from None


def term_to_triangle(index: int) -> tuple[float, float, float]:
    """The fixed triangular fuzzy number (L, M, U) attached to a scale index."""
    if index not in _SCALE:
        raise ValidationError(f"linguistic index {index} out of range -5..5")
    return _SCALE[index][1]

