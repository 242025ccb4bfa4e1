"""Exception types shared across the package, and :class:`located`, which
names the place an error happened."""


class GreyrankError(Exception):
    """Base class for all greyrank errors."""


class ValidationError(GreyrankError):
    """Malformed or inconsistent problem input."""


class DegenerateProblemError(GreyrankError):
    """Structurally valid input on which a computation is mathematically degenerate."""


class located:
    """A context in which every error names ``where`` first.

    A :class:`GreyrankError` raised inside is re-raised as the same type with
    ``f"{where}: "`` in front of its message; nested contexts each add their
    own place, outermost first. A ``FloatingPointError``, which numpy raises
    under ``np.errstate(...="raise")``, becomes a
    :class:`DegenerateProblemError` the same way.
    """

    __slots__ = ("where",)

    def __init__(self, where: str) -> None:
        self.where = where

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, GreyrankError):
            raise type(exc)(f"{self.where}: {exc}") from exc
        if isinstance(exc, FloatingPointError):
            raise DegenerateProblemError(f"{self.where}: {exc}") from exc
