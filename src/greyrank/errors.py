"""Exception types shared across the package, and :class:`located`, which
names the place an error happened."""


class GreyrankError(Exception):
    """Base class for all greyrank errors.

    ``row``, when given, is the index of the plan at fault; the numeric stages
    know plans only by index, and a :class:`located` context with the plan
    names puts the name in the message.
    """

    def __init__(self, message: str = "", row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


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
    :class:`DegenerateProblemError` the same way. Given ``plans``, an error
    whose ``row`` is set names plan ``plans[row]`` after ``where``.
    """

    __slots__ = ("where", "plans")

    def __init__(self, where: str, plans: list[str] | None = None) -> None:
        self.where = where
        self.plans = plans

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, GreyrankError):
            message = str(exc)
            if exc.row is not None and self.plans is not None:
                message = f"plan {self.plans[exc.row]!r}, {message}"
            raise type(exc)(f"{self.where}: {message}") from exc
        if isinstance(exc, FloatingPointError):
            raise DegenerateProblemError(f"{self.where}: {exc}") from exc
