"""Exception types shared across the package."""


class OccumineError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OccumineError):
    """A fault in the content of an input file.

    ``path`` is ``None`` until the reader that opened the file sets it;
    from then on the message starts with it, as the user gave it.
    """

    path: str | None = None

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.path is None else f"{self.path}: {message}"


class ParseError(InputError):
    """Malformed input file.

    Carries the 1-based line number and, where it applies, the 1-based
    column of the offending token.
    """

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


class MissingUtilityError(InputError):
    """An item occurs in the data but has no unit-utility entry.

    Carries, when raised by the parser, the 1-based line number and
    column of the item's token.
    """

    def __init__(self, item: str, line: int | None = None, column: int | None = None):
        self.item = item
        self.line = line
        self.column = column
        where = ", ".join(f"{name} {at}" for name, at in (("line", line), ("column", column)) if at)
        suffix = f" ({where})" if where else ""
        super().__init__(f"no unit utility defined for item {item!r}{suffix}")


class DatabaseValidationError(OccumineError):
    """A database failed invariant validation before mining."""

    def __init__(self, violations):
        self.violations = list(violations)
        head = "; ".join(str(v) for v in self.violations[:3])
        more = len(self.violations) - 3
        if more > 0:
            head += f"; and {more} more"
        super().__init__(f"invalid database: {head}")


class UndefinedMeasureError(OccumineError):
    """A measure was requested for a pattern with no supporting transaction."""


class EnumerationBudgetError(OccumineError):
    """The exhaustive miner hit its cap on examined itemsets."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"enumeration budget of {budget} itemsets exceeded")


class PlanError(InputError):
    """A benchmark plan violates the one-varying-parameter rule or is malformed."""
