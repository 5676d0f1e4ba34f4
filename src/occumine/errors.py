"""Exception types shared across the package."""

import copyreg


class OccumineError(Exception):
    """Base class for all errors raised by this package.

    A copy, by ``pickle`` or ``copy``, is rebuilt from the message in
    ``args`` and the attributes, without calling ``__init__`` again,
    whose parameters differ from ``args`` in some subclasses.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InputError(OccumineError):
    """A fault in the content of an input file.

    Carries the 1-based ``line`` and ``column`` of the fault where they
    are known, else ``None``.  ``path`` is ``None`` until the reader that
    opened the file sets it.  The message reads
    ``path: line L, column C: message``, each part present when known.
    """

    path: str | None = None

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        message = super().__str__()
        if self.line is not None:
            column = "" if self.column is None else f", column {self.column}"
            message = f"line {self.line}{column}: {message}"
        return message if self.path is None else f"{self.path}: {message}"


class ParseError(InputError):
    """Malformed input file."""


class MissingUtilityError(InputError):
    """An item occurs in the data but has no unit-utility entry.

    Carries the ``item``, and, when raised by the parser, the line and
    column of its token.
    """

    def __init__(self, item: str, line: int | None = None, column: int | None = None):
        self.item = item
        super().__init__(f"no unit utility defined for item {item!r}", line, column)


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
