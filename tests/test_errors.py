import copy
import pickle

import pytest

from occumine import (
    DatabaseValidationError,
    EnumerationBudgetError,
    MissingUtilityError,
    OccumineError,
    ParseError,
    PlanError,
    UndefinedMeasureError,
    Violation,
)
from occumine.errors import InputError


def _located(error, path="data.txt"):
    error.path = path
    return error


ERRORS = [
    OccumineError("something failed"),
    _located(InputError("bad field", 2, 5)),
    _located(ParseError("quantity 0 below 1", 3, 9)),
    _located(MissingUtilityError("b", 1, 9), "utility.txt"),
    MissingUtilityError("b"),
    DatabaseValidationError([Violation(f"fault {k}", tid=k, item="a") for k in range(5)]),
    UndefinedMeasureError("utility occupancy undefined: ['a'] has no supporting transaction"),
    EnumerationBudgetError(5),
    _located(PlanError("two parameters vary", 4), "plan.txt"),
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: type(error).__name__)
@pytest.mark.parametrize(
    "duplicate",
    [lambda error: pickle.loads(pickle.dumps(error)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_errors_survive_pickle_and_copy(error, duplicate):
    # A subclass whose __init__ takes other parameters than its message must
    # not be rebuilt by calling __init__ with the message.
    again = duplicate(error)
    assert type(again) is type(error)
    assert str(again) == str(error)
    assert again.args == error.args
    assert vars(again) == vars(error)  # path, line, column, item, violations, budget
