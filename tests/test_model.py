import copy
import dataclasses
import inspect
import math
import pickle
import re

import pytest

import occumine
from occumine import (
    DatabaseValidationError,
    PatternRecord,
    Thresholds,
    UncertainDatabase,
    Violation,
    build_database,
    mine,
    validate_database,
    write_database,
)
from occumine.model import ItemOccurrence, Transaction, TransactionTable

EXPECTED_TU = [65, 37, 38, 11, 49, 58, 23, 61, 59, 42]


def test_example_tu_column(example_db):
    assert [t.tu for t in example_db.transactions] == EXPECTED_TU


def test_example_db_is_valid(example_db):
    assert validate_database(example_db) == []


@pytest.mark.parametrize(
    "rows, utilities, expected",
    [
        pytest.param(
            [[("a", 1, 0.0), ("b", 2, 0.5)]], {"a": 3.0, "b": 1.0},
            ("probability 0.0 outside (0, 1]", 1, "a"), id="zero probability",
        ),
        pytest.param(
            [[("a", 1, 0.5)]], {"a": 1.0, "b": -1.0},
            ("unit utility is negative", None, "b"), id="negative unit utility",
        ),
        pytest.param(
            [[("a", 0, 0.5), ("b", 1, 0.5)]], {"a": 1.0, "b": 1.0},
            ("quantity 0 below 1", 1, "a"), id="zero quantity",
        ),
        pytest.param(
            [[("a", 1, 0.5)]], {"a": 0.0},
            ("transaction utility is not positive", 1, None), id="zero total utility",
        ),
    ],
)
def test_one_bad_value_is_flagged(rows, utilities, expected):
    db = build_database(rows, utilities)
    assert [(v.message, v.tid, v.item) for v in validate_database(db)] == [expected]


@pytest.mark.parametrize("quantity", [2.0, 1.5, True])
def test_a_quantity_that_is_not_an_int_is_flagged(quantity):
    # The file format holds integer quantities only: "a:2.0:0.5" and
    # "a:True:0.5" do not parse.
    db = build_database([[("a", quantity, 0.5)]], {"a": 1.0})
    message = f"quantity {quantity} is not an integer"
    assert [(v.message, v.tid, v.item) for v in validate_database(db)] == [(message, 1, "a")]
    refusal = f"^invalid database: {re.escape(message)} \\(tid 1, item 'a'\\)$"
    with pytest.raises(DatabaseValidationError, match=refusal):
        write_database(db)
    assert db.verdict is None  # the writer records no verdict
    with pytest.raises(DatabaseValidationError, match=refusal):
        mine(db, Thresholds(0.5, 0.5, 0.5))
    db = build_database([[("a", 2, 0.5)]], {"a": 1.0})
    assert validate_database(db) == []
    assert write_database(db) == ("a:2:0.5\n", "a 1\n")
    assert mine(db, Thresholds(0.5, 0.5, 0.5)).patterns


def test_validation_error_shows_three_violations_and_counts_the_rest():
    db = build_database([[("a", 1, 0.0)]] * 5, {"a": 1.0})
    with pytest.raises(DatabaseValidationError, match=r"\(tid 3, item 'a'\); and 2 more$"):
        mine(db, Thresholds(0.5, 0.5, 0.5))


def test_tu_mismatch_is_flagged(example_db):
    t1 = example_db.transactions[0]
    tampered = example_db.transactions[:0] + (
        Transaction(t1.items, t1.quantities, t1.probabilities, 64.0),
    ) + example_db.transactions[1:]
    db = type(example_db)(tampered, example_db.unit_utilities)
    violations = validate_database(db)
    assert [v.tid for v in violations] == [1]
    assert "64.0" in violations[0].message and "65" in violations[0].message


def test_correctly_rounded_tu_is_within_tolerance():
    # Left to right, 0.1 + 1e8 + 0.3 is 100000000.39999999: 1.5e-8 below
    # the correctly rounded total that fsum (and sum on 3.12+) gives.
    utilities = {"a": 0.1, "b": 1e8, "c": 0.3}

    def holding(tu):
        transaction = Transaction(("a", "b", "c"), (1, 1, 1), (1.0, 1.0, 1.0), tu)
        return UncertainDatabase((transaction,), utilities)

    exact = math.fsum(utilities.values())
    assert exact == 100000000.4
    assert validate_database(holding(exact)) == []
    assert mine(holding(exact), Thresholds(1.0, 0.5, 0.0)).patterns
    assert [v.tid for v in validate_database(holding(exact * (1 + 1e-6)))] == [1]


def test_quantity_beyond_the_float_range_is_flagged():
    db = UncertainDatabase((Transaction(("a",), (10**400,), (0.5,), 1.0),), {"a": 1.0})
    violations = validate_database(db)
    assert [(v.message, v.tid) for v in violations] == [
        ("transaction utility is not a finite number", 1)
    ]
    with pytest.raises(DatabaseValidationError, match="not a finite number"):
        mine(db, Thresholds(0.5, 0.5, 0.5))


def test_non_finite_utility_is_flagged():
    # build_database refuses a non-finite total, so the constructor builds it.
    finite = build_database([[("a", 1, 0.5)]], {"a": 1e308})
    infinite = Transaction(("a",), (2,), (0.5,), math.inf)
    db = type(finite)((finite.transactions[0], infinite), finite.unit_utilities)
    violations = validate_database(db)
    assert [v.tid for v in violations] == [2]
    assert "not a finite number" in violations[0].message


@pytest.mark.parametrize("value", [1e308, math.inf, math.nan])
def test_build_database_refuses_a_non_finite_total(value):
    with pytest.raises(ValueError, match=r"^row 2: transaction utility is not a finite number$"):
        build_database([[("b", 1, 0.5)], [("b", 1, 0.5), ("a", 2, 0.5)]], {"a": value, "b": 1.0})


def test_non_finite_unit_utility_is_flagged():
    db = build_database([[("a", 1, 0.5)]], {"a": 1.0, "b": math.nan, "c": math.inf})
    violations = validate_database(db)
    assert [(v.message, v.item) for v in violations] == [
        ("unit utility is not a finite number", "b"),
        ("unit utility is not a finite number", "c"),
    ]
    with pytest.raises(DatabaseValidationError, match="item 'b'"):
        mine(db, Thresholds(0.5, 0.5, 0.5))


def test_duplicate_item_and_missing_utility_are_flagged():
    db = build_database([[("a", 1, 0.5)]], {"a": 2.0, "b": 1.0})
    t = db.transactions[0]
    bad = Transaction(t.items * 2, t.quantities * 2, t.probabilities * 2, 4.0)
    tampered = type(db)((bad,), {"b": 1.0})
    messages = [v.message for v in validate_database(tampered)]
    assert any("duplicate item" in m for m in messages)
    assert any("missing utility" in m for m in messages)


def test_column_length_mismatch_is_flagged(example_db):
    # A database holds its occurrences in flat columns, which cannot hold
    # a ragged transaction, so it is refused at construction.
    t1 = example_db.transactions[0]
    ragged = Transaction(t1.items, t1.quantities[:-1], t1.probabilities, t1.tu)
    with pytest.raises(ValueError, match=r"^columns differ in length \(tid 1\)$"):
        type(example_db)(
            (ragged,) + example_db.transactions[1:],
            example_db.unit_utilities,
        )


@pytest.mark.parametrize(
    "ends, tu",
    [
        pytest.param([1, 2], [1.0], id="ends and tu differ in length"),
        pytest.param([2, 1, 2], [1.0, 1.0, 1.0], id="decreasing ends"),
        pytest.param([1, 1], [1.0, 1.0], id="last end short of the items"),
    ],
)
def test_transaction_table_refuses_columns_that_do_not_line_up(ends, tu):
    with pytest.raises(ValueError, match="^transaction table columns do not line up$"):
        TransactionTable(ends, tu, ("a", "b"), (1, 1), (0.5, 0.5))


def test_build_database_transposes_rows():
    db = build_database([[("a", 2, 0.5), ("b", 1, 1.0)], []], {"a": 3.0, "b": 4.0})
    t1, t2 = db.transactions
    assert (t1.items, t1.quantities, t1.probabilities, t1.tu) == (
        ("a", "b"), (2, 1), (0.5, 1.0), 10.0
    )
    assert (t2.items, t2.quantities, t2.probabilities, t2.tu) == ((), (), (), 0.0)
    assert t1.occurrences == (ItemOccurrence("a", 2, 0.5), ItemOccurrence("b", 1, 1.0))


def test_unit_utilities_are_read_only(example_db):
    with pytest.raises(TypeError):
        example_db.unit_utilities["a"] = 100.0
    assert example_db.unit_utilities["a"] != 100.0


def test_database_copies_the_utility_table():
    utilities = {"a": 3.0, "b": 1.0}
    db = build_database([[("a", 1, 0.5), ("b", 2, 0.5)]], utilities)
    utilities["a"] = -1.0
    del utilities["b"]
    assert dict(db.unit_utilities) == {"a": 3.0, "b": 1.0}
    assert validate_database(db) == []


def test_verdict_is_recorded_by_the_parser_only(example_db):
    assert example_db.verdict == ()
    built = build_database([[("a", 1, 0.5)]], {"a": 2.0})
    assert built.verdict is None
    assert dataclasses.replace(example_db).verdict is None
    direct = type(example_db)(example_db.transactions, example_db.unit_utilities)
    assert direct.verdict is None
    assert direct == example_db  # the verdict takes no part in equality


def test_database_pickles_and_copies(example_db):
    for again in (pickle.loads(pickle.dumps(example_db)), copy.deepcopy(example_db)):
        assert again == example_db
        assert again.verdict is None
        with pytest.raises(TypeError):
            again.unit_utilities["a"] = 100.0


def test_pattern_equality_ignores_order():
    a = PatternRecord(("b", "c"), 3, 1.45, 0.65)
    b = PatternRecord(("c", "b"), 3, 1.45, 0.65)
    assert a == b
    assert hash(a) == hash(b)
    assert a.pattern == frozenset({"b", "c"})


def test_pattern_is_not_equal_to_a_non_record():
    record = PatternRecord(("b",), 3, 1.45, 0.65)
    assert record.__eq__(("b",)) is NotImplemented
    assert (record == ("b",)) is False


def test_violation_without_context_reads_as_its_message():
    assert str(Violation("m")) == "m"


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [(0.0, 0.5, 0.5), (1.2, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 1.5, 0.5), (0.5, 0.5, -0.1), (0.5, 0.5, 1.1)],
)
def test_threshold_ranges(alpha, beta, gamma):
    with pytest.raises(ValueError):
        Thresholds(alpha, beta, gamma)


@pytest.mark.parametrize(
    "alpha,size,expected",
    [
        (0.3, 10, 3),  # 0.3 * 10 is 3.0000000000000004 in binary; must not ceil to 4
        (0.35, 10, 4),
        (1.0, 10, 10),
        (0.01, 10, 1),
        (0.8, 10, 8),
        (0.01, 5, 1),
    ],
)
def test_min_support_count(alpha, size, expected):
    assert Thresholds(alpha, 1.0, 0.0).min_support(size) == expected


def test_thresholds_derived_values():
    th = Thresholds(0.3, 0.3, 0.05)
    assert th.min_support(10) == 3
    assert th.min_probability(10) == pytest.approx(0.5)


def test_all_lists_every_public_name_of_the_package():
    # An export added to the import list but not to __all__, or the other
    # way round, fails here.
    public = [
        name
        for name, value in vars(occumine).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(occumine.__all__) == sorted(public)
