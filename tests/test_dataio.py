import gc
import math
import re
import sys
import tracemalloc

import pytest

from occumine import (
    DatabaseValidationError,
    GeneratorConfig,
    ItemOccurrence,
    MissingUtilityError,
    ParseError,
    Thresholds,
    Transaction,
    TransactionTable,
    UncertainDatabase,
    augment,
    build_database,
    generate,
    mine,
    parse_database,
    validate_database,
    write_database,
)
from occumine import dataio
from occumine.dataio import parse_utilities

from conftest import EXAMPLE_TRANSACTIONS, EXAMPLE_UTILITIES, TEST_DATA_DIR

UTILITY_TEXT = "a 7\nc 11\nd 1\n"


def test_parse_single_line():
    db = parse_database("a:2:0.6 c:4:0.8 d:7:0.5\n", UTILITY_TEXT)
    assert len(db) == 1
    t1 = db.transactions[0]
    assert db.transaction(1) == t1
    assert t1.tu == 65
    assert [(o.item, o.quantity, o.probability) for o in t1.occurrences] == [
        ("a", 2, 0.6),
        ("c", 4, 0.8),
        ("d", 7, 0.5),
    ]


def test_parse_empty_stream():
    db = parse_database("", "")
    assert len(db) == 0
    assert validate_database(db) == []


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\na:1:0.5\n   \nc:2:0.25\n"
    db = parse_database(text, UTILITY_TEXT)
    assert [db.transaction(tid).items for tid in (1, 2)] == [("a",), ("c",)]


def test_parse_accepts_crlf():
    db = parse_database(b"a:1:0.5\r\nc:2:0.25\r\n", UTILITY_TEXT.encode())
    assert len(db) == 2


def test_parse_final_newline_optional():
    assert len(parse_database("a:1:0.5", UTILITY_TEXT)) == 1


def test_zero_quantity_rejected():
    with pytest.raises(ParseError) as info:
        parse_database("a:0:0.5\n", UTILITY_TEXT)
    assert info.value.line == 1
    assert "quantity" in str(info.value)


@pytest.mark.parametrize("token", ["a:1:0.0", "a:1:1.5", "a:1:-0.2"])
def test_probability_out_of_range(token):
    with pytest.raises(ParseError) as info:
        parse_database(f"{token}\n", UTILITY_TEXT)
    assert "probability" in str(info.value)


def test_malformed_token_reports_position():
    with pytest.raises(ParseError) as info:
        parse_database("a:1:0.5 c:4\n", UTILITY_TEXT)
    assert info.value.line == 1
    assert info.value.column == 9


def test_duplicate_item_rejected():
    with pytest.raises(ParseError) as info:
        parse_database("a:1:0.5 a:2:0.5\n", UTILITY_TEXT)
    assert "duplicate" in str(info.value)


@pytest.mark.parametrize(
    "data, utilities, column, message",
    [
        ("a:1:0.5\na:2:0.5 c:1:1\n", "a 1e308\nc 1\n", None, "not a finite number"),
        ("a:1:0.5\na:1:0.5 c:1:1\n", "a 1e308\nc 1e308\n", None, "not a finite number"),
        ("a:1:0.5\na:1:1 c:1" + "0" * 400 + ":0.5\n", "a 1\nc 0\n", 7, "float range"),
    ],
)
def test_non_finite_total_utility_rejected(data, utilities, column, message):
    with pytest.raises(ParseError) as info:
        parse_database(data, utilities)
    assert (info.value.line, info.value.column) == (2, column)
    assert message in str(info.value)


def _token_block(text, utility_text):
    """The block of the per-token reference parser, or the error it raises."""
    try:
        return dataio._parse_tokens(dataio._lines(text), parse_utilities(utility_text))
    except ParseError as error:
        return error


def _multi_block_lines():
    """Over two blocks of content lines, with comment and blank lines
    before the first block boundary."""
    lines = ["# header", "", "a:1:0.5"]
    for k in range(2 * dataio._BLOCK_LINES + 3):
        lines.append(f"a:{k % 7 + 1}:0.5 c:2:0.{k % 9 + 1}")
        if k in (10, 200):
            lines += ["  # mid-file comment", "\t", ""]
    return lines


def test_multi_block_file_parses_like_token_parser():
    text = "\n".join(_multi_block_lines())
    db = parse_database(text, UTILITY_TEXT)
    block = _token_block(text, UTILITY_TEXT)
    assert len(db) == 2 * dataio._BLOCK_LINES + 4
    assert db.transactions == TransactionTable(*block)


def _assert_block_edge_error(bad):
    """A bad token on raw line ``bad`` (0-based) fails at its file line and
    column, as the token parser says."""
    lines = _multi_block_lines()
    lines[bad] = "a:1:0.5 c:x:0.5"
    text = "\n".join(lines)
    with pytest.raises(ParseError) as info:
        parse_database(text, UTILITY_TEXT)
    expected = _token_block(text, UTILITY_TEXT)
    assert (info.value.line, info.value.column) == (bad + 1, 9)
    assert (expected.line, expected.column) == (bad + 1, 9)
    assert str(info.value) == str(expected)


def test_error_on_first_line_of_second_block_names_file_line_and_column():
    # Blocks are raw lines, comment and blank lines included.
    _assert_block_edge_error(dataio._BLOCK_LINES)


def test_error_on_last_line_of_second_block_names_file_line_and_column():
    _assert_block_edge_error(2 * dataio._BLOCK_LINES - 1)


@pytest.mark.parametrize("table_max", [1, dataio._TABLE_MAX])
@pytest.mark.parametrize("block_lines", [1, dataio._BLOCK_LINES])
@pytest.mark.parametrize(
    "bad, message",
    [
        ("b:0:0.5", "quantity 0 below 1"),
        ("b:1:1.5", "probability 1.5 outside (0, 1]"),
        ("b:1:nan", "probability nan outside (0, 1]"),
        ("b:1:0.5e", "probability '0.5e' is not a number"),
        ("b:1:inf", "probability inf outside (0, 1]"),
        ("b:1:1e-400", "probability 0.0 outside (0, 1]"),  # reads as 0.0
        ("b:1:-0.0", "probability -0.0 outside (0, 1]"),
        ("b:-1:0.5", "quantity -1 below 1"),
        (f"b:{'9' * 401}:0.5", "quantity out of range (beyond the float range)"),
    ],
)
def test_bad_field_after_a_converted_good_one_fails_at_its_token(
    monkeypatch, bad, message, table_max, block_lines
):
    # Line 1 puts "1" and "0.5" in the tables; with a table limit of 1 the
    # later blocks convert field by field.
    monkeypatch.setattr(dataio, "_TABLE_MAX", table_max)
    monkeypatch.setattr(dataio, "_BLOCK_LINES", block_lines)
    text = f"a:1:0.5\na:1:0.5 {bad}\n"
    with pytest.raises(ParseError) as info:
        parse_database(text, "a 1\nb 1\n")
    expected = _token_block(text, "a 1\nb 1\n")
    assert (info.value.line, info.value.column) == (2, 9)
    assert str(info.value) == str(expected) == f"line 2, column 9: {message}"


def test_whole_column_range_check_takes_a_quantity_sum_beyond_the_float_range(monkeypatch):
    # Quantities near 10**308 on an item of unit utility 0 are valid, but
    # a block's quantity column sums past the float range.  The second
    # block is converted field by field and must not fall back to the
    # token parser.
    monkeypatch.setattr(dataio, "_TABLE_MAX", 1)
    monkeypatch.setattr(dataio, "_BLOCK_LINES", 2)
    calls = []
    parse_tokens = dataio._parse_tokens
    monkeypatch.setattr(
        dataio, "_parse_tokens", lambda *args: calls.append(args) or parse_tokens(*args)
    )
    huge = 10**308
    db = parse_database(f"a:1:0.5 z:{huge}:0.5\n" * 4, "a 1\nz 0\n")
    assert calls == []
    assert list(db.transactions.quantities) == [1, huge] * 4
    assert validate_database(db) == []


def test_equal_probability_fields_share_one_float():
    config = GeneratorConfig(
        seed=3, num_transactions=2 * dataio._BLOCK_LINES, num_items=40, avg_transaction_length=4.0
    )
    data_text, utility_text = write_database(generate(config))
    fields = {token.rsplit(":", 1)[1] for token in data_text.split()}
    db = parse_database(data_text, utility_text)
    assert len(db.transactions.probabilities) > 2 * len(fields)
    assert len({id(p) for p in db.transactions.probabilities}) == len(fields)


def test_total_utility_is_summed_left_to_right():
    # 1e16 + 1 rounds back to 1e16, so the left-to-right total is 1e16;
    # a compensated sum (sum() on Python 3.12+, math.fsum) gives 1e16 + 2.
    db = parse_database("a:1:1 b:1:1 c:1:1\n", "a 1e16\nb 1\nc 1\n")
    assert db.transactions[0].tu == 1e16
    assert validate_database(db) == []


def test_unknown_item_raises_missing_utility():
    # The error names the line and column of the item's token, the first
    # token or a later one, on a line after a comment.
    for data, line, column in (("q:1:0.5\n", 1, 1), ("a:1:0.5\n# note\na:1:0.5 q:1:0.5\n", 3, 9)):
        with pytest.raises(MissingUtilityError) as info:
            parse_database(data, UTILITY_TEXT)
        assert info.value.item == "q"
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == (
            f"line {line}, column {column}: no unit utility defined for item 'q'"
        )


def test_invalid_unknown_item_is_a_parse_error_at_its_column():
    # The id check runs only for items without a utility entry; an id that
    # is both invalid and unknown must still fail as an invalid id.
    with pytest.raises(ParseError) as info:
        parse_database("a:1:0.5 q-x:1:0.5\n", UTILITY_TEXT)
    assert (info.value.line, info.value.column) == (1, 9)
    assert "invalid item id 'q-x'" in str(info.value)


@pytest.mark.parametrize(
    "data, line, byte",
    [
        (b"\xffa:1:0.5\n", 1, "0xff"),
        (b"a:1:0.5\r\n# caf\xc3\xa9\r\n\r\nc:2:0.\xe9\r\n", 4, "0xe9"),
        (b"a:1:0.5\n" * 9000 + b"c:1:0.5\xc3\n", 9001, "0xc3"),
    ],
)
def test_invalid_utf8_names_its_line(data, line, byte):
    for parse in (
        lambda: parse_database(data, UTILITY_TEXT),
        lambda: parse_utilities(data.replace(b":1:", b" ").replace(b":2:", b" ")),
        lambda: augment(data.replace(b":", b"_"), AUGMENT_CONFIG),
    ):
        with pytest.raises(ParseError) as info:
            parse()
        assert (info.value.line, info.value.column) == (line, None)
        assert str(info.value) == f"line {line}: invalid UTF-8 byte {byte}"


def _refused(db, message, error=DatabaseValidationError):
    """``write_database(db)`` raises ``error`` with exactly ``message``."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        write_database(db)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_write_refuses_a_non_finite_unit_utility(value):
    db = build_database([[("a", 1, 0.5)]], {"a": 1.0, "b": value})
    _refused(db, "invalid database: unit utility is not a finite number (item 'b')")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_write_refuses_a_non_finite_probability(value):
    db = build_database([[("a", 1, 0.5)], [("a", 1, 0.5), ("b", 2, value)]], {"a": 1.0, "b": 1.0})
    _refused(db, f"invalid database: probability {value} outside (0, 1] (tid 2, item 'b')")


def test_write_refuses_a_transaction_with_no_item():
    # Its line would be blank, which the parser skips, shifting every later tid.
    db = build_database([[("a", 1, 0.5)], [], [("b", 2, 0.25)]], {"a": 1.0, "b": 1.0})
    _refused(db, "invalid database: transaction utility is not positive (tid 2)")


def test_write_refuses_an_item_id_with_no_unit_utility_entry():
    # The line would read as two tokens, "x" and "y:1:0.5".
    db = UncertainDatabase([Transaction(("x y",), (1,), (0.5,), 1.0)], {})
    _refused(db, "invalid database: missing utility entry (tid 1, item 'x y')")
    # With its entry the database is valid, but the format cannot hold the id.
    db = UncertainDatabase([Transaction(("x y",), (1,), (0.5,), 1.0)], {"x y": 1.0})
    assert validate_database(db) == []
    _refused(db, "item id 'x y' cannot be serialized", ValueError)
    # An id that is not a string at all mines, but has no text form either.
    db = UncertainDatabase([Transaction((5,), (1,), (0.5,), 1.0)], {5: 1.0})
    assert validate_database(db) == []
    assert mine(db, Thresholds(1.0, 1.0, 0.0)).patterns[0].items == (5,)
    _refused(db, "item id 5 cannot be serialized", ValueError)


def test_parsed_columns_are_not_gc_tracked(example_db):
    gc.collect()
    table = example_db.transactions
    for column in (table.ends, table.tu, table.items, table.quantities, table.probabilities):
        assert type(column) is tuple
        assert not gc.is_tracked(column)


def test_parse_leaves_no_tracked_object_per_transaction():
    config = GeneratorConfig(
        seed=3, num_transactions=5000, num_items=50, avg_transaction_length=4.0
    )
    data_text, utility_text = write_database(generate(config))
    gc.collect()
    before = len(gc.get_objects())
    db = parse_database(data_text, utility_text)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(db) == 5000
    assert grown < 50


def test_generate_holds_no_list_of_rows():
    # The rows flow one at a time into the table's five columns, so the
    # peak is the kept columns plus their growth; a list of every row or
    # of every Transaction held first would peak at several times that.
    config = GeneratorConfig(
        seed=11, num_transactions=5000, num_items=1000, avg_transaction_length=8
    )
    gc.collect()
    tracemalloc.start()
    try:
        db = generate(config)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == 5000
    assert peak <= 2 * kept, f"peak {peak} B against {kept} B kept"


def test_write_database_holds_no_list_of_tokens():
    # The tokens are one lazy stream, and each line joins its transaction's
    # share of it, so the peak is the two texts and the lines str.join
    # gathers for them, about 2.6 times the texts; a list of every token
    # and of every line held first peaks at about 8.4 times.
    db = generate(
        GeneratorConfig(seed=11, num_transactions=5000, num_items=1000, avg_transaction_length=8)
    )
    gc.collect()
    tracemalloc.start()
    try:
        texts = write_database(db)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(map(sys.getsizeof, texts))
    assert peak <= 3 * size, f"peak {peak} B against {size} B of text"


def test_build_database_reads_a_one_shot_generator_like_a_list():
    rows = [[("a", 2, 0.5), ("c", 1, 0.25)], [], (("d", 3, 1.0), ("a", 1, 0.75))]
    utilities = {"a": 1.5, "c": 2.0, "d": 0.5}
    db = build_database((row for row in rows), utilities)
    assert db == build_database(rows, utilities)
    assert db.transactions.ends == (2, 2, 4)
    assert db.transactions.items == ("a", "c", "d", "a")


def test_build_database_stops_at_the_row_with_a_non_finite_total():
    drawn = []

    def rows():
        for k in range(1, 6):
            drawn.append(k)
            yield [("a", 1, 0.5), ("c", 1, 0.5)] if k == 3 else [("a", 1, 0.5)]

    with pytest.raises(ValueError, match=r"^row 3: transaction utility is not a finite number$"):
        build_database(rows(), {"a": 1.0, "c": math.inf})
    assert drawn == [1, 2, 3]


def test_occurrences_view_matches_tokens():
    text = EXAMPLE_TRANSACTIONS.read_text()
    db = parse_database(text, EXAMPLE_UTILITIES.read_text())
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    assert len(lines) == len(db)
    for line, t in zip(lines, db.transactions):
        expected = []
        for token in line.split():
            item, quantity, probability = token.split(":")
            expected.append(ItemOccurrence(item, int(quantity), float(probability)))
        assert t.occurrences == tuple(expected)
        assert len(t) == len(expected)


def test_bad_utility_lines():
    with pytest.raises(ParseError):
        parse_utilities("a\n")
    with pytest.raises(ParseError):
        parse_utilities("a -3\n")
    with pytest.raises(ParseError):
        parse_utilities("a 2\na 3\n")


def test_example_roundtrip(example_db):
    data_text, utility_text = write_database(example_db)
    assert parse_database(data_text, utility_text) == example_db


def test_roundtrip_preserves_full_precision():
    db = parse_database("a:1:0.333333333\n", "a 2\n")
    data_text, _ = write_database(db)
    assert "0.333333333" in data_text
    assert parse_database(data_text, "a 2\n") == db


def test_write_empty_database():
    db = parse_database("", "")
    assert write_database(db) == ("", "")


def test_write_has_no_trailing_blank_line(example_db):
    data_text, utility_text = write_database(example_db)
    assert not data_text.endswith("\n\n")
    assert data_text.endswith("\n")
    assert utility_text.splitlines()[0] == "a 7"


@pytest.mark.parametrize("seed", range(12))
def test_random_roundtrip(seed):
    db = generate(
        GeneratorConfig(
            seed=seed,
            num_transactions=20,
            num_items=9,
            avg_transaction_length=3.0,
            max_quantity=6,
            max_unit_utility=14,
            prob_min=0.05,
            prob_max=1.0,
        )
    )
    data_text, utility_text = write_database(db)
    assert parse_database(data_text, utility_text) == db


def test_generator_is_deterministic():
    cfg = GeneratorConfig(seed=9, num_transactions=25, num_items=8, avg_transaction_length=3.0)
    assert write_database(generate(cfg)) == write_database(generate(cfg))


def test_generator_seeds_differ():
    texts = {
        write_database(
            generate(
                GeneratorConfig(
                    seed=seed, num_transactions=25, num_items=8, avg_transaction_length=3.0
                )
            )
        )[0]
        for seed in (1, 2, 3)
    }
    assert len(texts) == 3


def test_generated_databases_validate():
    for seed in range(5):
        db = generate(
            GeneratorConfig(
                seed=seed, num_transactions=30, num_items=10, avg_transaction_length=4.0
            )
        )
        assert validate_database(db) == []
        assert 1 <= len(db) == 30


def test_certain_generation_gives_probability_one():
    db = generate(
        GeneratorConfig(
            seed=4,
            num_transactions=20,
            num_items=6,
            avg_transaction_length=3.0,
            prob_min=1.0,
            prob_max=1.0,
        )
    )
    assert all(o.probability == 1.0 for t in db.transactions for o in t.occurrences)
    # a certain database mined at gamma 0 behaves like a precise one
    assert mine(db, Thresholds(0.2, 0.1, 0.0)).patterns == mine(
        db, Thresholds(0.2, 0.1, 0.2)
    ).patterns


def test_generator_golden_vector():
    cfg = GeneratorConfig(
        seed=42,
        num_transactions=30,
        num_items=10,
        avg_transaction_length=3.5,
        max_quantity=5,
        max_unit_utility=15,
        prob_min=0.2,
        prob_max=1.0,
    )
    data_text, utility_text = write_database(generate(cfg))
    frozen_data = (TEST_DATA_DIR / "gen30_seed42_transactions.txt").read_text()
    frozen_utility = (TEST_DATA_DIR / "gen30_seed42_utilities.txt").read_text()
    assert data_text == frozen_data
    assert utility_text == frozen_utility


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_items": 0},
        {"avg_transaction_length": 0.5},
        {"avg_transaction_length": float("inf")},
        {"avg_transaction_length": float("nan")},
        {"max_quantity": 0},
        {"max_unit_utility": 0},
        {"prob_min": 0.0},
        {"prob_min": 0.8, "prob_max": 0.5},
        {"prob_max": 1.2},
        {"num_transactions": -1},
    ],
)
def test_generator_config_validation(kwargs):
    base = dict(seed=1, num_transactions=5, num_items=4, avg_transaction_length=2.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        GeneratorConfig(**base)


def test_generator_config_takes_unit_utilities_up_to_the_largest_float():
    base = dict(seed=1, num_transactions=5, num_items=4, avg_transaction_length=2.0)
    GeneratorConfig(**base, max_unit_utility=int(sys.float_info.max))
    for value in (int(sys.float_info.max) + 1, 10**400):
        with pytest.raises(ValueError) as info:
            GeneratorConfig(**base, max_unit_utility=value)
        assert str(info.value) == (
            f"max_unit_utility must be in [1, 1.7976931348623157e+308], got {value}"
        )


@pytest.mark.parametrize(
    "field,sign",
    [
        ("num_transactions", -1),
        ("num_items", -1),
        ("avg_transaction_length", 1),
        ("avg_transaction_length", -1),
        ("max_quantity", -1),
        ("max_unit_utility", 1),
        ("max_unit_utility", -1),
    ],
)
def test_generator_config_names_the_field_of_an_int_too_long_to_print(field, sign):
    # str() of an int beyond 4,300 digits raises; the message counts them.
    base = dict(seed=1, num_transactions=1, num_items=1, avg_transaction_length=1)
    with pytest.raises(ValueError) as info:
        GeneratorConfig(**{**base, field: sign * 10**5000})
    article = "a negative" if sign < 0 else "an"
    assert str(info.value).startswith(f"{field} must be ")
    assert str(info.value).endswith(f", got {article} int of 5001 digits")


def test_generator_config_takes_an_int_too_long_to_print_where_it_is_in_range():
    base = dict(seed=1, num_transactions=1, num_items=1, avg_transaction_length=1)
    for field in ("seed", "num_transactions", "num_items", "max_quantity"):
        assert getattr(GeneratorConfig(**{**base, field: 10**5000}), field) == 10**5000


@pytest.mark.parametrize("prob_min,prob_max", [(0.00001, 0.00002), (0.30004, 0.30006)])
def test_drawn_probabilities_stay_in_range(prob_min, prob_max):
    # Rounded to four decimals alone, these draws would give 0.0001, and
    # 0.3 or 0.3001: all outside the range.  Clamped back into it, they
    # would collapse to its ends, so the draws must also stay spread.
    config = GeneratorConfig(
        seed=3,
        num_transactions=40,
        num_items=6,
        avg_transaction_length=3.0,
        prob_min=prob_min,
        prob_max=prob_max,
    )
    for db in (generate(config), augment("a b c\nb c\nc a d\n" * 10, config)):
        probabilities = db.transactions.probabilities
        assert probabilities and all(prob_min <= p <= prob_max for p in probabilities)
        assert len(set(probabilities)) > 2


def test_mean_length_beyond_float_resolution_clamps_to_the_item_count():
    # 1 / 1e308 is below float resolution next to 1, so log(1 - p) is 0.
    db = generate(
        GeneratorConfig(seed=2, num_transactions=6, num_items=4, avg_transaction_length=1e308)
    )
    assert [len(t) for t in db.transactions] == [4] * 6
    assert validate_database(db) == []


def test_mean_length_of_one_gives_one_item_per_transaction():
    db = generate(
        GeneratorConfig(seed=2, num_transactions=30, num_items=8, avg_transaction_length=1.0)
    )
    assert [len(t) for t in db.transactions] == [1] * 30
    assert len({t.occurrences[0].item for t in db.transactions}) > 1
    assert validate_database(db) == []


AUGMENT_CONFIG = GeneratorConfig(
    seed=5,
    num_transactions=0,
    num_items=1,
    avg_transaction_length=1.0,
    max_quantity=4,
    max_unit_utility=9,
    prob_min=0.3,
    prob_max=0.9,
)


def test_augment_is_deterministic():
    text = "1 5 9\n2 5\n9 1\n"
    assert write_database(augment(text, AUGMENT_CONFIG)) == write_database(
        augment(text, AUGMENT_CONFIG)
    )


def test_augment_preserves_structure():
    db = augment("1 5 9\n2 5\n9 1\n", AUGMENT_CONFIG)
    assert len(db) == 3
    assert [sorted(t.items) for t in db.transactions] == [
        ["1", "5", "9"],
        ["2", "5"],
        ["1", "9"],
    ]
    assert validate_database(db) == []


def test_augment_golden_vector():
    # Repeated tokens out of sorted order: each item keeps its first place
    # on its line, and the draws run token by token, then item by item.
    assert write_database(augment("b a b c a\nz z\n", AUGMENT_CONFIG)) == (
        "b:5:0.5231 a:3:0.8211 c:2:0.5285\nz:3:0.3079\n",
        "a 5\nb 6\nc 9\nz 1\n",
    )


def test_augment_merges_duplicates():
    db = augment("7 7 7\n", AUGMENT_CONFIG)
    t = db.transactions[0]
    assert len(t.occurrences) == 1
    # three draws from [1, 4] summed
    assert 3 <= t.occurrences[0].quantity <= 12


def test_augment_wide_line():
    line = " ".join(str(k) for k in range(23))
    db = augment(line + "\n", AUGMENT_CONFIG)
    assert len(db.transactions[0].occurrences) == 23


def test_draw_length_is_1_for_a_draw_of_0():
    class Zero:
        def random(self):
            return 0.0

    config = GeneratorConfig(seed=1, num_transactions=1, num_items=9, avg_transaction_length=4.0)
    assert dataio._draw_length(Zero(), config) == 1


def test_augment_rejects_bad_token():
    with pytest.raises(ParseError):
        augment("ok bad:token\n", AUGMENT_CONFIG)
