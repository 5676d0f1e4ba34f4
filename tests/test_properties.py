"""Generated-input properties: miner equals oracle, the oracle's enumeration
agrees with the per-pattern measures, the occupancy bound is at least a
list's mean, single-item lists under an order over some of the items
hold the direct measures, a database's transaction table gives back the
transactions it was built from, the parser only accepts valid databases
and agrees with its per-token reference, and the CLI never raises."""

import contextlib
import dataclasses
import io
import itertools
import pickle
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from occumine import (
    PRESETS,
    MissingUtilityError,
    ParseError,
    Thresholds,
    Transaction,
    UncertainDatabase,
    UndefinedMeasureError,
    build_database,
    mine,
    oracle_measures,
    oracle_mine,
    parse_database,
    probability,
    remaining_utility_occupancy,
    support_count,
    total_order,
    upper_bound,
    utility_occupancy,
    validate_database,
    write_database,
)
from occumine import dataio
from occumine.cli import main
from occumine.lists import build_single_item_lists, construct, item_columns
from occumine.model import TOL

ITEMS = "abcde"

#: Probabilities in (0, 1], weighted towards the extremes the format allows.
probabilities = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from([sys.float_info.min, 5e-324, 1e-300, 1e-120, 1e-160, 1.0]),
)
#: Unit utilities >= 0, including huge ones whose per-line sums stay finite.
unit_utilities = st.one_of(
    st.integers(min_value=0, max_value=20).map(float),
    st.sampled_from([1e-300, 1e300, 3e300]),
)


@st.composite
def databases(draw):
    utilities = {item: draw(unit_utilities) for item in ITEMS}
    rows = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(ITEMS), st.integers(min_value=1, max_value=3), probabilities
                ),
                min_size=1,
                max_size=len(ITEMS),
                unique_by=lambda occurrence: occurrence[0],
            ),
            min_size=1,
            max_size=8,
        )
    )
    data = "".join(
        " ".join(f"{item}:{q}:{p!r}" for item, q, p in row) + "\n" for row in rows
    )
    utility = "".join(f"{item} {value!r}\n" for item, value in utilities.items())
    try:
        return parse_database(data, utility)
    except ParseError:  # a zero-utility line
        assume(False)


thresholds = st.builds(
    Thresholds,
    alpha=st.floats(min_value=0.01, max_value=1.0),
    beta=st.floats(min_value=0.01, max_value=1.0),
    gamma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
)


@settings(max_examples=150, deadline=None)
@given(db=databases(), th=thresholds)
def test_mine_equals_oracle_under_every_preset(db, th):
    expected = {r.pattern: r for r in oracle_mine(db, th, max_len=len(ITEMS))}
    for strategies in PRESETS.values():
        got = {r.pattern: r for r in mine(db, th, strategies).patterns}
        assert got.keys() == expected.keys()
        for pattern, record in got.items():
            reference = expected[pattern]
            assert record.support == reference.support
            assert record.probability == pytest.approx(reference.probability, abs=1e-6)
            assert record.utility_occupancy == pytest.approx(
                reference.utility_occupancy, abs=1e-6
            )


@settings(max_examples=150, deadline=None)
@given(db=databases())
def test_enumeration_equals_per_pattern_measures(db):
    # Two computations of the same measures: one pass over all itemsets by
    # tid-set intersection, and one scan of the database per pattern.
    measures = oracle_measures(db, max_len=len(ITEMS))
    assert len(measures) >= len(db.item_universe)
    for itemset, (support, pro, uo) in measures.items():
        assert support == support_count(itemset, db)
        assert abs(pro - probability(itemset, db)) <= TOL
        assert abs(uo - utility_occupancy(itemset, db)) <= TOL


@settings(max_examples=150, deadline=None)
@given(db=databases(), k=st.integers(min_value=1, max_value=8))
def test_bound_is_at_least_the_list_mean(db, k):
    # The search skips the bound's sort when occupancy + remaining reaches
    # beta.  That is sound only if no list with support >= k has a bound
    # below this mean.
    order = total_order(db)
    singles = build_single_item_lists(item_columns(db, order.items), order)
    level = list(singles.values())
    while level:
        deeper = []
        for plist, summary in level:
            if summary.support >= k:
                assert summary.occupancy + summary.remaining <= upper_bound(plist, k) + TOL
            if summary.support:
                later = order.items[order.rank[plist.items[-1]] + 1 :]
                deeper += [construct(plist, singles[item][0], k) for item in later]
        level = deeper


@settings(max_examples=150, deadline=None)
@given(db=databases(), data=st.data())
def test_single_item_lists_under_a_subset_order(db, data):
    # The miner ranks only its promising items, so it builds single-item
    # lists under an order over a strict subset of the universe.
    universe = db.item_universe
    assume(len(universe) >= 2)
    ranked = data.draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=len(universe) - 1, unique=True)
    )
    order = total_order(db, ranked)
    singles = build_single_item_lists(item_columns(db, order.items), order)
    assert list(singles) == list(order.items)
    for item, (plist, _) in singles.items():
        holding = [(tid, t) for tid, t in enumerate(db.transactions, 1) if item in t.items]
        assert plist.tids == [tid for tid, _ in holding]
        for (tid, t), pro, uo, ruo in zip(holding, plist.pro, plist.uo, plist.ruo):
            k = t.items.index(item)
            assert abs(pro - t.probabilities[k]) <= TOL
            assert abs(uo - t.quantities[k] * db.unit_utilities[item] / t.tu) <= TOL
            assert abs(ruo - remaining_utility_occupancy((item,), tid, db, order)) <= TOL
    assert all(ruo == 0.0 for ruo in singles[order.items[-1]][0].ruo)


def _measures(itemset, db):
    try:
        occupancy = utility_occupancy(itemset, db)
    except UndefinedMeasureError:
        occupancy = None
    return support_count(itemset, db), probability(itemset, db), occupancy


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.tuples(st.sampled_from(ITEMS), st.integers(1, 3), probabilities),
            min_size=1,
            max_size=len(ITEMS),
            unique_by=lambda occurrence: occurrence[0],
        ),
        max_size=8,
    ),
    weights=st.lists(st.integers(1, 20).map(float), min_size=len(ITEMS), max_size=len(ITEMS)),
    data=st.data(),
)
def test_transaction_table_gives_back_its_transactions(rows, weights, data):
    # The benchmark's verifier takes sub-databases with
    # dataclasses.replace(db, transactions=...) over a subset of positions.
    utilities = dict(zip(ITEMS, weights))
    db = build_database(rows, utilities)
    expected = []
    for row in rows:
        items, quantities, probs = zip(*row)
        tu = 0.0
        for item, quantity in zip(items, quantities):
            tu += quantity * utilities[item]
        expected.append(Transaction(items, quantities, probs, tu))

    table = db.transactions
    assert len(table) == len(expected)
    assert tuple(table) == tuple(expected)
    for k, want in enumerate(expected):
        for got in (table[k], table[k - len(expected)]):
            assert (got.items, got.quantities, got.probabilities) == (
                want.items, want.quantities, want.probabilities
            )
            assert got.tu.hex() == want.tu.hex()
    assert table[1:-1] == tuple(expected[1:-1])

    assert UncertainDatabase(table, utilities) == db
    assert UncertainDatabase(tuple(expected), utilities) == db
    assert pickle.loads(pickle.dumps(db)) == db
    assert parse_database(*write_database(db)) == db

    kept = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    positions = [p for p, keep in enumerate(kept) if keep]
    sub = dataclasses.replace(db, transactions=tuple(table[p] for p in positions))
    kept_transactions = [expected[p] for p in positions]
    built = UncertainDatabase(tuple(kept_transactions), utilities)
    assert sub == built
    # A transaction's tid is its position, so the kept ones read back as tids 1..k.
    assert list(sub.transactions) == kept_transactions
    assert [sub.transaction(tid) for tid in range(1, len(positions) + 1)] == kept_transactions
    assert sub.item_supports == built.item_supports
    for length in (1, 2):
        for itemset in itertools.combinations(ITEMS, length):
            assert _measures(itemset, sub) == _measures(itemset, built)


#: ``(visited_nodes, candidate_joins, constructed_lists, patterns_found)`` of
#: ``mine(bench_db, ...)``, recorded with the bound sorted at every node:
#: skipping the sort where it cannot prune must not change them.
SEARCH_COUNTS = {
    ((0.05, 0.1, 0.02), "full"): (152, 743, 239, 117),
    ((0.05, 0.1, 0.02), "s12"): (279, 806, 840, 117),
    ((0.03, 0.2, 0.0), "full"): (847, 2535, 847, 186),
    ((0.03, 0.2, 0.0), "s12"): (847, 2535, 2592, 186),
}


@pytest.mark.parametrize("triple,preset", SEARCH_COUNTS)
def test_bound_gate_keeps_the_search(bench_db, triple, preset):
    stats = mine(bench_db, Thresholds(*triple), PRESETS[preset]).stats
    counts = (
        stats.visited_nodes, stats.candidate_joins, stats.constructed_lists, stats.patterns_found
    )
    assert counts == SEARCH_COUNTS[triple, preset]


GARBAGE = ["", "x", "a-b", "é", ":", "-1", "0", "1e-400", "nan", "inf", "#", "\t", "\r", "\n"]


@st.composite
def _splice(draw, text):
    """``text``, or ``text`` with a stretch of it replaced by garbage."""
    if not draw(st.booleans()):
        return text
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, len(text)))
    return text[:start] + draw(st.sampled_from(GARBAGE)) + text[end:]


@st.composite
def fuzzed_inputs(draw):
    """Transactions and utility text, well formed with values at the extremes
    the format allows, then possibly corrupted in one place."""
    utility = "".join(
        f"{item} {draw(st.sampled_from(['1', '2', '0', '1e-300', '1e308']))}\n"
        for item in ITEMS[:3]
    )
    quantity_texts = st.sampled_from(["1", "2", "9" * 400])
    probability_texts = st.sampled_from(["0.5", "1", "1e-120", "5e-324"])
    data = ""
    for _ in range(draw(st.integers(0, 4))):
        items = draw(st.lists(st.sampled_from(ITEMS[:3]), min_size=1, max_size=3, unique=True))
        data += " ".join(
            f"{item}:{draw(quantity_texts)}:{draw(probability_texts)}" for item in items
        ) + "\n"
    return draw(_splice(data)), draw(_splice(utility))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(texts=fuzzed_inputs())
def test_mine_cli_never_raises_on_fuzzed_text(tmp_path, texts):
    data, utility = texts
    data_path = tmp_path / "data.txt"
    utility_path = tmp_path / "utility.txt"
    data_path.write_text(data, encoding="utf-8")
    utility_path.write_text(utility, encoding="utf-8")
    argv = [
        "mine", "--data", str(data_path), "--utility", str(utility_path),
        "--alpha", "0.3", "--beta", "0.1", "--gamma", "0",
        "--output", str(tmp_path / "patterns.txt"),
    ]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1)


@st.composite
def parser_inputs(draw):
    """Well-formed transactions and utility text with at most one invariant
    broken: a bad quantity, probability or unit utility, a repeated or
    unknown item, or a missing utility line."""
    fault = draw(
        st.sampled_from(["utility", "quantity", "probability", "repeat", "unknown", "none"])
    )
    utilities = {
        item: draw(st.sampled_from(["1", "2", "0", "1e-300", "1e308"])) for item in ITEMS[:3]
    }
    token = st.tuples(
        st.sampled_from(ITEMS[:3]),
        st.sampled_from(["1", "2"]),
        st.sampled_from(["0.5", "1", "1e-120", "5e-324"]),
    ).map(list)
    lines = draw(
        st.lists(
            st.lists(token, min_size=1, max_size=3, unique_by=lambda t: t[0]),
            min_size=1,
            max_size=4,
        )
    )
    line = draw(st.sampled_from(lines))
    victim = draw(st.sampled_from(line))
    if fault == "quantity":
        victim[1] = draw(st.sampled_from(["0", "-1", "x", "1.5", "", "9" * 400]))
    elif fault == "probability":
        victim[2] = draw(st.sampled_from(["0", "-0.5", "1.5", "nan", "inf", "1e-400", "x"]))
    elif fault == "repeat":
        line.append([victim[0], draw(st.sampled_from(["1", "3"])), victim[2]])
    elif fault == "unknown":
        line.append([draw(st.sampled_from(["d", "q-x", "é"])), "1", "0.5"])
    elif fault == "utility":
        value = draw(st.sampled_from(["-1", "nan", "inf", "x", None]))
        if value is None:
            del utilities[victim[0]]
        else:
            utilities[victim[0]] = value
    data = "".join(" ".join(map(":".join, tokens)) + "\n" for tokens in lines)
    utility = "".join(f"{item} {value}\n" for item, value in utilities.items())
    return data, utility


@settings(max_examples=500, deadline=None)
@given(texts=st.one_of(fuzzed_inputs(), parser_inputs()))
def test_parser_accepts_only_valid_databases(texts):
    # parse_database records an empty verdict, so mine never validates a
    # parsed database: the parser must enforce every invariant it checks.
    data, utility = texts
    try:
        db = parse_database(data, utility)
    except (ParseError, MissingUtilityError):
        return
    assert validate_database(db) == []


UTILITY = "a 1\nb 2.5\nc 0\n"


@st.composite
def spelled_inputs(draw):
    """Transactions text in the spellings the format allows and a few it
    does not: CRLF, comments and whitespace-only lines, tabs and Unicode
    whitespace between tokens, unusual integer and float literals, huge
    quantities, repeated and unknown items, zero-utility lines (item ``c``
    alone), and tokens with too few or too many colons or an empty field."""
    clean = draw(st.booleans())
    quantities = ["1", "2", "+1", "1_0", "٣", "9" * 30]
    probabilities = ["0.5", "1", "1_0e-1", "5e-324", ".25"]
    if not clean:
        quantities += ["0", "9" * 400, "x"]
        probabilities += ["nan", "inf", "1e-400", "1.5"]
    items = ["a", "b", "c"] if clean else ["a", "b", "c", "d", "q-x"]
    space = st.sampled_from([" ", "  ", "\t", "\x0b", "\x1c", "\xa0", "\u2028", " \t"])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["transaction"] * 4 + ["comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  #a:1:1", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0", "\u2028"])))
        else:
            line_items = draw(
                st.lists(st.sampled_from(items), min_size=1, max_size=4, unique=clean)
            )
            fields = []
            for item in line_items:
                fields += [
                    item, draw(st.sampled_from(quantities)), draw(st.sampled_from(probabilities))
                ]
            separators = []
            for _ in line_items:
                separators += [":", ":", draw(space)]
            if not clean and draw(st.booleans()):
                # Misshape the line: swap two neighbouring separators, so that
                # "a:1:0.5 b:1:0.5" reads "a:1:0.5:b 1:0.5", or empty a field.
                i = draw(st.integers(0, max(0, len(separators) - 3)))
                separators[i], separators[i + 1] = separators[i + 1], separators[i]
                if draw(st.booleans()):
                    fields[draw(st.integers(0, len(fields) - 1))] = ""
            line = "".join(map("".join, zip(fields, separators[:-1] + [""])))
            if draw(st.booleans()):
                line = draw(space) + line + draw(space)
            lines.append(line)
    return newline.join(lines), UTILITY


def _outcome(parse, data, utility):
    """The database ``parse`` returns, or the exception it raises."""
    try:
        return parse(data, utility)
    except (ParseError, MissingUtilityError) as error:
        return error


def _token_parse(data, utility):
    """``parse_database`` as the per-token reference parser alone does it."""
    utilities = dataio.parse_utilities(utility)
    rows = dataio._parse_tokens(dataio._lines(dataio._decode(data)), utilities)
    transactions = tuple(Transaction(*row) for row in rows)
    return UncertainDatabase(transactions, dict(utilities))


@settings(max_examples=400, deadline=None)
@example(texts=("a:1:0.5:b 1:0.5\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@example(texts=("a:1: 0.5:b:1 ::0.5\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@given(
    texts=st.one_of(fuzzed_inputs(), parser_inputs(), spelled_inputs()),
    block_lines=st.sampled_from([1, 2, 3, dataio._BLOCK_LINES]),
)
def test_block_parser_equals_token_parser(texts, block_lines):
    expected = _outcome(_token_parse, *texts)
    with mock.patch.object(dataio, "_BLOCK_LINES", block_lines):
        got = _outcome(parse_database, *texts)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        assert getattr(got, "line", None) == getattr(expected, "line", None)
        assert getattr(got, "column", None) == getattr(expected, "column", None)
    else:
        assert got == expected
        assert [t.tu.hex() for t in got.transactions] == [
            t.tu.hex() for t in expected.transactions
        ]
