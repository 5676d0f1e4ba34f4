import ast
import dataclasses
import itertools
from pathlib import Path

import pytest

from occumine import measures

from occumine import (
    EnumerationBudgetError,
    GeneratorConfig,
    MissingUtilityError,
    Thresholds,
    UndefinedMeasureError,
    build_database,
    generate,
    oracle_mine,
    probability,
    remaining_utility_occupancy,
    support_count,
    total_order,
    utility,
    utility_occupancy,
)


def test_support_counts(example_db):
    assert support_count({"b"}, example_db) == 5
    assert support_count({"b", "c"}, example_db) == 3


def test_support_on_empty_db():
    empty = build_database([], {})
    assert support_count({"a"}, empty) == 0


def test_empty_pattern_rejected(example_db):
    for fn in (support_count, utility, probability):
        with pytest.raises(ValueError):
            fn(set(), example_db)


def test_utility_values(example_db):
    # The example text elsewhere quotes 26 for item b, but the quantity
    # and utility tables it is computed from give 4+4+8+6+2 = 24.
    assert utility({"b"}, example_db) == 24
    assert utility({"b", "c"}, example_db) == 80


def test_utility_on_single_transaction_db(example_db):
    t5 = example_db.transactions[4]
    sub = build_database(
        [[(o.item, o.quantity, o.probability) for o in t5.occurrences]],
        example_db.unit_utilities,
    )
    assert utility({"e"}, sub) == 9


def test_missing_utility_entry(example_db):
    with pytest.raises(MissingUtilityError):
        utility({"zz"}, example_db)


def test_utility_occupancy_values(example_db):
    assert utility_occupancy({"b"}, example_db) == pytest.approx(0.2192, abs=1e-4)
    assert utility_occupancy({"c"}, example_db) == pytest.approx(0.6468, abs=1e-4)
    assert utility_occupancy({"b", "c"}, example_db) == pytest.approx(0.6554, abs=1e-4)


def test_utility_occupancy_zero_support():
    db = build_database(
        [[("a", 1, 0.5)], [("b", 2, 0.5)]], {"a": 1.0, "b": 1.0}
    )
    with pytest.raises(UndefinedMeasureError):
        utility_occupancy({"a", "b"}, db)


def test_probability_values(example_db):
    assert probability({"b"}, example_db) == pytest.approx(3.3, abs=1e-9)
    assert probability({"b", "c"}, example_db) == pytest.approx(1.45, abs=1e-9)
    assert probability({"c", "a"}, example_db) == pytest.approx(2.13, abs=1e-9)


def test_remaining_utility_occupancy(example_db):
    order = total_order(example_db)
    assert remaining_utility_occupancy({"e"}, 5, example_db, order) == pytest.approx(
        0.8163, abs=1e-4
    )
    assert remaining_utility_occupancy({"c"}, 1, example_db, order) == 0.0
    assert remaining_utility_occupancy({"b"}, 3, example_db, order) == pytest.approx(
        0.3421, abs=1e-4
    )


def test_remaining_requires_containment(example_db):
    order = total_order(example_db)
    with pytest.raises(ValueError):
        remaining_utility_occupancy({"e"}, 1, example_db, order)


def test_remaining_requires_ranked_items(example_db):
    order = total_order(example_db, ["a", "b"])
    with pytest.raises(ValueError, match=r"not in the total order: \['c'\]"):
        remaining_utility_occupancy({"c"}, 1, example_db, order)


def test_total_order(example_db):
    order = total_order(example_db)
    assert order.items == ("e", "a", "b", "d", "c")
    # a and b tie at support 5; ascending id puts a first
    assert order.rank["a"] < order.rank["b"]


@pytest.mark.parametrize("name", ["example", "bench", "sub"])
def test_item_supports_match_a_recount(request, example_db, name):
    if name == "sub":
        # The example without the transactions that hold e.
        db = dataclasses.replace(
            example_db,
            transactions=tuple(t for t in example_db.transactions if "e" not in t.items),
        )
    else:
        db = request.getfixturevalue(f"{name}_db")
    recount: dict[str, int] = {}
    for t in db.transactions:
        for item in set(t.items):
            recount[item] = recount.get(item, 0) + 1
    assert dict(db.item_supports) == recount
    assert db.item_universe == tuple(sorted(recount))
    if name == "sub":
        assert db.item_universe == ("a", "b", "c", "d")
    with pytest.raises(TypeError):
        db.item_supports["a"] = 0
    assert total_order(db).items == tuple(sorted(recount, key=lambda i: (recount[i], i)))


@pytest.mark.parametrize("name", ["example", "bench"])
def test_total_order_with_given_counts_matches_recount(request, name):
    # The order ranks by the database's stored counts; over any promising
    # subset it must match an order built from a fresh recount.
    db = request.getfixturevalue(f"{name}_db")
    recount: dict[str, int] = {}
    for t in db.transactions:
        for item in set(t.items):
            recount[item] = recount.get(item, 0) + 1
    every = db.item_universe
    for promising in (every, every[::3]):
        expected = tuple(sorted(promising, key=lambda i: (recount[i], i)))
        order = total_order(db, promising)
        assert order.items == expected
        assert order.rank == {item: r for r, item in enumerate(expected)}


def test_transaction_is_found_by_position(example_db):
    for tid, t in enumerate(example_db.transactions, 1):
        assert example_db.transaction(tid) == t
    t1, _, t3 = example_db.transactions[:3]
    db = dataclasses.replace(example_db, transactions=(t1, t3))
    assert db.transaction(1) == t1
    assert db.transaction(2) == t3
    # A negative tid never wraps around to the end.
    for missing in (0, -1, -2, 3):
        with pytest.raises(ValueError, match=f"^no transaction with tid {missing}$"):
            db.transaction(missing)
    with pytest.raises(ValueError, match="no transaction with tid 3"):
        remaining_utility_occupancy({"a"}, 3, db, total_order(db))


def test_total_order_single_item(example_db):
    order = total_order(example_db, ["d"])
    assert order.items == ("d",)
    assert order.rank == {"d": 0}


def test_total_order_rejects_unknown_items(example_db):
    with pytest.raises(ValueError):
        total_order(example_db, ["nope"])


def test_sort_pattern(example_db):
    order = total_order(example_db)
    assert order.sort_pattern({"c", "b"}) == ("b", "c")


def test_oracle_high_thresholds(example_db):
    records = oracle_mine(example_db, Thresholds(0.8, 0.6, 0.3), max_len=5)
    assert len(records) == 1
    record = records[0]
    assert record.items == ("c",)
    assert record.support == 8
    assert record.probability == pytest.approx(5.4, abs=1e-9)
    assert record.utility_occupancy == pytest.approx(0.6468, abs=1e-4)


def test_oracle_full_support_requirement(example_db):
    assert oracle_mine(example_db, Thresholds(1.0, 0.1, 0.0), max_len=5) == []


def test_oracle_excludes_low_occupancy_item(example_db):
    records = oracle_mine(example_db, Thresholds(0.3, 0.3, 0.05), max_len=5)
    patterns = {r.pattern for r in records}
    assert frozenset({"b"}) not in patterns
    assert frozenset({"c"}) in patterns


def test_oracle_max_len_one(example_db):
    records = oracle_mine(example_db, Thresholds(0.3, 0.3, 0.05), max_len=1)
    assert all(len(r.items) == 1 for r in records)


def test_oracle_budget(example_db):
    with pytest.raises(EnumerationBudgetError):
        oracle_mine(example_db, Thresholds(0.3, 0.3, 0.05), max_len=5, budget=10)


def test_oracle_rejects_bad_arguments(example_db):
    with pytest.raises(ValueError):
        oracle_mine(example_db, Thresholds(0.3, 0.3, 0.05), max_len=0)
    with pytest.raises(ValueError):
        oracle_mine(example_db, Thresholds(0.3, 0.3, 0.05), max_len=2, budget=0)


def _random_db(seed):
    return generate(
        GeneratorConfig(
            seed=seed,
            num_transactions=12 + seed % 9,
            num_items=8,
            avg_transaction_length=3.5,
            max_quantity=4,
            max_unit_utility=9,
            prob_min=0.1,
            prob_max=1.0,
        )
    )


@pytest.mark.parametrize("seed", range(8))
def test_anti_monotone_support_and_probability(seed):
    db = _random_db(seed)
    for length in range(2, 5):
        for itemset in itertools.combinations(db.item_universe, length):
            if support_count(itemset, db) == 0:
                continue
            sup = support_count(itemset, db)
            pro = probability(itemset, db)
            for item in itemset:
                parent = tuple(i for i in itemset if i != item)
                assert sup <= support_count(parent, db)
                assert pro <= probability(parent, db) + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_per_transaction_share_bounds(seed):
    db = _random_db(seed)
    order = total_order(db)
    for tid, t in enumerate(db.transactions, 1):
        items = sorted(t.items)
        quantity = dict(zip(t.items, t.quantities))
        for length in (1, 2, min(3, len(items))):
            for itemset in itertools.combinations(items, length):
                u = sum(quantity[i] * db.unit_utilities[i] for i in itemset)
                share = u / t.tu
                assert 0.0 < share <= 1.0 + 1e-9
                ruo = remaining_utility_occupancy(itemset, tid, db, order)
                assert share + ruo <= 1.0 + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_occupancy_lies_in_unit_interval(seed):
    db = _random_db(seed)
    for length in (1, 2, 3):
        for itemset in itertools.combinations(db.item_universe, length):
            if support_count(itemset, db) > 0:
                assert 0.0 < utility_occupancy(itemset, db) <= 1.0 + 1e-9


def test_oracle_imports_nothing_from_the_miner():
    # The oracle is the ground truth: a fault in the lists or the search
    # must not show in both.
    imported = []
    for node in ast.walk(ast.parse(Path(measures.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert imported
    assert [name for name in imported if {"lists", "miner"} & set(name.split("."))] == []
