import itertools

import pytest

from occumine import (
    GeneratorConfig,
    PatternSummary,
    generate,
    oracle_measures,
    parse_database,
    probability,
    remaining_utility_occupancy,
    support_count,
    total_order,
    utility_occupancy,
)
from occumine.lists import build_single_item_lists, construct


@pytest.fixture(scope="module")
def example_singles(example_db):
    order = total_order(example_db)
    return build_single_item_lists(example_db, order.items)


def test_single_list_of_e(example_singles):
    plist, _ = example_singles["e"]
    assert plist.tids == [5, 6, 8, 10]
    assert plist.pro[0] == pytest.approx(0.8, abs=1e-9)
    assert plist.uo[0] == pytest.approx(0.1837, abs=1e-4)
    assert plist.ruo[0] == pytest.approx(0.8163, abs=1e-4)


def test_summary_of_b(example_singles):
    plist, summary = example_singles["b"]
    assert summary.support == 5
    assert summary.probability == pytest.approx(3.3, abs=1e-9)
    assert summary.occupancy == pytest.approx(0.2192, abs=1e-4)
    assert sum(plist.ruo) / summary.support == pytest.approx(0.4181, abs=1e-4)


def test_lists_and_oracle_give_one_summary(example_db, example_singles):
    measures = oracle_measures(example_db, 2)
    for item, (_, summary) in example_singles.items():
        assert type(summary) is PatternSummary
        assert summary == measures[frozenset((item,))]
    _, joined = construct(example_singles["b"][0], example_singles["c"][0])
    assert type(joined) is type(measures[frozenset("bc")]) is PatternSummary
    assert joined == measures[frozenset("bc")]


def test_last_item_has_zero_remaining(example_singles):
    plist, _ = example_singles["c"]
    assert all(ruo == 0.0 for ruo in plist.ruo)
    assert sum(plist.ruo) == 0.0


def test_summaries_match_recomputation(example_singles, example_db):
    order = total_order(example_db)
    for plist, summary in example_singles.values():
        n = len(plist.tids)
        assert summary.support == n
        assert sum(plist.pro) == pytest.approx(summary.probability, abs=1e-9)
        assert sum(plist.uo) / n == pytest.approx(summary.occupancy, abs=1e-9)
        remaining = [
            remaining_utility_occupancy(plist.items, tid, example_db, order) for tid in plist.tids
        ]
        assert sum(plist.ruo) / n == pytest.approx(sum(remaining) / n, abs=1e-9)


def test_ruo_columns_are_summed_on_the_first_read(example_db):
    # A fresh build: the module fixture's columns are already filled.
    order = total_order(example_db)
    singles = build_single_item_lists(example_db, order.items)
    lists = [plist for plist, _ in singles.values()]
    assert all(plist.item_ruo == [] for plist in lists)
    joined, _ = construct(singles["e"][0], singles["a"][0])
    columns = [plist.item_ruo for plist in lists]
    assert len(joined.ruo) == joined.support
    assert all(len(plist.item_ruo) == plist.support for plist in lists)
    assert all(plist.item_ruo is column for plist, column in zip(lists, columns))  # in place


def test_probability_minimum_drops_items_before_any_list(example_db):
    # Summed probabilities: e 2.8, a 3.3000000000000003, b 3.3, d 4.7, c 5.4.
    # At a's sum, e and b, one ulp below it, are dropped and a is kept; b is
    # ranked between a and d, so it would count in a's ruo if it were kept.
    order = total_order(example_db)
    minimum = probability(["a"], example_db)
    singles = build_single_item_lists(example_db, order.items, minimum)
    assert list(singles) == ["a", "d", "c"]
    everything = build_single_item_lists(example_db, order.items)
    kept = total_order(example_db, singles)
    for item, (plist, summary) in singles.items():
        whole, whole_summary = everything[item]
        assert (plist.tids, plist.pro, plist.uo, summary) == (
            whole.tids, whole.pro, whole.uo, whole_summary
        )
        remaining = [
            remaining_utility_occupancy([item], tid, example_db, kept) for tid in plist.tids
        ]
        assert _hexes(plist.ruo) == _hexes(remaining)
    assert _hexes(singles["a"][0].ruo) != _hexes(everything["a"][0].ruo)


def test_construct_first_level(example_singles):
    joined = construct(example_singles["e"][0], example_singles["a"][0])
    assert joined is not None
    plist, summary = joined
    assert plist.items == ("e", "a")
    assert plist.tids == [5, 8]
    assert plist.pro[0] == pytest.approx(0.72, abs=1e-9)
    assert plist.uo[0] == pytest.approx(0.3265, abs=1e-4)
    assert plist.ruo[0] == pytest.approx(0.6735, abs=1e-4)
    assert summary.support == 2


def test_construct_probability_sum(example_singles):
    _, summary = construct(example_singles["b"][0], example_singles["c"][0])
    assert summary.probability == pytest.approx(1.45, abs=1e-9)


def test_join_abort(example_singles):
    e_list = example_singles["e"][0]
    d_list = example_singles["d"][0]
    assert construct(e_list, d_list, abort_below=4) is None
    # without the abort the same join completes with its true support
    joined = construct(e_list, d_list)
    assert joined is not None
    assert joined[0].support == 2


def test_abort_flag_never_changes_contents(example_singles):
    items = list(example_singles)
    for a, b in itertools.combinations(items, 2):
        plain = construct(example_singles[a][0], example_singles[b][0])
        aborting = construct(example_singles[a][0], example_singles[b][0], abort_below=1)
        # min support 1 can never trigger the abort on non-disjoint lists
        if plain[0].tids:
            assert aborting is not None
            assert aborting[0] == plain[0]


def test_joined_remaining_comes_from_later_operand(example_singles):
    a_list = example_singles["a"][0]
    d_list = example_singles["d"][0]
    joined, _ = construct(a_list, d_list)
    d_ruo = dict(zip(d_list.tids, d_list.ruo))
    for tid, ruo in zip(joined.tids, joined.ruo):
        assert ruo == d_ruo[tid]


def _hexes(values):
    return [value.hex() for value in values]


@pytest.mark.parametrize("summary_only", [False, True])
def test_joins_of_support_below_two_match_a_per_row_join(summary_only):
    # Supports a 2, b 3, c 2, d 1, so the mining order is d, a, c, b.
    db = parse_database(
        "a:1:0.5 b:2:0.25 c:1:0.75\na:3:0.125 b:1:0.5\nb:1:0.375 c:2:0.625\nd:1:0.5\n",
        "a 3\nb 2\nc 5\nd 7\n",
    )
    order = total_order(db)
    singles = {item: plist for item, (plist, _) in
               build_single_item_lists(db, order.items).items()}
    a_c, _ = construct(singles["a"], singles["c"])
    joins = [("d", "a", 0), ("a", "c", 1), ("a", "b", 2), ("c", "b", 2)]
    cases = [(singles[x], singles[y], n) for x, y, n in joins] + [(a_c, singles["b"], 1)]
    for xa, b, support in cases:
        rows = [(i, b.tids.index(tid)) for i, tid in enumerate(xa.tids) if tid in b.tids]
        pro = [xa.pro[i] * b.pro[row] for i, row in rows]
        uo = [xa.uo[i] + b.uo[row] for i, row in rows]
        plist, summary = construct(xa, b, summary_only=summary_only)
        assert plist.tids == [xa.tids[i] for i, _ in rows]
        assert summary.support == plist.support == support
        assert summary.probability.hex() == sum(pro, 0.0).hex()
        assert summary.occupancy.hex() == (sum(uo) / support if support else 0.0).hex()
        if summary_only:
            assert plist.pro is plist.uo is plist.rows is plist.ruo is None
            continue
        assert (_hexes(plist.pro), _hexes(plist.uo)) == (_hexes(pro), _hexes(uo))
        assert plist.rows == tuple(row for _, row in rows)
        assert _hexes(plist.ruo) == _hexes(b.ruo[row] for _, row in rows)


def _chain_lists(db):
    """Join every reachable pattern's list, mirroring the search order, and
    yield each with its summary."""
    order = total_order(db)
    singles = build_single_item_lists(db, order.items)
    level = [singles[item] for item in order.items]
    while level:
        next_level = []
        for index, (xa, xa_summary) in enumerate(level):
            yield xa, xa_summary
            for xb, _ in level[index + 1 :]:
                if xb.items[:-1] != xa.items[:-1]:
                    continue
                joined = construct(xa, singles[xb.items[-1]][0])
                if joined and joined[0].tids:
                    next_level.append(joined)
        level = next_level


@pytest.mark.parametrize("seed", range(10))
def test_join_fidelity_against_direct_measures(seed):
    db = generate(
        GeneratorConfig(
            seed=seed,
            num_transactions=14 + seed,
            num_items=7,
            avg_transaction_length=3.2,
            max_quantity=4,
            max_unit_utility=9,
            prob_min=0.1,
            prob_max=1.0,
        )
    )
    order = total_order(db)
    for plist, summary in _chain_lists(db):
        items = plist.items
        assert summary.support == support_count(items, db)
        assert plist.bits == sum(1 << tid for tid in plist.tids)
        assert summary.probability.hex() == probability(items, db).hex()
        assert summary.occupancy.hex() == utility_occupancy(items, db).hex()
        for tid, list_pro, list_uo, list_ruo in zip(plist.tids, plist.pro, plist.uo, plist.ruo):
            t = db.transactions[tid - 1]
            pro = 1.0
            u = 0.0
            for item in items:
                k = t.items.index(item)
                pro *= t.probabilities[k]
                u += t.quantities[k] * db.unit_utilities[item]
            assert list_pro == pytest.approx(pro, abs=1e-9)
            assert list_uo == pytest.approx(u / t.tu, abs=1e-9)
            assert list_ruo.hex() == remaining_utility_occupancy(items, tid, db, order).hex()
            assert list_uo + list_ruo <= 1.0 + 1e-9
