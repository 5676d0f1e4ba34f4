"""Generated-input properties: miner equals oracle, the oracle's enumeration
agrees with the per-pattern measures, the occupancy bound is at least a
list's mean, single-item lists under an order over some of the items
hold the direct measures and equal a per-transaction reference exactly,
an item below the probability minimum counts in no single-item list,
every visited node's ruo and occupancy bound equal the direct measures,
every record is within a few ulps of its exact rational measures, a
database's transaction table gives back the transactions it was built
from, the parser only accepts valid databases, reports a broken rule in
validation's words at its token, and agrees with its per-token
reference, the CLI never raises, and it refuses exactly the flags its
model types refuse; scaling every unit utility by 8 changes no bit
of any record or counter, and adding an item of unit utility 0 to every
transaction adds it to every record, changing no bit of any other; and
each preset's search counters shrink as it prunes more."""

import contextlib
import dataclasses
import io
import itertools
import math
import pickle
import string
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from occumine import (
    PRESETS,
    DatabaseValidationError,
    GeneratorConfig,
    MissingUtilityError,
    ParseError,
    Thresholds,
    Transaction,
    TransactionTable,
    UncertainDatabase,
    UndefinedMeasureError,
    build_database,
    generate,
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
from occumine.lists import build_single_item_lists, construct
from occumine.model import TOL, transaction_utility

from conftest import EXAMPLE_TRANSACTIONS, EXAMPLE_UTILITIES, exact_outcome

ITEMS = "abcde"
#: Every character an item id may hold.
ID_CHARACTERS = string.ascii_letters + string.digits + "_"

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


@st.composite
def boundary_thresholds(draw, db):
    """The measures of one itemset of ``db`` as thresholds, each moved by up
    to 3 ulps: alpha at its support / |D|, beta at its occupancy + TOL and
    gamma at (its probability + TOL) / |D|, or 0, so each cut-off lands on
    or next to the itemset's measure."""
    measures = oracle_measures(db, max_len=len(ITEMS))
    # A longer itemset's measures are sums of more terms, so more prone to
    # land an ulp apart in two evaluation orders.
    longer = [m for itemset, m in measures.items() if len(itemset) > 1]
    support, pro, uo = draw(st.sampled_from(longer or list(measures.values())))

    def near(value):
        steps = draw(st.integers(min_value=-3, max_value=3))
        for _ in range(abs(steps)):
            value = math.nextafter(value, math.copysign(math.inf, steps))
        return min(value, 1.0)

    gamma = near((pro + TOL) / len(db)) if draw(st.booleans()) else 0.0
    return Thresholds(near(support / len(db)), near(uo + TOL), gamma)


@settings(max_examples=1000, deadline=None)
@given(db=databases(), data=st.data())
def test_mine_equals_oracle_under_every_preset(db, data):
    # Record equality compares the floats exactly: the miner and the oracle
    # evaluate each measure in one order, so they agree even on a cut-off.
    th = data.draw(thresholds | boundary_thresholds(db), label="thresholds")
    expected = oracle_mine(db, th, max_len=len(ITEMS))
    for strategies in PRESETS.values():
        assert mine(db, th, strategies).patterns == expected


def exact_measures(db):
    """(support, probability, occupancy) of every itemset some transaction
    holds, by the paper's definitions in exact rationals: support, the sum
    of the products of the probabilities, and the sum of the shares
    ``q * u / tu`` over the support, from the stored floats, each of which
    a Fraction holds exactly."""
    sums = {}
    for t in db.transactions:
        tu = Fraction(t.tu)
        rows = [
            (item, Fraction(p), q * Fraction(db.unit_utilities[item]) / tu)
            for item, q, p in zip(t.items, t.quantities, t.probabilities)
        ]
        for size in range(1, len(rows) + 1):
            for subset in itertools.combinations(rows, size):
                items, probs, shares = zip(*subset)
                support, pro, share = sums.get(frozenset(items), (0, 0, 0))
                sums[frozenset(items)] = (support + 1, pro + math.prod(probs), share + sum(shares))
    return {itemset: (s, pro, share / s) for itemset, (s, pro, share) in sums.items()}


def ulps(value, exact):
    """How far the float ``value`` is from ``exact``, in ulps of ``exact``
    as a float; the ulp of a subnormal is the least subnormal."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


#: The furthest a record's probability or occupancy may be from its exact
#: value, in ulps.  Every term is positive, so each rounding adds at most
#: half an ulp of relative error: up to 4 products and 7 additions for a
#: probability; 2 roundings per share, 4 + 7 additions and a division for
#: an occupancy; an underflowed product or share is off by less than the
#: least subnormal.  Over 13,300 generated databases (229,386 itemsets) on
#: Python 3.11 the largest distance seen was 1.99 ulps for a probability
#: and 2.55 for an occupancy.
EXACT_ULPS = 16


@settings(max_examples=300, deadline=None)
@given(db=databases(), data=st.data())
def test_records_are_within_ulps_of_the_exact_measures(db, data):
    # TOL absorbs float error: a pattern whose exact measures clear the
    # thresholds is reported, and a reported one clears each cut-off (a
    # threshold less TOL) within EXACT_ULPS of its exact measure.
    th = data.draw(thresholds | boundary_thresholds(db), label="thresholds")
    exact = exact_measures(db)
    n = len(db)
    min_sup, min_pro, min_uo, _ = th.cutoffs(n)
    clear = {
        itemset
        for itemset, (support, pro, uo) in exact.items()
        if support >= min_sup and pro >= Fraction(th.gamma) * n and uo >= Fraction(th.beta)
    }
    for strategies in PRESETS.values():
        records = mine(db, th, strategies).patterns
        assert clear <= {r.pattern for r in records}
        for r in records:
            support, pro, uo = exact[r.pattern]
            assert r.support == support >= min_sup
            pairs = ((r.probability, pro, min_pro), (r.utility_occupancy, uo, min_uo))
            for value, exact_value, cutoff in pairs:
                assert ulps(value, exact_value) <= EXACT_ULPS
                slack = EXACT_ULPS * Fraction(math.ulp(float(exact_value)))
                assert exact_value + slack >= Fraction(cutoff)


@settings(max_examples=150, deadline=None)
@given(db=databases())
def test_enumeration_equals_per_pattern_measures(db):
    # Two computations of the same measures: one pass over all itemsets,
    # and one read of the database per pattern.  Both evaluate in the
    # miner's order, so the floats agree to the bit.
    measures = oracle_measures(db, max_len=len(ITEMS))
    assert len(measures) >= len(db.item_universe)
    for itemset, (support, pro, uo) in measures.items():
        assert support == support_count(itemset, db)
        assert pro.hex() == probability(itemset, db).hex()
        assert uo.hex() == utility_occupancy(itemset, db).hex()


@settings(max_examples=150, deadline=None)
@given(db=databases(), k=st.integers(min_value=1, max_value=8))
def test_bound_is_at_least_the_list_mean(db, k):
    # The search skips the bound when occupancy reaches beta.  That is sound
    # only if no list with support >= k has a bound below its mean
    # occupancy + remaining, which is at least its occupancy.
    order = total_order(db)
    singles = build_single_item_lists(db, order.items)
    level = list(singles.values())
    while level:
        deeper = []
        for plist, summary in level:
            if summary.support >= k:
                remaining = sum(plist.ruo) / summary.support
                assert summary.occupancy + remaining <= upper_bound(plist, k) + TOL
            if summary.support:
                later = order.items[order.rank[plist.items[-1]] + 1 :]
                deeper += [construct(plist, singles[item][0]) for item in later]
        level = deeper


@settings(max_examples=150, deadline=None)
@given(db=databases(), k=st.integers(min_value=0, max_value=8))
def test_summary_only_join_equals_the_full_join(db, k):
    # The search joins a leaf for its summary alone: the bitset gate, the
    # tids and every summary float must be the full join's, to the bit.
    order = total_order(db)
    singles = build_single_item_lists(db, order.items)
    level = [plist for plist, _ in singles.values()]
    while level:
        deeper = []
        for xa in level:
            for item in order.items[order.rank[xa.items[-1]] + 1 :]:
                b = singles[item][0]
                full = construct(xa, b, k)
                leaf = construct(xa, b, k, summary_only=True)
                assert (leaf is None) == (full is None)
                if full is None:
                    continue
                (leaf_list, leaf_sum), (full_list, full_sum) = leaf, full
                assert (leaf_list.items, leaf_list.tids, leaf_list.bits) == (
                    full_list.items, full_list.tids, full_list.bits
                )
                assert leaf_list.pro is leaf_list.uo is leaf_list.rows is None
                assert leaf_sum.support == full_sum.support == leaf_list.support
                assert leaf_sum.probability.hex() == full_sum.probability.hex()
                assert leaf_sum.occupancy.hex() == full_sum.occupancy.hex()
                if full_sum.support:
                    deeper.append(full_list)
        level = deeper


@settings(max_examples=150, deadline=None)
@given(db=databases(), th=thresholds)
def test_values_read_on_demand_at_every_node(db, th):
    # A joined list reads ruo through its rows; under s1 and s13 the search
    # itself never reads ruo.  The bound is the mean of the min_sup largest
    # uo + ruo values, each measured on its own transaction.
    min_sup = th.min_support(len(db))
    for strategies in PRESETS.values():
        nodes = []

        def hook(plist, summary):
            nodes.append(
                (plist.items, plist.tids, plist.ruo, summary, upper_bound(plist, min_sup))
            )

        mine(db, th, strategies, on_node=hook)
        promising = [items[0] for items, *_ in nodes if len(items) == 1]
        if not promising:
            continue
        order = total_order(db, promising)
        for items, tids, ruo, summary, bound in nodes:
            expected = [remaining_utility_occupancy(items, tid, db, order) for tid in tids]
            assert list(map(float.hex, ruo)) == list(map(float.hex, expected))
            assert bound >= summary.occupancy + sum(ruo) / len(ruo) - TOL
            # In a one-transaction database every item has support 1, so its
            # order falls back to ids and the uo may differ in the last bit.
            alone = [dataclasses.replace(db, transactions=(db.transaction(tid),)) for tid in tids]
            uo = [utility_occupancy(items, one) for one in alone]
            top = sorted(map(sum, zip(uo, expected)), reverse=True)[:min_sup]
            assert abs(bound - sum(top) / min_sup) <= TOL


@settings(max_examples=200, deadline=None)
@given(db=databases(), th=thresholds)
def test_scaling_every_unit_utility_by_eight_changes_no_bit(db, th):
    # A relation with no reference: mine and the oracle share the record
    # builder, the cut-offs, the total order and the stored tu, so their
    # equality cannot catch a fault in any of those, but a shared fault
    # that makes a result depend on the utilities' scale shows here.  Every
    # q * u and every tu scales by 8 exactly (no drawn utility makes a
    # product subnormal), so every share q * u / tu, and from it every
    # record and counter, is bit-identical, and the scaled database still
    # validates.
    table = db.transactions
    scaled = UncertainDatabase(
        dataclasses.replace(table, tu=[8.0 * tu for tu in table.tu]),
        {item: 8.0 * u for item, u in db.unit_utilities.items()},
    )
    assume(all(map(math.isfinite, scaled.transactions.tu)))
    for strategies in PRESETS.values():
        want = exact_outcome(mine(db, th, strategies))
        assert exact_outcome(mine(scaled, th, strategies)) == want


def _exact_records(outcome):
    return {
        (r.sort_key(), r.support, r.probability.hex(), r.utility_occupancy.hex())
        for r in outcome.patterns
    }


@settings(max_examples=200, deadline=None)
@given(db=databases(), th=thresholds, data=st.data())
def test_adding_a_zero_utility_item_everywhere_extends_every_record(db, th, data):
    # A relation with no reference, like the scaling one.  The added item
    # holds every transaction, with probability 1 and a share of exactly
    # 0, so no tu, product or sum changes: each old pattern keeps its bits,
    # gains a twin with the item at the same support, probability and
    # occupancy, and the item alone has occupancy 0 and never qualifies.
    # Its support ties with an item in every transaction, so its drawn id
    # decides where it ranks among them.
    zero = data.draw(
        st.text("abcdefz01", min_size=1, max_size=2).filter(
            lambda item: item not in db.unit_utilities
        ),
        label="item",
    )
    rows = [
        list(zip(t.items, t.quantities, t.probabilities)) + [(zero, 1, 1.0)]
        for t in db.transactions
    ]
    extended = build_database(rows, {**db.unit_utilities, zero: 0.0})
    assert extended.transactions.tu == db.transactions.tu
    for strategies in PRESETS.values():
        old = _exact_records(mine(db, th, strategies))
        twins = {(tuple(sorted((*items, zero))), *measures) for items, *measures in old}
        assert _exact_records(mine(extended, th, strategies)) == old | twins


def _traced_outcome(db, th, strategies, name=str):
    """``mine``'s outcome as :func:`exact_outcome` gives it, and the nodes it
    visits, with every item named by ``name`` and every float as hex."""
    nodes = []

    def hook(plist, summary):
        support, probability, occupancy = summary
        items = tuple(map(name, plist.items))
        nodes.append((items, tuple(plist.tids), support, probability.hex(), occupancy.hex()))

    records, counters = exact_outcome(mine(db, th, strategies, on_node=hook))
    records = [(tuple(map(name, items)), *measures) for items, *measures in records]
    return records, counters, nodes


@settings(max_examples=200, deadline=None)
@given(db=databases(), th=thresholds, prefix=st.text(ID_CHARACTERS, min_size=1, max_size=3))
def test_renaming_items_in_their_order_changes_no_bit(db, th, prefix):
    # A relation with no reference, like the scaling one.  One prefix on
    # every id keeps every pair of ids in the same order, so the total
    # order, whose ties fall back to the ids, ranks the renamed items as it
    # ranked the old ones, and every sum runs in the same order: each
    # record, named back, each counter but the wall time and each visited
    # node is bit-identical.
    table = db.transactions
    renamed = UncertainDatabase(
        dataclasses.replace(table, items=[prefix + item for item in table.items]),
        {prefix + item: u for item, u in db.unit_utilities.items()},
    )
    old_id = {prefix + item: item for item in db.unit_utilities}.__getitem__
    for strategies in PRESETS.values():
        want = _traced_outcome(db, th, strategies)
        assert _traced_outcome(renamed, th, strategies, old_id) == want


@settings(max_examples=200, deadline=None)
@given(db=databases(), th=thresholds)
def test_each_pruning_strategy_only_shrinks_the_search(db, th):
    # full prunes by support, the bound and probability; s12 drops the
    # probability pruning, s13 the bound, and s1 keeps support pruning
    # alone, so each counter reads full <= s12 <= s1 and full <= s13 <= s1.
    counters = ("visited_nodes", "constructed_lists", "candidate_joins")
    stats = {name: mine(db, th, PRESETS[name]).stats.as_dict() for name in PRESETS}
    for counter in counters:
        count = {name: stats[name][counter] for name in PRESETS}
        assert count["full"] <= count["s12"] <= count["s1"], (counter, count)
        assert count["full"] <= count["s13"] <= count["s1"], (counter, count)


@settings(max_examples=200, deadline=None)
@given(db=databases(), th=thresholds)
def test_search_visits_the_tree_depth_first_in_rank_order(db, th):
    # The set-enumeration tree, depth first: the roots in the total order,
    # each node after its prefix, siblings in ascending rank of their last
    # item, and a node's descendants right after it, before its next
    # sibling.
    for strategies in PRESETS.values():
        visits = []
        mine(db, th, strategies, on_node=lambda plist, _: visits.append(plist.items))
        position = {items: k for k, items in enumerate(visits)}
        assert len(position) == len(visits)
        roots = [items[0] for items in visits if len(items) == 1]
        assert roots == list(total_order(db, roots).items)
        rank = {item: k for k, item in enumerate(roots)}
        last_rank = {}
        for k, items in enumerate(visits):
            ranks = [rank[item] for item in items]
            assert ranks == sorted(set(ranks))
            prefix = items[:-1]
            assert not prefix or position[prefix] < k
            assert last_rank.get(prefix, -1) < ranks[-1]
            last_rank[prefix] = ranks[-1]
            size = len(items)
            below = sum(len(other) > size and other[:size] == items for other in visits)
            assert all(other[:size] == items for other in visits[k + 1 : k + 1 + below])


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
    singles = build_single_item_lists(db, order.items)
    assert list(singles) == list(order.items)
    for item, (plist, _) in singles.items():
        holding = [(tid, t) for tid, t in enumerate(db.transactions, 1) if item in t.items]
        assert plist.tids == [tid for tid, _ in holding]
        for (tid, t), pro, uo, ruo in zip(holding, plist.pro, plist.uo, plist.ruo):
            k = t.items.index(item)
            assert abs(pro - t.probabilities[k]) <= TOL
            assert abs(uo - t.quantities[k] * db.unit_utilities[item] / t.tu) <= TOL
            assert ruo.hex() == remaining_utility_occupancy((item,), tid, db, order).hex()
    assert all(ruo == 0.0 for ruo in singles[order.items[-1]][0].ruo)


@settings(max_examples=150, deadline=None)
@given(db=databases(), data=st.data())
def test_single_item_lists_under_a_probability_minimum(db, data):
    # Under probability pruning the miner passes the probability minimum,
    # here on or an ulp next to some item's summed probability: an item
    # below it gets no list and counts in no kept list's ruo, and the kept
    # lists are otherwise the ones built without it.
    order = total_order(db)
    sums = {item: probability([item], db) for item in order.items}
    minimum = math.nextafter(
        data.draw(st.sampled_from(sorted(sums.values()))),
        data.draw(st.sampled_from([-math.inf, 0.0, math.inf])),
    )
    singles = build_single_item_lists(db, order.items, minimum)
    kept = [item for item in order.items if sums[item] >= minimum]
    assert list(singles) == kept
    everything = build_single_item_lists(db, order.items)
    kept_order = total_order(db, kept)
    for item, (plist, summary) in singles.items():
        whole, whole_summary = everything[item]
        assert (plist.tids, plist.pro, plist.uo, summary) == (
            whole.tids, whole.pro, whole.uo, whole_summary
        )
        for tid, ruo in zip(plist.tids, plist.ruo):
            assert ruo.hex() == remaining_utility_occupancy([item], tid, db, kept_order).hex()


#: Unit utility 0 for ``e``: it occurs but adds nothing to tu, uo or ruo.
ZERO_UTILITY_DB = parse_database(
    "a:2:0.5 e:3:0.25 b:1:1\ne:1:0.125 c:2:0.75\nb:3:0.5\n", "a 3\nb 7\nc 0.1\nd 2\ne 0\n"
)


@settings(max_examples=100, deadline=None)
@given(db=databases(), ranked=st.permutations(ITEMS), size=st.integers(0, len(ITEMS)))
@example(db=ZERO_UTILITY_DB, ranked=list("eacbd"), size=4)
@example(db=ZERO_UTILITY_DB, ranked=list("beacd"), size=2)
def test_single_item_lists_equal_a_per_transaction_reference_exactly(db, ranked, size):
    # Built transaction by transaction from db.transactions, the way the
    # definitions read; nothing is allowed to differ, not even by a rounding.
    order = total_order(db, [item for item in ranked[:size] if item in db.item_supports])
    singles = build_single_item_lists(db, order.items)
    assert list(singles) == list(order.items)
    for item, (plist, summary) in singles.items():
        tids, pro, uo, ruo = [], [], [], []
        for tid, t in enumerate(db.transactions, 1):
            if item not in t.items:
                continue
            k = t.items.index(item)
            tids.append(tid)
            pro.append(t.probabilities[k])
            uo.append(t.quantities[k] * db.unit_utilities[item] / t.tu)
            later = sorted(
                (order.rank[other], j)
                for j, other in enumerate(t.items)
                if order.rank.get(other, -1) > order.rank[item]
            )
            total = 0.0
            for _, j in reversed(later):  # descending rank, left to right
                total += t.quantities[j] * db.unit_utilities[t.items[j]] / t.tu
            ruo.append(total)
        assert plist.tids == tids
        for got, want in ((plist.pro, pro), (plist.uo, uo), (plist.ruo, ruo)):
            assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert plist.bits == sum(1 << tid for tid in tids)
        assert summary.probability == sum(pro, 0.0)


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
#: skipping the sort where it cannot prune must not change them.  Every
#: preset builds only the joins that meet the support minimum, so s12's
#: constructed_lists equal its visited_nodes.
SEARCH_COUNTS = {
    ((0.05, 0.1, 0.02), "full"): (152, 743, 239, 117),
    ((0.05, 0.1, 0.02), "s12"): (279, 806, 279, 117),
    ((0.03, 0.2, 0.0), "full"): (847, 2535, 847, 186),
    ((0.03, 0.2, 0.0), "s12"): (847, 2535, 847, 186),
}


@pytest.mark.parametrize("triple,preset", SEARCH_COUNTS)
def test_bound_gate_keeps_the_search(bench_db, triple, preset):
    stats = mine(bench_db, Thresholds(*triple), PRESETS[preset]).stats
    counts = (
        stats.visited_nodes, stats.candidate_joins, stats.constructed_lists, stats.patterns_found
    )
    assert counts == SEARCH_COUNTS[triple, preset]


#: ``(upper_bound calls, pruned_bound)`` of ``mine(bench_db, ...)``: one call
#: per visited node whose occupancy is below beta and that has a later
#: visited sibling.
BOUND_COUNTS = {
    ((0.05, 0.1, 0.02), "full"): (33, 0),
    ((0.05, 0.1, 0.02), "s12"): (42, 0),
    ((0.03, 0.2, 0.0), "full"): (425, 71),
    ((0.03, 0.2, 0.0), "s12"): (425, 71),
}


@pytest.mark.parametrize("triple,preset", BOUND_COUNTS)
def test_bound_gate_gathers_ruo_only_below_beta(bench_db, monkeypatch, triple, preset):
    # A node whose occupancy reaches beta cannot be pruned, since ruo is
    # never negative, and the last node of a frame has no subtree to cut,
    # so the gate calls upper_bound, the one reader of ruo, only below beta
    # at a node with a later sibling.
    import occumine.miner as miner_module
    from occumine.lists import PatternList

    reads = Counter()
    gathered = PatternList.ruo.fget
    monkeypatch.setattr(
        PatternList, "ruo", property(lambda plist: reads.update([plist.items]) or gathered(plist))
    )
    calls = []
    monkeypatch.setattr(
        miner_module,
        "upper_bound",
        lambda plist, k: calls.append(plist.items) or upper_bound(plist, k),
    )
    nodes = []
    thresholds = Thresholds(*triple)
    stats = mine(
        bench_db, thresholds, PRESETS[preset], on_node=lambda *node: nodes.append(node)
    ).stats

    _, _, beta, _ = thresholds.cutoffs(len(bench_db))
    # Siblings share items[:-1], so a node is last in its frame when no
    # later visited node has its prefix.
    last = {p.items[:-1]: p.items for p, _ in nodes}
    below = [p.items for p, s in nodes if s.occupancy < beta and last[p.items[:-1]] != p.items]
    assert reads == Counter(below)
    assert calls == below
    assert (len(calls), stats.pruned_bound) == BOUND_COUNTS[triple, preset]
    assert len(below) < len(nodes)  # some node is not gathered


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


#: Any float, weighted towards the edges of the flags' ranges.
flag_floats = st.one_of(
    st.floats(),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, math.nextafter(1.0, 2.0),
         5e-324, -5e-324, sys.float_info.min]
    ),
)


def _refusal(build):
    """The message of the ValueError ``build()`` raises, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def _assert_cli_agrees(argv, refusal):
    """``main(argv)`` returns 0 when ``refusal`` is None, and otherwise
    exits 2 with the subcommand's usage error carrying ``refusal``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        if refusal is None:
            assert main(argv) == 0
            return
        with pytest.raises(SystemExit) as info:
            main(argv)
    assert info.value.code == 2
    assert err.getvalue().endswith(f"occumine {argv[0]}: error: {refusal}\n")


# "--flag=value", because argparse takes "-inf" or "-5e-324" after a
# space for an option.
@settings(max_examples=60, deadline=None)
@given(alpha=flag_floats, beta=flag_floats, gamma=flag_floats)
@example(alpha=1.0, beta=5e-324, gamma=-0.0)
@example(alpha=math.nextafter(1.0, 2.0), beta=0.5, gamma=0.5)
def test_mine_cli_refuses_exactly_what_thresholds_refuse(alpha, beta, gamma):
    argv = [
        "mine", "--data", str(EXAMPLE_TRANSACTIONS), "--utility", str(EXAMPLE_UTILITIES),
        f"--alpha={alpha!r}", f"--beta={beta!r}", f"--gamma={gamma!r}",
    ]
    _assert_cli_agrees(argv, _refusal(lambda: Thresholds(alpha, beta, gamma)))


@settings(max_examples=60, deadline=None)
@given(
    transactions=st.integers(-2, 3),
    avg_length=flag_floats,
    prob_min=flag_floats,
    prob_max=flag_floats,
)
@example(transactions=3, avg_length=1e308, prob_min=5e-324, prob_max=5e-324)
@example(transactions=3, avg_length=1.0, prob_min=0.5, prob_max=0.4)
# An empty database is a valid one; a negative count is not.
@example(transactions=0, avg_length=2.0, prob_min=0.1, prob_max=1.0)
@example(transactions=-1, avg_length=2.0, prob_min=0.1, prob_max=1.0)
def test_generate_cli_refuses_exactly_what_generator_config_refuses(
    transactions, avg_length, prob_min, prob_max
):
    refusal = _refusal(
        lambda: GeneratorConfig(
            seed=1,
            num_transactions=transactions,
            num_items=3,
            avg_transaction_length=avg_length,
            prob_min=prob_min,
            prob_max=prob_max,
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        data, utility = Path(tmp, "d.txt"), Path(tmp, "u.txt")
        argv = [
            "generate", "--seed", "1", f"--transactions={transactions}", "--items", "3",
            f"--avg-length={avg_length!r}", f"--prob-min={prob_min!r}",
            f"--prob-max={prob_max!r}", "--data", str(data), "--utility", str(utility),
        ]
        _assert_cli_agrees(argv, refusal)
        assert data.exists() == utility.exists() == (refusal is None)


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


@st.composite
def single_faults(draw):
    """A database whose one occurrence or one unit utility breaks one rule,
    as its two texts, the database, and the (line, column) of the bad token
    in the file that holds it: the transactions for an occurrence, the
    utilities for a unit utility.  Comment lines shift the line numbers."""
    kind = draw(st.sampled_from(["repeat", "quantity", "probability", "missing", "utility"]))
    prices = {item: draw(st.sampled_from([1.0, 2.5, 1e-300, 1e300])) for item in "abc"}
    utilities = dict(prices)
    token = st.tuples(st.sampled_from("abc"), st.integers(1, 3), probabilities).map(list)
    line = st.lists(token, min_size=1, max_size=3, unique_by=lambda t: t[0])
    rows = draw(st.lists(line, min_size=1, max_size=4))
    k = draw(st.integers(0, len(rows) - 1))
    row = rows[k]
    at = draw(st.integers(0, len(row) - 1))
    if kind == "repeat":
        at = draw(st.integers(at + 1, len(row)))
        row.insert(at, [row[draw(st.integers(0, at - 1))][0], 1, 0.5])
    elif kind == "quantity":
        row[at][1] = draw(st.sampled_from([0, -1, -7]))
    elif kind == "probability":
        row[at][2] = draw(st.sampled_from([0.0, -0.0, -0.5, 1.5, 1 + 2**-52, math.nan, math.inf]))
    elif kind == "missing":
        item = row[at][0]
        del utilities[item]
        # The parser stops at the item's first token.
        k, at = next((j, r.index(t)) for j, r in enumerate(rows) for t in r if t[0] == item)
    else:
        utilities[row[at][0]] = draw(st.sampled_from([-1.0, -1e-300, math.nan, math.inf]))
    lines, bad = [], None
    for j, tokens in enumerate(rows):
        if draw(st.booleans()):
            lines.append("# note")
        texts = [f"{item}:{q}:{p!r}" for item, q, p in tokens]
        if j == k:
            bad = len(lines) + 1, sum(len(text) + 1 for text in texts[:at]) + 1
        lines.append(" ".join(texts))
    if kind == "utility":
        item = row[at][0]
        bad = list(utilities).index(item) + 1, len(item) + 2
    # Each stored tu is the total at the drawn prices; validation checks no
    # total of a line with an unpriced item, and a bad price is flagged first.
    columns = [tuple(zip(*tokens)) for tokens in rows]
    db = UncertainDatabase(
        [Transaction(*c, transaction_utility(c[0], c[1], prices)) for c in columns], utilities
    )
    utility = "".join(f"{item} {value!r}\n" for item, value in utilities.items())
    return ("\n".join(lines) + "\n", utility), db, bad


@settings(max_examples=300, deadline=None)
@given(case=single_faults())
def test_parser_reports_the_first_violation_at_its_token(case):
    # The parser and validate_database state each rule once, in model: a
    # file that breaks one rule fails at the bad token's line and column,
    # in the words of the first violation validate_database finds.
    texts, db, (line, column) = case
    first = validate_database(db)[0]
    with pytest.raises((ParseError, MissingUtilityError)) as raised:
        parse_database(*texts)
    assert (raised.value.line, raised.value.column) == (line, column)
    if first.message == "missing utility entry":
        assert type(raised.value) is MissingUtilityError and raised.value.item == first.item
    else:
        assert str(raised.value) == f"line {line}, column {column}: {first.message}"


def _writer_rows(quantities, probabilities, **row):
    occurrences = st.tuples(
        st.sampled_from("abc"), st.sampled_from(quantities), st.sampled_from(probabilities)
    )
    return st.lists(st.lists(occurrences, max_size=3, **row), min_size=1, max_size=4)


def _writer_utilities(values):
    return st.fixed_dictionaries({item: st.sampled_from(values) for item in "abc"})


#: Rows and unit utilities from valid pools alone, or from pools that mix
#: in invalid values, repeated items and empty rows.
valid_writer_rows = _writer_rows(
    [1, 3], [0.25, 1.0], min_size=1, unique_by=lambda occurrence: occurrence[0]
)
valid_writer_utilities = _writer_utilities([0.0, 2.0])
writer_rows = st.one_of(
    valid_writer_rows,
    _writer_rows([0, 1, 3, 2.0, True], [0.0, 0.25, 1.0, 1.5, math.nan, math.inf]),
)
writer_utilities = st.one_of(
    valid_writer_utilities, _writer_utilities([-1.0, 0.0, 2.0, math.nan, math.inf])
)


@settings(max_examples=300, deadline=None)
@example(rows=[[("a", 1, 0.0)]], utilities={"a": 2.0})
@example(rows=[[("a", 1, 1.5)]], utilities={"a": 2.0})
@example(rows=[[("a", 0, 0.25), ("b", 1, 0.25)]], utilities={"a": 2.0, "b": 2.0})
@example(rows=[[("a", 1, 0.25), ("a", 3, 0.25)]], utilities={"a": 2.0})
@example(rows=[[("a", 1, 0.25)]], utilities={"a": 2.0, "b": -1.0})
@example(rows=[[("a", 1, 0.25)]], utilities={"a": 0.0})
@given(rows=writer_rows, utilities=writer_utilities)
def test_writer_refuses_exactly_what_validation_flags(rows, utilities):
    # The mirror of the parser property: the writer never writes a file
    # the parser refuses.
    try:
        db = build_database(rows, utilities)
    except ValueError:  # a row whose total utility is not finite
        assume(False)
    violations = validate_database(db)
    if violations:
        with pytest.raises(DatabaseValidationError) as refused:
            write_database(db)
        assert refused.value.violations == violations
    else:
        assert parse_database(*write_database(db)) == db


@settings(max_examples=300, deadline=None)
@example(rows=[], utilities={"a": 2.0, "b": 2.0, "c": 2.0})
@example(rows=[[("a", 1, 0.25)]], utilities={"a": 2.0, "b": 2.0, "c": 2.0})
@given(rows=valid_writer_rows, utilities=valid_writer_utilities)
def test_writer_writes_each_line_from_its_own_tokens(rows, utilities):
    # The reference formats every token first and joins each transaction's
    # slice of them; the writer joins each line from one shared stream of
    # tokens, so a line that took too few or too many of them shifts every
    # line after it.
    db = build_database(rows, utilities)
    assume(not validate_database(db))  # a zero-utility line
    table = db.transactions
    tokens = [
        f"{item}:{q}:{dataio._format_number(p)}"
        for item, q, p in zip(table.items, table.quantities, table.probabilities)
    ]
    want = "".join(" ".join(tokens[span]) + "\n" for span in table.spans())
    assert write_database(db)[0] == want


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
    # Many distinct spellings, and several of one value: leading zeros on
    # quantities, full precision and trailing zeros on probabilities.
    zeros = st.integers(0, 3).map("0".__mul__)
    quantity = st.one_of(
        st.sampled_from(quantities), st.builds("{}{}".format, zeros, st.integers(1, 10**6))
    )
    probability = st.one_of(
        st.sampled_from(probabilities),
        st.floats(1e-3, 1.0).map(repr),
        st.builds("0.{:04d}{}".format, st.integers(1, 9999), zeros),
    )
    items = ["a", "b", "c"] if clean else ["a", "b", "c", "d", "q-x"]
    space = st.sampled_from(
        [" ", "  ", "\t", "\x0b", "\x1c", "\x1f", "\xa0", "\u2028", " \t"]
    )
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["transaction"] * 4 + ["comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  #a:1:1", "#", "# café"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0", "\u2028"])))
        else:
            line_items = draw(
                st.lists(st.sampled_from(items), min_size=1, max_size=4, unique=clean)
            )
            fields = []
            for item in line_items:
                fields += [item, draw(quantity), draw(probability)]
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
    block = dataio._parse_tokens(dataio._lines(dataio._decode(data)), utilities)
    return UncertainDatabase(TransactionTable(*block), dict(utilities))


@settings(max_examples=400, deadline=None)
@example(texts=("a:1:0.5:b 1:0.5\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@example(texts=("a:1: 0.5:b:1 ::0.5\n", UTILITY), block_lines=dataio._BLOCK_LINES)
# Right colon and field counts over the block, wrong shape per token.
@example(texts=("a:1 0.5:b:1:0.5\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@example(texts=("a::1 1\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@example(texts=("b:1:0.5\na::1\n1\n", UTILITY), block_lines=2)
# 0x1c-0x1f separate tokens for str.split, not for bytes.split.
@example(texts=("a:1:0.5\x1cb:2:0.25\x1d\n\x1e\x1f\na:1:1\x1fb:1:1\n", UTILITY), block_lines=2)
@example(texts=("a:1\x1c:0.5\n", UTILITY), block_lines=dataio._BLOCK_LINES)
# Not ASCII, or a "#", anywhere in an otherwise valid block.
@example(texts=("a:1:0.5\n# café\nb:1:0.5\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@example(texts=("a:1:0.5\xa0b:1:0.5\n\u2028a:2:1\n", UTILITY), block_lines=1)
@example(texts=("a:1:0.5 b#:1:0.5\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@example(texts=("a:1:0.5#\nb:1:0.5\n", UTILITY), block_lines=dataio._BLOCK_LINES)
# NaN and inf as a block's first and last probability.
@example(texts=("a:1:nan b:1:0.5\nb:1:1\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@example(texts=("a:1:0.5\nb:1:0.5 a:1:nan\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@example(texts=("a:1:inf b:1:0.5\nb:1:1\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@example(texts=("a:1:0.5\nb:1:0.5 a:1:inf\n", UTILITY), block_lines=dataio._BLOCK_LINES)
@given(
    texts=st.one_of(fuzzed_inputs(), parser_inputs(), spelled_inputs()),
    block_lines=st.sampled_from([1, 2, 3, dataio._BLOCK_LINES]),
)
def test_block_parser_equals_token_parser(texts, block_lines):
    _assert_parses_as_token_parser(texts, block_lines, dataio._TABLE_MAX)


@settings(max_examples=200, deadline=None)
@given(
    texts=st.one_of(fuzzed_inputs(), parser_inputs(), spelled_inputs()),
    block_lines=st.sampled_from([1, 2, 3]),
)
def test_block_parser_equals_token_parser_past_the_table_limit(texts, block_lines):
    # A table full after the first block leaves the later ones to convert
    # field by field, so both paths meet in one input.
    _assert_parses_as_token_parser(texts, block_lines, 2)


def _assert_parses_as_token_parser(texts, block_lines, table_max):
    expected = _outcome(_token_parse, *texts)
    with mock.patch.object(dataio, "_BLOCK_LINES", block_lines), mock.patch.object(
        dataio, "_TABLE_MAX", table_max
    ):
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


def test_generated_database_parses_to_the_utility_keys_and_exact_floats():
    # Over several blocks, each parsed whole as bytes.
    config = GeneratorConfig(
        seed=3,
        num_transactions=3 * dataio._BLOCK_LINES,
        num_items=60,
        avg_transaction_length=5.0,
        prob_min=1e-6,
    )
    data, utility = write_database(generate(config))
    got = parse_database(data.encode(), utility.encode())
    expected = _token_parse(data, utility)
    assert got == expected
    keys = {item: item for item in got.unit_utilities}
    assert all(item is keys[item] for item in got.transactions.items)
    assert list(map(float.hex, got.transactions.probabilities)) == list(
        map(float.hex, expected.transactions.probabilities)
    )
    assert list(map(float.hex, got.transactions.tu)) == list(
        map(float.hex, expected.transactions.tu)
    )
