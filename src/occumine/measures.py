"""Direct-from-database pattern measures and the exhaustive mining oracle.

Everything here recomputes from raw transactions, without the vertical
list machinery the miner uses, so this module serves as the independent
ground truth the search is tested against.  It never imports ``lists``,
or a fault there would show in miner and oracle alike, unseen.  The
oracle, :func:`oracle_mine`, is an enumeration, :func:`oracle_measures`,
that measures every itemset with no threshold, then a filter,
:func:`oracle_filter`, that holds its only threshold comparisons.  The
enumeration follows the miner's one float evaluation order, so ``mine``
and ``oracle_mine`` return equal records, floats included; the
per-pattern functions follow transaction order and agree within ``TOL``.

Measure definitions, for a pattern X over a database D:

* support count: number of transactions containing every item of X.
* utility: sum over supporting transactions of quantity * unit utility,
  over the items of X.
* utility occupancy: average over supporting transactions of the
  pattern's share of the transaction's total utility, so a value in
  (0, 1].
* probability: sum over supporting transactions of the product of the
  member items' occurrence probabilities.
* remaining utility occupancy: within one transaction, the utility share
  of the ranked items that come after X's last item under the mining
  total order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, prod
from typing import Iterable, Iterator, Mapping

from .errors import EnumerationBudgetError, MissingUtilityError, UndefinedMeasureError
from .model import PatternRecord, Thresholds, UncertainDatabase

#: Default cap on itemsets the oracle may examine before giving up.
DEFAULT_ENUMERATION_BUDGET = 1_000_000


@dataclass(frozen=True)
class TotalOrder:
    """The mining total order: ascending support count, ties by item id."""

    rank: dict[str, int]
    items: tuple[str, ...]

    def sort_pattern(self, pattern: Iterable[str]) -> tuple[str, ...]:
        """Return the pattern's items as a tuple sorted by rank."""
        return tuple(sorted(pattern, key=self.rank.__getitem__))


def total_order(db: UncertainDatabase, promising: Iterable[str] | None = None) -> TotalOrder:
    """Rank items by ascending support count, ties broken by ascending id.

    Only the ``promising`` items are ranked (default: the whole item
    universe).  Dropping items never reorders the rest, so orders built
    over different promising sets agree on their intersection.  The
    counts are the database's ``item_supports``; nothing is counted here.
    """
    counts = db.item_supports
    items = set(counts if promising is None else promising)
    unknown = items - counts.keys()
    if unknown:
        raise ValueError(f"items not in database universe: {sorted(unknown)}")
    ordered = tuple(sorted(items, key=lambda i: (counts[i], i)))
    return TotalOrder(rank={item: r for r, item in enumerate(ordered)}, items=ordered)


def _as_pattern(pattern: Iterable[str]) -> frozenset[str]:
    p = frozenset(pattern)
    if not p:
        raise ValueError("pattern must be non-empty")
    return p


def _supporting(p: frozenset[str], db: UncertainDatabase) -> Iterator[tuple]:
    """``(items, quantities, probabilities, tu)`` of each transaction of ``db``
    that holds every item of ``p``, in order, sliced from the columns."""
    table = db.transactions
    for span, tu in zip(table.spans(), table.tu):
        items = table.items[span]
        if p.issubset(items):
            yield items, table.quantities[span], table.probabilities[span], tu


def support_count(pattern: Iterable[str], db: UncertainDatabase) -> int:
    """Number of transactions containing every item of the pattern."""
    p = _as_pattern(pattern)
    return sum(1 for _ in _supporting(p, db))


def _pattern_utilities(p: frozenset[str], db: UncertainDatabase) -> Iterator[tuple[float, float]]:
    """``(utility of p, tu)`` in each transaction of ``db`` holding ``p``, in order."""
    utilities = db.unit_utilities
    for item in p:
        if item not in utilities:
            raise MissingUtilityError(item)
    for items, quantities, _, tu in _supporting(p, db):
        yield sum(q * utilities[i] for i, q in zip(items, quantities) if i in p), tu


def utility(pattern: Iterable[str], db: UncertainDatabase) -> float:
    """Total utility of the pattern over its supporting transactions."""
    total = 0.0
    for u, _ in _pattern_utilities(_as_pattern(pattern), db):
        total += u
    return total


def utility_occupancy(pattern: Iterable[str], db: UncertainDatabase) -> float:
    """Average share of transaction utility the pattern claims where it occurs."""
    p = _as_pattern(pattern)
    share_sum = 0.0
    supporting = 0
    for u, tu in _pattern_utilities(p, db):
        share_sum += u / tu
        supporting += 1
    if supporting == 0:
        raise UndefinedMeasureError(
            f"utility occupancy undefined: {sorted(p)} has no supporting transaction"
        )
    return share_sum / supporting


def probability(pattern: Iterable[str], db: UncertainDatabase) -> float:
    """Summed existential probability of the pattern over supporting transactions."""
    p = _as_pattern(pattern)
    total = 0.0
    for items, _, probabilities, _ in _supporting(p, db):
        total += prod(pr for item, pr in zip(items, probabilities) if item in p)
    return total


def remaining_utility_occupancy(
    pattern: Iterable[str],
    tid: int,
    db: UncertainDatabase,
    order: TotalOrder,
) -> float:
    """Utility share, in transaction ``tid``, of ranked items after the pattern.

    Only items that carry a rank contribute; items outside the order
    (filtered as unpromising) count toward the transaction utility in the
    denominator but never toward the remaining share.
    """
    p = _as_pattern(pattern)
    unranked = p.difference(order.rank)
    if unranked:
        raise ValueError(f"items not in the total order: {sorted(unranked)}")
    t = db.transaction(tid)
    if not p.issubset(t.items):
        raise ValueError(f"pattern {sorted(p)} is not contained in transaction {tid}")
    last = max(order.rank[item] for item in p)
    tail = 0.0
    for item, quantity in zip(t.items, t.quantities):
        rank = order.rank.get(item)
        if rank is not None and rank > last:
            tail += quantity * db.unit_utilities[item] / t.tu
    return tail


def oracle_measures(
    db: UncertainDatabase,
    max_len: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> dict[frozenset[str], tuple[int, float, float]]:
    """(support count, probability, utility occupancy) of every itemset of
    up to ``max_len`` items that some transaction holds, found with no
    pruning and no threshold, which is the point.  Each is evaluated as the
    miner's lists do: items in the mining total order; per transaction, the
    items' shares quantity * unit utility / tu added and their probabilities
    multiplied left to right; then ``sum(products, 0.0)`` and ``sum(shares)
    / support`` over ascending tids.  Raises :class:`EnumerationBudgetError`,
    before any work, if that means examining more than ``budget`` itemsets."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    items = total_order(db).items
    lengths = range(1, min(max_len, len(items)) + 1)
    examined = 0
    for length in lengths:
        examined += comb(len(items), length)
        if examined > budget:
            raise EnumerationBudgetError(budget)

    # item -> {tid: (quantity * unit utility / tu, probability)} over the
    # transactions holding it, in one pass over the occurrence columns.
    held: dict[str, dict[int, tuple[float, float]]] = {item: {} for item in items}
    table = db.transactions
    for item, quantity, p, tid, tu in zip(
        table.items,
        table.quantities,
        table.probabilities,
        table.per_occurrence(range(1, len(table) + 1)),
        table.per_occurrence(table.tu),
    ):
        held[item][tid] = (quantity * db.unit_utilities[item] / tu, p)
    tid_sets = {item: frozenset(column) for item, column in held.items()}

    measures = {}
    for length in lengths:
        for itemset in combinations(items, length):
            tids = tid_sets[itemset[0]]
            for item in itemset[1:]:
                tids = tids & tid_sets[item]
                if not tids:
                    break
            if not tids:
                continue
            first, *rest = [held[item] for item in itemset]
            shares, products = [], []
            for tid in sorted(tids):
                share, product = first[tid]
                for column in rest:
                    value, p = column[tid]
                    share += value
                    product *= p
                shares.append(share)
                products.append(product)
            measures[frozenset(itemset)] = (len(tids), sum(products, 0.0), sum(shares) / len(tids))
    return measures


def oracle_filter(
    db: UncertainDatabase,
    thresholds: Thresholds,
    measures: Mapping[frozenset[str], tuple[int, float, float]],
) -> list[PatternRecord]:
    """Records of the itemsets in ``measures`` (:func:`oracle_measures` of
    ``db``) that pass all thresholds, sorted by their id-sorted item tuple,
    with items rendered in the mining total order."""
    min_sup, min_pro, min_uo, _ = thresholds.cutoffs(len(db))
    order = total_order(db)
    found = [
        PatternRecord(order.sort_pattern(itemset), support, pro, uo)
        for itemset, (support, pro, uo) in measures.items()
        if support >= min_sup and pro >= min_pro and uo >= min_uo
    ]
    found.sort(key=PatternRecord.sort_key)
    return found


def oracle_mine(
    db: UncertainDatabase,
    thresholds: Thresholds,
    max_len: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[PatternRecord]:
    """Every itemset of up to ``max_len`` items passing all thresholds:
    :func:`oracle_filter` over :func:`oracle_measures`, which see.  Both
    read raw transactions, never ``lists``, to stay independent of the miner."""
    return oracle_filter(db, thresholds, oracle_measures(db, max_len, budget))
