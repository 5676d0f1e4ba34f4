"""Direct-from-database pattern measures and the exhaustive mining oracle.

Everything here recomputes from raw transactions, without the vertical
list machinery the miner uses, so this module serves as the independent
ground truth the search is tested against.  It never imports ``lists``,
or a fault there would show in miner and oracle alike, unseen.  The
oracle, :func:`oracle_mine`, is an enumeration, :func:`oracle_measures`,
that measures every itemset with no threshold, then a filter,
:func:`oracle_filter`, that holds its only threshold comparisons.  The
enumeration gives each itemset's measures in the miner's type,
:class:`~occumine.model.PatternSummary`, and the filter builds and sorts
its records with ``mine``'s own builder,
:func:`~occumine.model.pattern_records`, so both return one shape.  The
enumeration and the per-pattern functions evaluate an itemset by one
function, in the miner's float order under the given database's total
order, so they and ``mine`` return equal floats on one database.

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
from math import comb, nan
from typing import Callable, Iterable, Mapping

from .errors import EnumerationBudgetError, MissingUtilityError, UndefinedMeasureError
from .model import PatternRecord, PatternSummary, Thresholds, UncertainDatabase, pattern_records

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


def _order_key(db: UncertainDatabase) -> Callable[[str], tuple[int, str]]:
    """The mining order's sort key over ``db``'s items: the support count,
    then the id.  An item that does not occur in ``db`` counts 0."""
    counts = db.item_supports
    return lambda item: (counts.get(item, 0), item)


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
    ordered = tuple(sorted(items, key=_order_key(db)))
    return TotalOrder(rank={item: r for r, item in enumerate(ordered)}, items=ordered)


def _as_pattern(pattern: Iterable[str]) -> frozenset[str]:
    p = frozenset(pattern)
    if not p:
        raise ValueError("pattern must be non-empty")
    return p


def _columns(db: UncertainDatabase, units: Mapping[str, float]) -> dict[str, dict[int, tuple]]:
    """Per item of ``units``, ``{tid: (share, probability, utility)}`` over
    the transactions holding it, ascending, in one pass over the occurrence
    columns.  The utility is quantity * ``units[item]``; the share, it / tu."""
    columns = {item: {} for item in units}
    table = db.transactions
    tids = table.per_occurrence(range(1, len(table) + 1))
    tus = table.per_occurrence(table.tu)
    for item, quantity, p, tid, tu in zip(
        table.items, table.quantities, table.probabilities, tids, tus
    ):
        if item in columns:
            u = quantity * units[item]
            columns[item][tid] = (u / tu, p, u)
    return columns


def _common(columns: list[dict[int, tuple]]) -> list[int]:
    """The tids that every column holds, ascending as each column is."""
    tids = list(columns[0])
    for column in columns[1:]:
        tids = list(filter(column.__contains__, tids))
    return tids


def _evaluate(columns: list[dict[int, tuple]]) -> PatternSummary:
    """The summary of the itemset whose columns come in the mining total
    order, evaluated as the miner's lists do: per common tid, ascending, the
    shares added and the probabilities multiplied left to right; then
    ``sum(products, 0.0)`` and ``sum(shares) / support``.  ``(0, 0.0, nan)``
    when no tid is common."""
    tids = _common(columns)
    if not tids:
        return PatternSummary(0, 0.0, nan)
    first, *rest = columns
    shares, products = [], []
    for tid in tids:
        share, product, _ = first[tid]
        for column in rest:
            value, p, _ = column[tid]
            share += value
            product *= p
        shares.append(share)
        products.append(product)
    return PatternSummary(len(tids), sum(products, 0.0), sum(shares) / len(tids))


def _units(items: Iterable[str], db: UncertainDatabase, priced: bool = True) -> dict:
    """``{item: unit utility}`` over ``items``, in order.  Priced, an item with
    none raises :class:`MissingUtilityError` naming the least such; else NaN."""
    units = {item: db.unit_utilities.get(item, nan) for item in items}
    missing = sorted(units.keys() - db.unit_utilities.keys()) if priced else []
    if missing:
        raise MissingUtilityError(missing[0])
    return units


def _pattern_columns(p: frozenset[str], db: UncertainDatabase, priced: bool = False) -> list:
    """The columns of ``p``'s items, ranked as ``db``'s total order ranks them."""
    ranked = sorted(p, key=_order_key(db))
    return list(_columns(db, _units(ranked, db, priced)).values())


def support_count(pattern: Iterable[str], db: UncertainDatabase) -> int:
    """Number of transactions containing every item of the pattern."""
    return _evaluate(_pattern_columns(_as_pattern(pattern), db)).support


def utility(pattern: Iterable[str], db: UncertainDatabase) -> float:
    """Total utility of the pattern over its supporting transactions."""
    columns = _pattern_columns(_as_pattern(pattern), db, priced=True)
    return sum((sum(column[tid][2] for column in columns) for tid in _common(columns)), 0.0)


def utility_occupancy(pattern: Iterable[str], db: UncertainDatabase) -> float:
    """Average share of transaction utility the pattern claims where it occurs."""
    p = _as_pattern(pattern)
    support, _, occupancy = _evaluate(_pattern_columns(p, db, priced=True))
    if not support:
        raise UndefinedMeasureError(
            f"utility occupancy undefined: {sorted(p)} has no supporting transaction"
        )
    return occupancy


def probability(pattern: Iterable[str], db: UncertainDatabase) -> float:
    """Summed existential probability of the pattern over supporting transactions."""
    return _evaluate(_pattern_columns(_as_pattern(pattern), db)).probability


def remaining_utility_occupancy(
    pattern: Iterable[str],
    tid: int,
    db: UncertainDatabase,
    order: TotalOrder,
) -> float:
    """Utility share, in transaction ``tid``, of ranked items after the pattern.

    Only items that carry a rank contribute; items outside the order
    (filtered as unpromising) count toward the transaction utility in the
    denominator but never toward the remaining share.  The shares are
    added in descending rank, from 0.0, as the single-item lists sum ruo.
    """
    p = _as_pattern(pattern)
    rank = order.rank
    unranked = p.difference(rank)
    if unranked:
        raise ValueError(f"items not in the total order: {sorted(unranked)}")
    t = db.transaction(tid)
    if not p.issubset(t.items):
        raise ValueError(f"pattern {sorted(p)} is not contained in transaction {tid}")
    last = max(rank[item] for item in p)
    later = {item: q for item, q in zip(t.items, t.quantities) if rank.get(item, -1) > last}
    units = _units(later, db)
    tail = 0.0
    for item in sorted(later, key=rank.__getitem__, reverse=True):
        tail += later[item] * units[item] / t.tu
    return tail


def oracle_measures(
    db: UncertainDatabase,
    max_len: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> dict[frozenset[str], PatternSummary]:
    """The :class:`~occumine.model.PatternSummary` of every itemset of
    up to ``max_len`` items that some transaction holds, found with no
    pruning and no threshold, which is the point.  Each comes from the one
    per-itemset evaluation that the per-pattern functions call too, in the
    miner's float order.  Raises :class:`EnumerationBudgetError`, before any
    work, if that means examining more than ``budget`` itemsets."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    items = total_order(db).items
    lengths = range(1, min(max_len, len(items)) + 1)
    if sum(comb(len(items), length) for length in lengths) > budget:
        raise EnumerationBudgetError(budget)
    columns = _columns(db, _units(items, db))
    measures = {}
    for length in lengths:
        for itemset in combinations(items, length):
            summary = _evaluate([columns[item] for item in itemset])
            if summary.support:
                measures[frozenset(itemset)] = summary
    return measures


def oracle_filter(
    db: UncertainDatabase,
    thresholds: Thresholds,
    measures: Mapping[frozenset[str], PatternSummary],
) -> tuple[PatternRecord, ...]:
    """Records of the itemsets in ``measures`` (:func:`oracle_measures` of
    ``db``) that pass all thresholds, with items in the mining total order,
    built and sorted as ``mine`` builds and sorts its own
    (:func:`~occumine.model.pattern_records`)."""
    min_sup, min_pro, min_uo, _ = thresholds.cutoffs(len(db))
    order = total_order(db)
    return pattern_records(
        (order.sort_pattern(itemset), m)
        for itemset, m in measures.items()
        if m.support >= min_sup and m.probability >= min_pro and m.occupancy >= min_uo
    )


def oracle_mine(
    db: UncertainDatabase,
    thresholds: Thresholds,
    max_len: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[PatternRecord, ...]:
    """Every itemset of up to ``max_len`` items passing all thresholds:
    :func:`oracle_filter` over :func:`oracle_measures`, which see.  Both
    read raw transactions, never ``lists``, to stay independent of the miner."""
    return oracle_filter(db, thresholds, oracle_measures(db, max_len, budget))
