"""Direct-from-database pattern measures and the exhaustive mining oracle.

Everything here recomputes from raw transactions, without the vertical
list machinery the miner uses, so this module serves as the independent
ground truth the search is tested against.

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
from typing import Iterable, Mapping

from .errors import EnumerationBudgetError, MissingUtilityError, UndefinedMeasureError
from .model import TOL, PatternRecord, Thresholds, UncertainDatabase

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

    def __len__(self) -> int:
        return len(self.items)


def total_order(
    db: UncertainDatabase,
    promising: Iterable[str] | None = None,
    counts: Mapping[str, int] | None = None,
) -> TotalOrder:
    """Rank items by ascending support count, ties broken by ascending id.

    Only the ``promising`` items are ranked (default: the whole item
    universe).  Dropping items never reorders the rest, so orders built
    over different promising sets agree on their intersection.
    ``counts``, when given, must hold the support count of every ranked
    item (the miner passes the counts of its first pass); otherwise they
    are counted here from the transactions.
    """
    items = set(db.item_universe if promising is None else promising)
    unknown = items - set(db.item_universe)
    if unknown:
        raise ValueError(f"items not in database universe: {sorted(unknown)}")
    if counts is None:
        counts = dict.fromkeys(items, 0)
        for t in db.transactions:
            for item in t.item_set:
                if item in counts:
                    counts[item] += 1
    ordered = tuple(sorted(items, key=lambda i: (counts[i], i)))
    return TotalOrder(rank={item: r for r, item in enumerate(ordered)}, items=ordered)


def _as_pattern(pattern: Iterable[str]) -> frozenset[str]:
    p = frozenset(pattern)
    if not p:
        raise ValueError("pattern must be non-empty")
    return p


def support_count(pattern: Iterable[str], db: UncertainDatabase) -> int:
    """Number of transactions containing every item of the pattern."""
    p = _as_pattern(pattern)
    return sum(1 for t in db.transactions if p <= t.item_set)


def utility(pattern: Iterable[str], db: UncertainDatabase) -> float:
    """Total utility of the pattern over its supporting transactions."""
    p = _as_pattern(pattern)
    for item in p:
        if item not in db.unit_utilities:
            raise MissingUtilityError(item)
    total = 0.0
    for t in db.transactions:
        if p <= t.item_set:
            total += sum(
                t.by_item[item].quantity * db.unit_utilities[item] for item in p
            )
    return total


def utility_occupancy(pattern: Iterable[str], db: UncertainDatabase) -> float:
    """Average share of transaction utility the pattern claims where it occurs."""
    p = _as_pattern(pattern)
    for item in p:
        if item not in db.unit_utilities:
            raise MissingUtilityError(item)
    share_sum = 0.0
    supporting = 0
    for t in db.transactions:
        if p <= t.item_set:
            u = sum(t.by_item[item].quantity * db.unit_utilities[item] for item in p)
            share_sum += u / t.tu
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
    for t in db.transactions:
        if p <= t.item_set:
            product = 1.0
            for item in p:
                product *= t.by_item[item].probability
            total += product
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
    t = db.transaction(tid)
    if not p <= t.item_set:
        raise ValueError(f"pattern {sorted(p)} is not contained in transaction {tid}")
    last = max(order.rank[item] for item in p)
    tail = 0.0
    for occ in t.occurrences:
        rank = order.rank.get(occ.item)
        if rank is not None and rank > last:
            tail += occ.quantity * db.unit_utilities[occ.item] / t.tu
    return tail


def oracle_mine(
    db: UncertainDatabase,
    thresholds: Thresholds,
    max_len: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[PatternRecord]:
    """Exhaustively enumerate itemsets and keep those passing all thresholds.

    Every non-empty itemset over the item universe, up to ``max_len``
    items, is examined; there is no search-space pruning, which is the
    point.  Records come back sorted by their id-sorted item tuple, with
    items rendered in the mining total order.  Raises
    :class:`EnumerationBudgetError` once more than ``budget`` itemsets
    have been examined.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    n = len(db)
    min_sup = thresholds.min_support(n)
    min_pro = thresholds.min_probability(n)
    order = total_order(db)

    # Per-item tid sets make the containment test a set intersection; the
    # measures themselves are still recomputed from raw quantities and
    # probabilities, transaction by transaction.
    tid_sets: dict[str, frozenset[int]] = {
        item: frozenset(t.tid for t in db.transactions if item in t.item_set)
        for item in db.item_universe
    }

    examined = 0
    found: list[PatternRecord] = []
    universe = sorted(db.item_universe)
    for length in range(1, min(max_len, len(universe)) + 1):
        for itemset in combinations(universe, length):
            examined += 1
            if examined > budget:
                raise EnumerationBudgetError(budget)
            tids = tid_sets[itemset[0]]
            for item in itemset[1:]:
                tids = tids & tid_sets[item]
                if not tids:
                    break
            if len(tids) < min_sup:
                continue
            pro = 0.0
            share_sum = 0.0
            for tid in tids:
                t = db.transactions[tid - 1]
                product = 1.0
                u = 0.0
                for item in itemset:
                    occ = t.by_item[item]
                    product *= occ.probability
                    u += occ.quantity * db.unit_utilities[item]
                pro += product
                share_sum += u / t.tu
            uo = share_sum / len(tids)
            if pro >= min_pro - TOL and uo >= thresholds.beta - TOL:
                found.append(
                    PatternRecord(
                        items=order.sort_pattern(itemset),
                        support=len(tids),
                        probability=pro,
                        utility_occupancy=uo,
                    )
                )
    found.sort(key=PatternRecord.sort_key)
    return found
