"""Vertical per-pattern lists and the join that extends them.

Each pattern owns a columnar list: parallel columns ``tids``, ``pro``,
``uo`` and ``ruo`` hold, per supporting transaction, the tid, the
pattern's existence probability, its utility share and the remaining
utility share there; ``bits`` is the set of tids as an int bitset.  Lists
for single items are built in one database pass.  Every longer pattern's
list is derived by joining its prefix's list with the single-item list of
the item that extends it, so k-itemsets never touch the database again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import add, mul

from .measures import TotalOrder
from .model import UncertainDatabase


@dataclass(frozen=True)
class PatternList:
    """A pattern's vertical list: parallel columns sorted by ascending tid.

    The columns are shared between lists and must not be mutated.
    """

    items: tuple[str, ...]
    tids: list[int]
    pro: list[float]
    uo: list[float]
    ruo: list[float]
    bits: int

    @property
    def support(self) -> int:
        return len(self.tids)

    @cached_property
    def row_of(self) -> dict[int, int]:
        """tid -> row index, built the first time it is asked for."""
        return dict(zip(self.tids, range(len(self.tids))))


@dataclass(frozen=True)
class PatternSummary:
    """Aggregates over one pattern's list: support, total probability,
    mean utility occupancy, mean remaining utility occupancy."""

    support: int
    probability: float
    occupancy: float
    remaining: float


def summarize(plist: PatternList) -> PatternSummary:
    """Fold a list into its summary (empty lists yield all-zero fields)."""
    n = len(plist.tids)
    if n == 0:
        return PatternSummary(0, 0.0, 0.0, 0.0)
    return PatternSummary(n, sum(plist.pro), sum(plist.uo) / n, sum(plist.ruo) / n)


def _bitset(tids: list[int]) -> int:
    """The int whose set bits are exactly ``tids``."""
    if not tids:
        return 0
    buf = bytearray((tids[-1] >> 3) + 1)
    for tid in tids:
        buf[tid >> 3] |= 1 << (tid & 7)
    return int.from_bytes(buf, "little")


def build_single_item_lists(
    db: UncertainDatabase, order: TotalOrder
) -> dict[str, tuple[PatternList, PatternSummary]]:
    """Build the vertical list of every ranked item in one database pass.

    An item's per-transaction uo is quantity * unit utility / tu; its ruo
    sums the uo of ranked items after it in the same transaction.  Items
    outside ``order`` still contribute to tu (it was computed over the
    whole transaction) but never to any ruo.
    """
    rank = order.rank
    utilities = db.unit_utilities
    columns: dict[str, tuple[list, list, list, list]] = {
        item: ([], [], [], []) for item in order.items
    }

    for t in db.transactions:
        tid, tu = t.tid, t.tu
        # Ranks are distinct, so the tuples sort by rank alone.
        present = sorted(
            [
                (rank[item], item, quantity * utilities[item] / tu, p)
                for item, quantity, p in zip(t.items, t.quantities, t.probabilities)
                if item in rank
            ],
            reverse=True,
        )
        tail = 0.0
        for _, item, share, p in present:
            tids, pro, uo, ruo = columns[item]
            tids.append(tid)
            pro.append(p)
            uo.append(share)
            ruo.append(tail)
            tail += share

    result: dict[str, tuple[PatternList, PatternSummary]] = {}
    for item in order.items:
        tids, pro, uo, ruo = columns[item]
        plist = PatternList((item,), tids, pro, uo, ruo, _bitset(tids))
        result[item] = (plist, summarize(plist))
    return result


def construct(
    xa: PatternList,
    b: PatternList,
    min_sup_count: int,
    join_abort: bool = False,
) -> tuple[PatternList, PatternSummary] | None:
    """Extend ``xa`` by the item of the single-item list ``b``.

    ``b``'s item comes after every item of ``xa`` in the mining order.
    Because tids(Xa) ∩ tids(Xb) = tids(Xa) ∩ tids(b) for any sibling Xb
    of Xa ending in b, the joined list needs no prefix list.  Per shared
    tid the joined row is::

        pro = pro_a * p_b
        uo  = uo_a + uo_b
        ruo = ruo_b

    with the b values read from ``b``'s row for that tid.  The joint
    support is the popcount of ``xa.bits & b.bits``; with ``join_abort``
    enabled, a joint support below ``min_sup_count`` returns ``None``
    before any row is built.  Otherwise the full (possibly empty) result
    is returned.
    """
    bits = xa.bits & b.bits
    if join_abort and bits.bit_count() < min_sup_count:
        return None
    # b's row for each of xa's tids; None where b is absent.
    rows = list(map(b.row_of.get, xa.tids))
    hit = [row is not None for row in rows]
    rows = list(compress(rows, hit))
    plist = PatternList(
        xa.items + b.items,
        list(compress(xa.tids, hit)),
        list(map(mul, compress(xa.pro, hit), map(b.pro.__getitem__, rows))),
        list(map(add, compress(xa.uo, hit), map(b.uo.__getitem__, rows))),
        list(map(b.ruo.__getitem__, rows)),
        bits,
    )
    return plist, summarize(plist)
