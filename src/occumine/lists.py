"""Vertical per-pattern lists and the join that extends them.

Each pattern owns a columnar list: parallel columns ``tids``, ``pro`` and
``uo`` hold, per supporting transaction, the tid, the pattern's existence
probability and its utility share there; ``bits`` is the set of tids as
an int bitset.  Lists for single items are filled from columns read in one
database pass, and each also holds a ``ruo`` column: the remaining utility
share of its item per transaction.  Every longer pattern's list is derived
by joining its prefix's list with the single-item list of the item that
extends it, so k-itemsets never touch the database again.

A pattern's remaining utility share in a transaction is its last item's,
so a joined list copies no ruo column: it keeps ``rows``, its rows in the
single-item list of its last item, and reads ruo through them.  Only the
occupancy bound reads ruo, so a run that never bounds never gathers it,
and a summary's mean ``remaining`` is summed only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import add, mul
from typing import Iterable

from .measures import TotalOrder
from .model import UncertainDatabase


@dataclass(slots=True)
class PatternList:
    """A pattern's vertical list: parallel columns sorted by ascending tid.

    ``item_ruo`` is the ruo column of the single-item list of
    ``items[-1]``: a single-item list's own, with ``rows`` of ``None``.
    A joined list's ``rows`` holds, per tid, its row in that single-item
    list, and ``ruo`` reads through them.  The columns are shared between
    lists and must not be mutated.
    """

    items: tuple[str, ...]
    tids: list[int]
    pro: list[float]
    uo: list[float]
    bits: int
    item_ruo: list[float]
    rows: list[int] | None = None
    _row_of: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def support(self) -> int:
        return len(self.tids)

    @property
    def ruo(self) -> list[float]:
        """The remaining utility share per tid, gathered on each read for a
        joined list."""
        if self.rows is None:
            return self.item_ruo
        return list(map(self.item_ruo.__getitem__, self.rows))

    @property
    def row_of(self) -> dict[int, int]:
        """tid -> row index, built the first time it is asked for."""
        if self._row_of is None:
            self._row_of = dict(zip(self.tids, range(len(self.tids))))
        return self._row_of


@dataclass(slots=True)
class PatternSummary:
    """Aggregates over one pattern's list: support, total probability,
    mean utility occupancy, and, summed when read, mean remaining utility
    occupancy (all zero for an empty list)."""

    support: int
    probability: float
    occupancy: float
    plist: PatternList = field(repr=False)

    @property
    def remaining(self) -> float:
        return sum(self.plist.ruo) / self.support if self.support else 0.0


def _bitset(tids: list[int]) -> int:
    """The int whose set bits are exactly ``tids``."""
    if not tids:
        return 0
    buf = bytearray((tids[-1] >> 3) + 1)
    for tid in tids:
        buf[tid >> 3] |= 1 << (tid & 7)
    return int.from_bytes(buf, "little")


#: Per item, the parallel columns ``(tids, pro, uo)`` of its occurrences.
ItemColumns = dict[str, tuple[list[int], list[float], list[float]]]


def item_columns(db: UncertainDatabase, items: Iterable[str]) -> ItemColumns:
    """Read, in one pass over ``db``'s occurrence columns, every occurrence
    of ``items``.

    Each item gets ascending tids, its probability there, and its uo,
    quantity * unit utility / tu, there.  Occurrences of other items are
    skipped; they still count in tu, which covers the whole transaction.
    """
    utilities = db.unit_utilities
    table = db.transactions
    columns: ItemColumns = {item: ([], [], []) for item in items}
    kept = list(map(columns.__contains__, table.items))
    for item, quantity, p, tid, tu in zip(
        compress(table.items, kept),
        compress(table.quantities, kept),
        compress(table.probabilities, kept),
        compress(table.per_occurrence(range(1, len(table) + 1)), kept),
        compress(table.per_occurrence(table.tu), kept),
    ):
        tids, pro, uo = columns[item]
        tids.append(tid)
        pro.append(p)
        uo.append(quantity * utilities[item] / tu)
    return columns


def build_single_item_lists(
    columns: ItemColumns, order: TotalOrder
) -> dict[str, tuple[PatternList, PatternSummary]]:
    """The vertical list of every ranked item, from :func:`item_columns`.

    An item's ruo sums the uo of the ranked items after it in the same
    transaction; items outside ``order`` never count.  Items are walked
    from the last rank to the first, and ``tail[tid]`` sums the uo of
    those already walked: each tail takes the same additions, in the same
    order, as a left-to-right sum over a transaction's ranked occurrences
    in descending rank, so ruo is bit-identical to that sum.
    """
    tail: dict[int, float] = {}
    result: dict[str, tuple[PatternList, PatternSummary]] = {}
    for item in reversed(order.items):
        tids, pro, uo = columns[item]
        ruo = list(map(tail.get, tids, repeat(0.0)))
        tail.update(zip(tids, map(add, ruo, uo)))
        plist = PatternList((item,), tids, pro, uo, _bitset(tids), ruo)
        n = len(tids)
        result[item] = (plist, PatternSummary(n, sum(pro, 0.0), sum(uo) / n if n else 0.0, plist))
    return dict(reversed(result.items()))


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

    with the b values read from ``b``'s row for that tid; ruo is not
    copied but read through ``rows``, those rows of ``b``.  The joint
    support is the popcount of ``xa.bits & b.bits``; with ``join_abort``
    enabled, a joint support below ``min_sup_count`` returns ``None``
    before any row is built.  Otherwise the full (possibly empty) result
    is returned, with its summary.
    """
    bits = xa.bits & b.bits
    if join_abort and bits.bit_count() < min_sup_count:
        return None
    row_of = b.row_of
    hit = list(map(row_of.__contains__, xa.tids))
    tids = list(compress(xa.tids, hit))
    rows = list(map(row_of.__getitem__, tids))
    pro = list(map(mul, compress(xa.pro, hit), map(b.pro.__getitem__, rows)))
    uo = list(map(add, compress(xa.uo, hit), map(b.uo.__getitem__, rows)))
    plist = PatternList(xa.items + b.items, tids, pro, uo, bits, b.item_ruo, rows)
    n = len(tids)
    return plist, PatternSummary(n, sum(pro, 0.0), sum(uo) / n if n else 0.0, plist)
