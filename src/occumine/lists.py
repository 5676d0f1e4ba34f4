"""Vertical per-pattern lists and the join that extends them.

Each pattern owns a columnar list: parallel columns ``tids``, ``pro`` and
``uo`` hold, per supporting transaction, the tid, the pattern's existence
probability and its utility share there; ``bits`` is the set of tids as
an int bitset.  Every longer pattern's list is derived by joining its
prefix's list with the single-item list of the item that extends it, so
k-itemsets never touch the database again.

One call, :func:`build_single_item_lists`, builds the list and summary
of every ranked item that occurs, so no single-item list is empty: one
C-level probe maps each occurrence to its item's column appenders (or to
``None`` for an item not asked for), one loop over the kept occurrences
alone appends them, reading each transaction's tu by tid, and, under
probability pruning, an item below the probability minimum is dropped
before any list exists.  Each list also holds a ``ruo`` column, the
remaining utility share of its item per transaction, summed rank by rank
in a list indexed by tid, for every single-item list at once, the first
time any list's ruo is read.  Every summary, of a single item or of a
join, comes from one rule, :func:`_summary`, as a
:class:`~occumine.model.PatternSummary`, the measure type the oracle
returns too.

A pattern's remaining utility share in a transaction is its last item's,
so a joined list copies no ruo column: it keeps ``rows``, a tuple of its
rows in the single-item list of its last item, and reads ruo through
them.  Only the occupancy bound reads ruo, so a run that never bounds
never sums or gathers it.  A list that is never joined or bounded again
can be built summary-only: the join sums its rows and keeps no column.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import compress
from operator import add, itemgetter, mul
from typing import Iterable

from .model import PatternSummary, UncertainDatabase


@dataclass(slots=True)
class PatternList:
    """A pattern's vertical list: parallel columns sorted by ascending tid.

    ``item_ruo`` is the ruo column of the single-item list of
    ``items[-1]``: a single-item list's own, with ``rows`` of ``None``.
    A joined list's ``rows`` is a tuple holding, per tid, its row in that
    single-item list, and ``ruo`` reads through them.  A summary-only
    list, from ``construct(..., summary_only=True)``, holds ``items``,
    ``tids`` and ``bits`` alone: its ``pro``, ``uo``, ``item_ruo`` and
    ``rows`` are ``None``, so ``ruo`` is ``None`` too, and it cannot be
    joined.
    ``fill_ruo``, when set, fills every ``item_ruo`` of the single-item
    lists built with this one, in place, the first time it is called;
    ``ruo`` calls it before reading.
    The columns are shared between lists and must not be mutated
    otherwise.
    """

    items: tuple[str, ...]
    tids: list[int]
    pro: list[float] | None
    uo: list[float] | None
    bits: int
    item_ruo: list[float] | None
    rows: tuple[int, ...] | None = None
    fill_ruo: Callable[[], None] | None = field(default=None, repr=False, compare=False)
    _row_of: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def support(self) -> int:
        return len(self.tids)

    @property
    def ruo(self) -> list[float] | None:
        """The remaining utility share per tid, gathered on each read for a
        joined list."""
        if self.fill_ruo is not None:
            self.fill_ruo()
        if self.rows is None:
            return self.item_ruo
        return list(map(self.item_ruo.__getitem__, self.rows))

    @property
    def row_of(self) -> dict[int, int]:
        """tid -> row index, built the first time it is asked for."""
        if self._row_of is None:
            self._row_of = dict(zip(self.tids, range(len(self.tids))))
        return self._row_of


def _bitset(tids: list[int]) -> int:
    """The int whose set bits are exactly ``tids``, which is not empty."""
    buf = bytearray((tids[-1] >> 3) + 1)
    for tid in tids:
        buf[tid >> 3] |= 1 << (tid & 7)
    return int.from_bytes(buf, "little")


def _summary(n: int, pro: Iterable[float], uo: Iterable[float]) -> PatternSummary:
    """The summary of a list of ``n`` rows with these ``pro`` and ``uo``
    values: ``pro`` summed from 0.0 and ``uo``'s sum over ``n``, in row
    order, the one rule for every list (all zero for an empty list)."""
    return PatternSummary(n, sum(pro, 0.0), sum(uo) / n if n else 0.0)


def build_single_item_lists(
    db: UncertainDatabase, items: Sequence[str], min_probability: float | None = None
) -> dict[str, tuple[PatternList, PatternSummary]]:
    """The vertical list and summary of each of ``items``, which are ranked
    in the mining order and occur in ``db``, keyed in that order.

    One probe of the item column maps each occurrence to the appenders of
    its item's columns, or to ``None``; one loop then appends each kept
    occurrence: its tid, its probability and its uo, quantity * unit
    utility / tu, reading its transaction's tu by tid.  Occurrences of
    other items are skipped; they still count in tu, which covers the
    whole transaction.  With ``min_probability``, an item whose summed
    probability is below it is dropped there, before any list or ruo
    exists: it gets no list and counts in no other item's ruo.

    An item's ruo sums the uo of the kept items after it in the same
    transaction.  Only the occupancy bound reads ruo, so every list's ruo
    column is summed the first time any list's ruo is read (see
    ``PatternList.fill_ruo``), never in a run that does not read it.
    Items are walked from the last rank to the first, and ``tail[tid]``,
    a list indexed by tid, sums the uo of those already walked: each tail
    takes the same additions, in the same order, as a left-to-right sum
    over a transaction's kept occurrences in descending rank, so ruo is
    bit-identical to that sum.
    """
    utilities = db.unit_utilities
    table = db.transactions
    columns = {item: ([], [], [], []) for item in items}
    sinks = {
        item: (tids.append, pro.append, uo.append, utilities[item])
        for item, (tids, pro, uo, _) in columns.items()
    }
    owner = list(map(sinks.get, table.items))
    tu = table.tu
    for (add_tid, add_p, add_uo, unit), quantity, p, tid in zip(
        compress(owner, owner),
        compress(table.quantities, owner),
        compress(table.probabilities, owner),
        compress(table.per_occurrence(range(1, len(table) + 1)), owner),
    ):
        add_tid(tid)
        add_p(p)
        add_uo(quantity * unit / tu[tid - 1])  # tid k is at index k - 1
    kept: list[tuple[list[int], list[float], list[float]]] = []  # (tids, uo, ruo)
    summed = False

    def fill_ruo() -> None:
        nonlocal summed
        if summed:
            return
        summed = True
        tail = [0.0] * (max((tids[-1] for tids, _, _ in kept), default=0) + 1)
        for tids, uo, ruo in reversed(kept):
            ruo.extend(map(tail.__getitem__, tids))
            deque(map(tail.__setitem__, tids, map(add, ruo, uo)), maxlen=0)

    singles: dict[str, tuple[PatternList, PatternSummary]] = {}
    for item, (tids, pro, uo, ruo) in columns.items():
        summary = _summary(len(tids), pro, uo)
        if min_probability is None or summary.probability >= min_probability:
            kept.append((tids, uo, ruo))
            plist = PatternList((item,), tids, pro, uo, _bitset(tids), ruo, fill_ruo=fill_ruo)
            singles[item] = plist, summary
    return singles


def _getter(keys: Sequence[int]) -> Callable[[Sequence | Mapping], tuple]:
    """A function from a container to the tuple of its values at ``keys``.

    ``itemgetter`` makes the lookups in one C-level call, but returns a
    bare value for one key and fails with none, so fewer than two keys
    are looked up through ``map``.
    """
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda values: tuple(map(values.__getitem__, keys))


def construct(
    xa: PatternList, b: PatternList, abort_below: int = 0, *, summary_only: bool = False
) -> tuple[PatternList, PatternSummary] | None:
    """Extend ``xa`` by the item of the single-item list ``b``.

    ``b``'s item comes after every item of ``xa`` in the mining order.
    Because tids(Xa) ∩ tids(Xb) = tids(Xa) ∩ tids(b) for any sibling Xb
    of Xa ending in b, the joined list needs no prefix list.  Per shared
    tid the joined row is::

        pro = pro_a * p_b
        uo  = uo_a + uo_b
        ruo = ruo_b

    with the b values read from ``b``'s row for that tid; the rows, and
    then their b values, are looked up in one call each (see
    :func:`_getter`).  ruo is not copied but read through ``rows``, those
    rows of ``b``.  The joint support is the popcount of
    ``xa.bits & b.bits``; one below ``abort_below`` returns ``None``
    before any row is built.  Otherwise the full (possibly empty) result
    is returned, with its summary.

    With ``summary_only`` the pro and uo rows are summed as they are made,
    in the same order, so the summary is bit-identical, and no column is
    kept: the list holds only ``items``, ``tids`` and ``bits`` (see
    :class:`PatternList`), for a pattern that is never joined or bounded.
    """
    bits = xa.bits & b.bits
    n = bits.bit_count()
    if n < abort_below:
        return None
    row_of = b.row_of
    hit = list(map(row_of.__contains__, xa.tids))
    tids = list(compress(xa.tids, hit))
    rows = _getter(tids)(row_of)
    take = _getter(rows)
    pro = map(mul, compress(xa.pro, hit), take(b.pro))
    uo = map(add, compress(xa.uo, hit), take(b.uo))
    if summary_only:
        plist = PatternList(xa.items + b.items, tids, None, None, bits, None)
    else:
        pro, uo = list(pro), list(uo)
        plist = PatternList(xa.items + b.items, tids, pro, uo, bits, b.item_ruo, rows, b.fill_ruo)
    return plist, _summary(n, pro, uo)
