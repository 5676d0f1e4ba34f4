"""Core data model: uncertain quantitative databases, thresholds, results.

A database is a sequence of transactions over string item ids.  Each item
occurrence carries a purchase quantity (>= 1) and an existential
probability in (0, 1]; a separate table maps every item to a non-negative
unit utility.  All model types are frozen dataclasses: instances are
immutable after construction and safe to share across threads.  A
database stores its utility table as a read-only copy of the mapping it
was given, so nothing can change it after construction, and counts its
item supports once, at construction; its item universe is their keys.

The miner checks a database at most once.  It records the verdict of
:func:`validate_database` the first time the miner asks for it, and
``parse_database`` records the empty verdict up front: it raises on
the first fault the check's own ``*_faults`` generators find.  Direct
construction and ``dataclasses.replace`` start with no verdict recorded.

A database keeps its transactions in one :class:`TransactionTable`:
database-wide columns that are exact tuples of ints, floats or strings.
Per transaction it holds the end offset of its occurrences and its total
utility; per occurrence, in transaction order, the item, the quantity
and the probability.  No tid is stored: a transaction's tid is its
1-based position.  CPython's cyclic garbage collector stops tracking
such tuples after the first collection they survive, so a loaded
database leaves a constant number of GC-tracked objects however many
transactions it holds, and collections during and after loading have
nothing of it to walk.  The passes over the whole database (the miner's
set-up, the oracle's enumeration, validation and writing) read the
columns.  Indexing or iterating the table builds a fresh
:class:`Transaction` per access, and nothing caches it; for readers
outside the package, ``Transaction.occurrences`` builds
:class:`ItemOccurrence` records on demand in turn.

A pattern's measures have one type, :class:`PatternSummary`, whether the
miner's lists or the oracle's enumeration found them, and one function,
:func:`pattern_records`, turns ``(items, summary)`` pairs into the sorted
tuple of :class:`PatternRecord` that both return.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from functools import reduce
from itertools import chain, repeat
from operator import add, le, mul, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

#: The one floating-point tolerance.  A measure clears a threshold ``t``
#: when ``x >= t - TOL`` (:meth:`Thresholds.cutoffs`), because a float sum
#: can land a few ulps off its exact value; the occupancy bound, another
#: float sum, prunes only a further ``TOL`` below.  :meth:`Thresholds.min_support`
#: gives the support fraction the same slack.  A stored transaction utility
#: must agree with its left-to-right total within ``TOL``, relative (:func:`total_faults`).
TOL = 1e-9


def _spans(ends: Sequence[int]) -> Iterator[slice]:
    """Each transaction's slice of the occurrence columns, from their end offsets."""
    return map(slice, chain((0,), ends), ends)


@dataclass(frozen=True)
class ItemOccurrence:
    """One item inside a transaction."""

    item: str
    quantity: int
    probability: float


@dataclass(frozen=True)
class Transaction:
    """A transaction and its precomputed total utility ``tu``; its tid is
    its 1-based position in the table that holds it.

    The k-th occurrence is ``items[k]`` bought ``quantities[k]`` times
    with probability ``probabilities[k]``; the three columns have equal
    length.
    """

    items: tuple[str, ...]
    quantities: tuple[int, ...]
    probabilities: tuple[float, ...]
    tu: float

    @property
    def occurrences(self) -> tuple[ItemOccurrence, ...]:
        """The occurrences in column order, built afresh on each access."""
        return tuple(map(ItemOccurrence, self.items, self.quantities, self.probabilities))

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class TransactionTable(Sequence):
    """Every transaction of a database, as flat columns.

    Per transaction, in database order (the k-th has tid k): ``ends``
    (the end offset of its occurrences in the occurrence columns; it
    starts where the previous one ends) and ``tu``.  Per occurrence,
    transaction by transaction: ``items``, ``quantities`` and ``probabilities``.  Each
    column is stored as an exact tuple, whatever iterable is passed in.

    The table is a read-only sequence of :class:`Transaction`: ``len``,
    indexing, iteration, and slicing, which returns a tuple.  Every access
    builds a fresh ``Transaction``; none is cached.
    """

    ends: tuple[int, ...]
    tu: tuple[float, ...]
    items: tuple[str, ...]
    quantities: tuple[int, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        for column in fields(self):
            object.__setattr__(self, column.name, tuple(getattr(self, column.name)))
        occurrences = self.ends[-1] if self.ends else 0
        if not (
            len(self.ends) == len(self.tu)
            and occurrences == len(self.items) == len(self.quantities) == len(self.probabilities)
            and all(map(le, chain((0,), self.ends), self.ends))
        ):
            raise ValueError("transaction table columns do not line up")

    @classmethod
    def from_transactions(cls, transactions: Iterable[Transaction]) -> TransactionTable:
        """Flatten ``transactions`` into a table, keeping their order.

        The one flattening path of transactions: ``UncertainDatabase``
        calls it for any iterable of them that is not a table, such as the
        generator :func:`build_database` passes, one transaction per row.
        ``transactions`` is read once, one at a time, and only the five
        columns are kept.  Raises ``ValueError`` for a transaction whose
        three occurrence columns differ in length, which the table cannot
        hold.
        """
        ends, tus, items, quantities, probabilities = [], [], [], [], []
        for tid, t in enumerate(transactions, 1):
            if not len(t.items) == len(t.quantities) == len(t.probabilities):
                raise ValueError(str(Violation("columns differ in length", tid=tid)))
            tus.append(t.tu)
            items.extend(t.items)
            quantities.extend(t.quantities)
            probabilities.extend(t.probabilities)
            ends.append(len(items))
        return cls(ends, tus, items, quantities, probabilities)

    def spans(self) -> Iterator[slice]:
        """The slice of the occurrence columns each transaction holds, in order."""
        return _spans(self.ends)

    def lengths(self) -> Iterator[int]:
        """The number of occurrences of each transaction, in order."""
        return map(sub, self.ends, chain((0,), self.ends))

    def per_occurrence(self, column: Iterable) -> Iterator:
        """Repeat each transaction's entry of ``column`` (``tu``, say) once
        per occurrence, so it runs alongside ``items``."""
        return chain.from_iterable(map(repeat, column, self.lengths()))

    def _transaction(self, k: int, span: slice) -> Transaction:
        return Transaction(
            self.items[span],
            self.quantities[span],
            self.probabilities[span],
            self.tu[k],
        )

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(*key.indices(len(self)))))
        k = range(len(self))[key]  # an IndexError or TypeError like a tuple's
        return self._transaction(k, slice(self.ends[k - 1] if k else 0, self.ends[k]))

    def __iter__(self) -> Iterator[Transaction]:
        return map(self._transaction, range(len(self)), self.spans())


@dataclass(frozen=True)
class UncertainDatabase:
    """An immutable uncertain quantitative transaction database.

    ``transactions`` is given as a :class:`TransactionTable` or as any
    iterable of :class:`Transaction`, which is flattened into one.  A
    transaction's tid is its 1-based position, also in a sub-database
    made with ``dataclasses.replace(db, transactions=subset)``.

    ``unit_utilities`` may contain extra entries for items that never
    occur; it must cover every item that does.  It is stored as a
    read-only copy, so changing the mapping passed in afterwards changes
    nothing here.

    ``item_supports`` maps each item that occurs to the number of
    transactions holding it, in ascending item order.  It is counted once,
    at construction, from the item column, so it counts occurrences: in a
    valid database, where no transaction repeats an item, that is the
    support.  ``item_universe`` is its keys.

    ``verdict`` holds the violations :func:`validate_database` found, or
    ``None`` while none is recorded.  Neither ``item_supports`` nor
    ``verdict`` is an ``__init__`` argument or takes part in equality.
    """

    transactions: TransactionTable
    unit_utilities: Mapping[str, float]
    item_supports: Mapping[str, int] = field(init=False, repr=False, compare=False)
    verdict: tuple[Violation, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.transactions, TransactionTable):
            table = TransactionTable.from_transactions(self.transactions)
            object.__setattr__(self, "transactions", table)
        object.__setattr__(self, "unit_utilities", MappingProxyType(dict(self.unit_utilities)))
        supports = sorted(Counter(self.transactions.items).items())
        object.__setattr__(self, "item_supports", MappingProxyType(dict(supports)))

    @property
    def item_universe(self) -> tuple[str, ...]:
        """The distinct items that occur, sorted by id."""
        return tuple(self.item_supports)

    def record_verdict(self, violations: Iterable[Violation]) -> tuple[Violation, ...]:
        """Record and return what validating this database found.

        Called by the miner with :func:`validate_database`'s result, and by
        the parser with no violations.  Sound because every field is
        immutable: the verdict cannot go stale.
        """
        verdict = tuple(violations)
        object.__setattr__(self, "verdict", verdict)
        return verdict

    def __reduce__(self):
        # A read-only mapping cannot be pickled; a copy is rebuilt from a
        # dict, recounts its supports and records no verdict.
        return type(self), (self.transactions, dict(self.unit_utilities))

    def __len__(self) -> int:
        return len(self.transactions)

    def transaction(self, tid: int) -> Transaction:
        """The transaction at position ``tid - 1``; ``ValueError`` when
        ``tid`` is not in 1..len(self)."""
        if not 0 < tid <= len(self):
            raise ValueError(f"no transaction with tid {tid}")
        return self.transactions[tid - 1]


def transaction_utility(
    items: Iterable[str], quantities: Iterable[int], unit_utilities: Mapping[str, float]
) -> float:
    """Sum of quantity x unit utility, added left to right as the parser
    adds it; ``inf`` when a quantity is too large for a float."""
    try:
        return reduce(add, map(mul, quantities, map(unit_utilities.__getitem__, items)), 0.0)
    except OverflowError:
        return math.inf


def build_database(
    rows: Iterable[Sequence[tuple[str, int, float]]],
    unit_utilities: Mapping[str, float],
) -> UncertainDatabase:
    """Assemble a database from raw (item, quantity, probability) rows.

    Serves the generator, ``augment`` and hand-built databases; the
    parser builds its table straight from its own columns.  ``rows`` may
    be any iterable, a generator included: it is read once, one row at a
    time, and each row's :class:`Transaction` is flattened by
    :meth:`TransactionTable.from_transactions` as it is made, so no list
    of rows or of transactions is held.  Row k becomes tid k: it is
    transposed into the transaction's columns, and its total utility is
    :func:`transaction_utility`.  Raises ``KeyError`` when an item has no
    utility entry, and ``ValueError`` naming the row whose total utility
    is not a finite number, which no database file can hold, in
    :func:`total_faults`' words, before the next row is read.  Structural
    invariants beyond these are the caller's job (see
    :func:`validate_database`).
    """

    def transactions() -> Iterator[Transaction]:
        for tid, row in enumerate(rows, start=1):
            items, quantities, probabilities = zip(*row) if row else ((), (), ())
            tu = transaction_utility(items, quantities, unit_utilities)
            if not math.isfinite(tu):
                raise ValueError(f"row {tid}: {_NOT_FINITE_TOTAL}")
            yield Transaction(items, quantities, probabilities, tu)

    return UncertainDatabase(transactions(), unit_utilities)


@dataclass(frozen=True)
class Thresholds:
    """The three user thresholds of a mining job.

    alpha: minimum support, as a fraction of the database size, in (0, 1].
    beta:  minimum average utility occupancy, compared directly, in (0, 1].
    gamma: minimum probability, as a fraction of the database size, in [0, 1].
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")

    def min_support(self, db_size: int) -> int:
        """Smallest integer support satisfying the fraction ``alpha`` of ``db_size``.

        ceil(alpha * db_size), never below 1.  The small negative slack keeps
        products like 0.3 * 10 from ceiling to 4.
        """
        return max(1, math.ceil(self.alpha * db_size - TOL))

    def min_probability(self, db_size: int) -> float:
        return self.gamma * db_size

    def cutoffs(self, db_size: int) -> tuple[int, float, float, float]:
        """``(min_sup, min_pro, min_uo, min_bound)``, the one threshold rule of
        miner and oracle: a reported pattern's least support, probability and
        occupancy in ``db_size`` transactions, the float ones less ``TOL``, and
        the least occupancy bound that keeps a subtree, a further ``TOL`` lower."""
        min_uo = self.beta - TOL
        return self.min_support(db_size), self.min_probability(db_size) - TOL, min_uo, min_uo - TOL


class PatternSummary(NamedTuple):
    """A pattern's three measures: its support count, its summed probability
    and its mean utility occupancy.  The miner's lists and the oracle both
    give each pattern's measures in this one shape."""

    support: int
    probability: float
    occupancy: float


@dataclass(frozen=True)
class PatternRecord:
    """A qualifying pattern and its measures.

    ``items`` is stored in the mining order (ascending support count,
    ties by item id), so records from the same database render
    consistently; equality and hashing ignore that order.
    """

    items: tuple[str, ...]
    support: int
    probability: float
    utility_occupancy: float

    @property
    def pattern(self) -> frozenset[str]:
        return frozenset(self.items)

    def sort_key(self) -> tuple[str, ...]:
        return tuple(sorted(self.items))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternRecord):
            return NotImplemented
        return (
            self.pattern == other.pattern
            and self.support == other.support
            and self.probability == other.probability
            and self.utility_occupancy == other.utility_occupancy
        )

    def __hash__(self) -> int:
        return hash((self.pattern, self.support))


def pattern_records(found: Iterable[tuple[tuple, PatternSummary]]) -> tuple[PatternRecord, ...]:
    """The records of ``found``'s ``(items, summary)`` pairs, sorted by their
    id-sorted item tuple: the one record builder of ``mine`` and the oracle."""
    records = (PatternRecord(items, *summary) for items, summary in found)
    return tuple(sorted(records, key=PatternRecord.sort_key))


@dataclass
class MiningStats:
    """Instrumentation counters for one mining run.

    The prune counts are taken in the search: ``pruned_support`` counts
    joins the tid bitsets stopped below the support minimum before any row
    was built (an empty join included), ``pruned_probability`` counts
    joined children dropped below the probability minimum, and
    ``pruned_bound`` counts nodes whose subtree the occupancy bound cut;
    the search bounds only a node with a later sibling, so every cut
    subtree has candidate joins.  ``elapsed_ms`` is the wall time of the
    set-up and search, in milliseconds.
    The field order is :meth:`as_dict`'s and ``--stats``'s, so a field
    added here reaches both with no other change.
    """

    visited_nodes: int = 0
    constructed_lists: int = 0
    candidate_joins: int = 0
    patterns_found: int = 0
    elapsed_ms: float = 0.0
    pruned_support: int = 0
    pruned_probability: int = 0
    pruned_bound: int = 0

    def as_dict(self) -> dict[str, float]:
        """Every field by name, in order."""
        return asdict(self)


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_database`."""

    message: str
    tid: int | None = None
    item: str | None = None

    def __str__(self) -> str:
        context = []
        if self.tid is not None:
            context.append(f"tid {self.tid}")
        if self.item is not None:
            context.append(f"item {self.item!r}")
        if context:
            return f"{self.message} ({', '.join(context)})"
        return self.message


def unit_utility_faults(value: float) -> Iterator[str]:
    """The rules a unit utility breaks, in :func:`validate_database`'s words."""
    if not math.isfinite(value):
        yield "unit utility is not a finite number"
    elif value < 0:
        yield "unit utility is negative"


def occurrence_faults(item, quantity, probability, seen: set, utilities: Mapping) -> Iterator[str]:
    """The rules an occurrence breaks, in order; ``seen`` holds the items
    before it in its transaction, and gains ``item``."""
    if item in seen:
        yield "duplicate item in transaction"
    seen.add(item)
    if type(quantity) is not int:
        yield f"quantity {quantity} is not an integer"
    elif quantity < 1:
        yield f"quantity {quantity} below 1"
    if not 0.0 < probability <= 1.0:
        yield f"probability {probability} outside (0, 1]"
    if item not in utilities:
        yield "missing utility entry"


#: The words of the finite-total rule, which :func:`build_database` raises too.
_NOT_FINITE_TOTAL = "transaction utility is not a finite number"


def total_faults(total: float, tu: float) -> Iterator[str]:
    """The rules a transaction breaks by its left-to-right ``total`` and stored ``tu``."""
    if not (math.isfinite(total) and math.isfinite(tu)):
        yield _NOT_FINITE_TOTAL
    elif abs(total - tu) > TOL * max(1.0, abs(total)):
        yield f"stored tu {tu} does not match recomputed {total}"
    if total <= 0.0:
        yield "transaction utility is not positive"


def validate_database(db: UncertainDatabase) -> list[Violation]:
    """Check every model invariant; an empty list means the database is valid.

    Violations are data, not failures: callers that require validity
    (e.g. the miner) raise on a non-empty result.  Always runs every
    check; it neither reads nor records ``db.verdict``.
    """
    violations: list[Violation] = []

    for item, value in db.unit_utilities.items():
        violations.extend(Violation(fault, item=item) for fault in unit_utility_faults(value))

    utilities = db.unit_utilities
    table = db.transactions
    for tid, (span, tu) in enumerate(zip(table.spans(), table.tu), 1):
        items, quantities = table.items[span], table.quantities[span]
        seen: set[str] = set()
        for item, quantity, probability in zip(items, quantities, table.probabilities[span]):
            for fault in occurrence_faults(item, quantity, probability, seen, utilities):
                violations.append(Violation(fault, tid=tid, item=item))
        if all(item in utilities for item in items):
            total = transaction_utility(items, quantities, utilities)
            violations.extend(Violation(fault, tid=tid) for fault in total_faults(total, tu))

    return violations
