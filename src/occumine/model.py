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
``parse_database`` records the empty verdict up front because it
enforces every invariant the check looks for.  Direct construction and
``dataclasses.replace`` start with no verdict recorded.

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
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import chain, repeat
from operator import add, le, mul, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

#: The one floating-point tolerance.  A measure clears a threshold ``t``
#: when ``x >= t - TOL`` (:meth:`Thresholds.cutoffs`), because repeated list
#: joins accumulate rounding error; :func:`min_support_count` gives the same
#: slack to the support fraction.  A stored transaction utility must agree
#: with its left-to-right total (:func:`transaction_utility`) within ``TOL``,
#: relative: ``abs(total - tu) <= TOL * max(1.0, abs(total))``.
TOL = 1e-9


def min_support_count(alpha: float, db_size: int) -> int:
    """Smallest integer support satisfying the fraction ``alpha`` of ``db_size``.

    ceil(alpha * db_size), never below 1.  The small negative slack keeps
    products like 0.3 * 10 from ceiling to 4.
    """
    return max(1, math.ceil(alpha * db_size - TOL))


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

        Raises ``ValueError`` for a transaction whose three occurrence
        columns differ in length, which the table cannot hold.
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
    rows: Sequence[Sequence[tuple[str, int, float]]],
    unit_utilities: Mapping[str, float],
) -> UncertainDatabase:
    """Assemble a database from raw (item, quantity, probability) rows.

    Serves the generator, ``augment`` and hand-built databases; the
    parser builds its table straight from its own columns.  Row k becomes
    tid k: it is transposed into the transaction's columns, and its total
    utility is :func:`transaction_utility`.  Raises
    ``KeyError`` when an item has no utility entry, and ``ValueError``
    naming the row whose total utility is not a finite number, which no
    database file can hold.  Structural invariants beyond these are the
    caller's job (see :func:`validate_database`).
    """
    transactions = []
    for tid, row in enumerate(rows, start=1):
        items, quantities, probabilities = zip(*row) if row else ((), (), ())
        tu = transaction_utility(items, quantities, unit_utilities)
        if not math.isfinite(tu):
            raise ValueError(f"row {tid}: total utility is not a finite number")
        transactions.append(Transaction(items, quantities, probabilities, tu))
    return UncertainDatabase(tuple(transactions), unit_utilities)


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
        return min_support_count(self.alpha, db_size)

    def min_probability(self, db_size: int) -> float:
        return self.gamma * db_size

    def cutoffs(self, db_size: int) -> tuple[int, float, float]:
        """The least support, probability and occupancy a reported pattern
        has in ``db_size`` transactions, ``(min_sup, min_pro, min_uo)``, the
        float ones less ``TOL``: the one threshold rule of miner and oracle."""
        return self.min_support(db_size), self.min_probability(db_size) - TOL, self.beta - TOL


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


@dataclass
class MiningStats:
    """Instrumentation counters for one mining run.

    The prune counts are taken in the search: ``pruned_support`` and
    ``pruned_probability`` count joined children dropped below the support
    (an empty join included) or the probability minimum,
    ``pruned_bound`` counts nodes whose subtree the occupancy bound cut,
    and ``joins_aborted`` counts joins the tid bitsets stopped before any
    row was built.  The field order is :meth:`as_dict`'s and ``--stats``'s.
    """

    visited_nodes: int = 0
    constructed_lists: int = 0
    candidate_joins: int = 0
    patterns_found: int = 0
    elapsed_seconds: float = 0.0
    pruned_support: int = 0
    pruned_probability: int = 0
    pruned_bound: int = 0
    joins_aborted: int = 0

    def as_dict(self) -> dict[str, float]:
        """Every field in order, ``elapsed_seconds`` given as ``elapsed_ms``."""
        counters = {}
        for column in fields(self):
            if column.name == "elapsed_seconds":
                counters["elapsed_ms"] = self.elapsed_seconds * 1000.0
            else:
                counters[column.name] = getattr(self, column.name)
        return counters


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


def validate_database(db: UncertainDatabase) -> list[Violation]:
    """Check every model invariant; an empty list means the database is valid.

    Violations are data, not failures: callers that require validity
    (e.g. the miner) raise on a non-empty result.  Always runs every
    check; it neither reads nor records ``db.verdict``.
    """
    violations: list[Violation] = []

    for item, value in db.unit_utilities.items():
        if not math.isfinite(value):
            violations.append(Violation("unit utility is not a finite number", item=item))
        elif value < 0:
            violations.append(Violation("unit utility is negative", item=item))

    utilities = db.unit_utilities
    table = db.transactions
    for tid, (span, tu) in enumerate(zip(table.spans(), table.tu), 1):
        items, quantities = table.items[span], table.quantities[span]
        seen: set[str] = set()
        for item, quantity, probability in zip(items, quantities, table.probabilities[span]):
            if item in seen:
                violations.append(Violation("duplicate item in transaction", tid=tid, item=item))
            seen.add(item)
            if type(quantity) is not int:
                violations.append(
                    Violation(f"quantity {quantity} is not an integer", tid=tid, item=item)
                )
            elif quantity < 1:
                violations.append(Violation(f"quantity {quantity} below 1", tid=tid, item=item))
            if not 0.0 < probability <= 1.0:
                violations.append(
                    Violation(f"probability {probability} outside (0, 1]", tid=tid, item=item)
                )
            if item not in utilities:
                violations.append(Violation("missing utility entry", tid=tid, item=item))
        if all(item in utilities for item in items):
            recomputed = transaction_utility(items, quantities, utilities)
            if not (math.isfinite(recomputed) and math.isfinite(tu)):
                violations.append(Violation("transaction utility is not a finite number", tid=tid))
            elif abs(recomputed - tu) > TOL * max(1.0, abs(recomputed)):
                violations.append(
                    Violation(f"stored tu {tu} does not match recomputed {recomputed}", tid=tid)
                )
            if recomputed <= 0.0:
                violations.append(Violation("transaction utility is not positive", tid=tid))

    return violations
