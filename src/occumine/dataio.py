"""Reading, writing, generating, and augmenting uncertain transaction data.

Two plain-text formats, UTF-8, LF or CRLF accepted, LF written, lines
starting with ``#`` are comments, final newline optional:

* transactions: one transaction per line, tokens of the form
  ``item:quantity:probability`` separated by any run of whitespace (as
  ``str.split`` sees it, so tabs and other Unicode whitespace count);
  item ids match ``[A-Za-z0-9_]+``, quantities are positive integers,
  probabilities are decimals in (0, 1].  Tids are implicit: the k-th
  content line (comments and blank lines not counted) gets tid k.
* utilities: one ``item unit-utility`` pair per line, whitespace-separated,
  unit utilities non-negative.

A transaction's total utility, summed left to right, must be positive
and finite.  Every error, invalid UTF-8 included, names the file line
and, where one token is at fault, its 1-based column; a value that
breaks a rule of the model reads as ``validate_database`` words it.

Transactions are parsed as bytes, in blocks of raw lines (comment and
blank lines count), each converted whole by a few C-level calls after
one shape check.  Each distinct quantity and probability field is
converted and checked once per parse, in a table per column that stops
growing at ``_TABLE_MAX`` fields (past it, a block converts field by
field), and equal fields share one value; each column of the database
is copied once, from the blocks' columns.  A block that is not ASCII,
holds a ``#`` or fails any check is decoded and parsed token by token
by the reference parser, so the database and every error are the same
on either path.

Probabilities are written with however many digits round-trip exactly,
and the parser accepts full precision, so parse(write(db)) == db for
every database the writer accepts.
"""

from __future__ import annotations

import math
import random
import re
import sys
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, islice, repeat
from operator import add, floordiv, mul
from pathlib import Path

from .errors import DatabaseValidationError, InputError, MissingUtilityError, ParseError
from .model import TransactionTable, UncertainDatabase, _spans, build_database, validate_database
from .model import occurrence_faults, total_faults, unit_utility_faults

_ITEM_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN_RE = re.compile(r"\S+")

#: Raw lines per block of :func:`parse_database`.  One block's fields are
#: all the parser holds beyond the input and the database it builds, so
#: that overhead does not grow with the input.
_BLOCK_LINES = 4096

#: The ASCII bytes ``str.split`` splits on: tab, LF, VT, FF, CR, the
#: separators 0x1c-0x1f, and space.
_SPACES = bytes(c for c in range(128) if chr(c).isspace())
_COLON = ord(":")
#: Translation tables of :func:`_parse_block`'s shape check.  Each maps
#: every byte of :data:`_SPACES` to a blank, so ``bytes.split`` then sees
#: what ``str.split`` sees.
_BLANK_SPACES = bytes(32 if c in _SPACES else c for c in range(256))
_TOKEN_MARKS = bytes(32 if c in _SPACES else ord("x") for c in range(256))
_BLANK_SEPARATORS = bytes(32 if c in _SPACES or c == _COLON else c for c in range(256))
_FIELD_BYTES = bytes(c for c in range(256) if c not in _SPACES and c != _COLON)

#: One parsed block: each content line's end offset and total utility,
#: then the occurrence columns, as a :class:`TransactionTable` of that
#: block alone takes them.
_Block = tuple[Sequence[int], Sequence[float], Sequence[str], Sequence[int], Sequence[float]]

#: The size at which a :class:`_Table` stops growing: a block that finds
#: its table this full converts that column field by field, so a table
#: holds at most this many fields and one block's more, and an input of
#: distinct values costs about what it would without one.  It is above the
#: 10**4 values a probability of four decimals can take, and no benchmark
#: workload reaches it (at most 6,501 probability and 5 quantity
#: spellings).  The cap is kept for inputs of distinct numbers: with
#: wide100k-full's seed-11 input re-spelled with quantities in 1..10**6
#: and full ``repr`` probabilities, the capped tables convert both columns
#: of its 25 blocks in 387-444 ms with a 54 MiB peak, and tables left to
#: grow in 1,180-1,548 ms with a 120 MiB peak (Python 3.11, one CPU of a
#: 2-vCPU VM, medians of 5 runs; tracemalloc, converted columns included).
_TABLE_MAX = 1 << 14


class _Table(dict):
    """One column's values over a whole parse, keyed by field: each
    distinct field is converted by ``convert`` and checked against the
    range ``(low, high]`` once, so equal fields share one object.  A field
    that does not convert or is out of range raises ``ValueError``.
    """

    def __init__(self, convert, low, high):
        self.convert, self.low, self.high = convert, low, high

    def __missing__(self, field: bytes):
        value = self.convert(field)
        if not self.low < value <= self.high:  # a NaN is in no range
            raise ValueError(field)
        self[field] = value
        return value

    def column(self, fields: list[bytes]) -> tuple:
        """``fields`` as values, looked up while the table has room."""
        if len(self) < _TABLE_MAX:
            return tuple(map(self.__getitem__, fields))
        values = tuple(map(self.convert, fields))
        # The same range over the whole column; a NaN can slip past min
        # and max, but not past the sum, which only a NaN makes unequal to
        # itself (an int sum is never converted, so it cannot overflow).
        total = sum(values)
        if not (self.low < min(values) and max(values) <= self.high) or total != total:
            raise ValueError("a field out of range")
        return values


def _decode(text: str | bytes) -> str:
    """``text`` as a ``str``; invalid UTF-8 is a ParseError naming its line."""
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as error:
        line = text.count(b"\n", 0, error.start) + 1
        raise ParseError(f"invalid UTF-8 byte 0x{text[error.start]:02x}", line) from None


def _encode(text: str | bytes) -> bytes:
    """``text`` as UTF-8 bytes, checked as :func:`_decode` checks it.

    A ``str`` is encoded with ``surrogatepass``, so that a block decoded
    back with it reads the same characters, lone surrogates included.
    """
    if isinstance(text, str):
        return text.encode("utf-8", "surrogatepass")
    if not text.isascii():
        _decode(text)
    return text


def _lines(text: str, first: int = 1):
    """Yield (line_number, line) for content lines, skipping blanks and comments.

    ``first`` is the file line number of the text's first line.
    """
    for number, raw in enumerate(text.split("\n"), start=first):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield number, line


def _raise_first(faults: Iterator[str], line: int, column: int | None = None) -> None:
    """Raise a ParseError at ``line`` and ``column`` with the first of ``faults``, if any."""
    for fault in faults:
        raise ParseError(fault, line, column)


def _item_id(token: str, line: int, column: int) -> str:
    """``token`` if it is an item id, else a ParseError at its line and column."""
    if not _ITEM_RE.match(token):
        raise ParseError(f"invalid item id {token!r}", line, column)
    return token


def parse_utilities(utility_text: str | bytes) -> dict[str, float]:
    """Parse the unit-utility table format."""
    utilities: dict[str, float] = {}
    for number, line in _lines(_decode(utility_text)):
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        if len(tokens) != 2:
            raise ParseError(
                f"expected 'item unit-utility', got {len(tokens)} tokens", number
            )
        (item, item_col), (value_text, value_col) = tokens
        item = _item_id(item, number, item_col)
        if item in utilities:
            raise ParseError(f"duplicate utility entry for {item!r}", number, item_col)
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(
                f"unit utility {value_text!r} is not a number", number, value_col
            ) from None
        _raise_first(unit_utility_faults(value), number, value_col)
        utilities[item] = value
    return utilities


def _parse_tokens(numbered_lines, utilities: dict[str, float]) -> _Block:
    """Parse content lines token by token: the reference parser.

    ``numbered_lines`` holds ``(line_number, line)`` pairs as
    :func:`_lines` yields them.  Each check raises on its own token, so
    an error names the file line and the 1-based column where the
    offending token starts.  The model's rules are its ``*_faults``
    generators.  Returns the lines as one block.
    """
    ends, totals, items, quantities, probabilities = [], [], [], [], []
    for number, line in numbered_lines:
        seen: set[str] = set()
        tu = 0.0
        for match in _TOKEN_RE.finditer(line):
            token, column = match.group(), match.start() + 1
            parts = token.split(":")
            if len(parts) != 3:
                raise ParseError(
                    f"token {token!r} is not item:quantity:probability", number, column
                )
            item, quantity_text, probability_text = parts
            if item not in utilities:
                # Every utility key is already an item id, so only an
                # unknown item needs the check.
                raise MissingUtilityError(_item_id(item, number, column), number, column)
            try:
                quantity = int(quantity_text)
            except ValueError:
                raise ParseError(
                    f"quantity {quantity_text!r} is not an integer", number, column
                ) from None
            try:
                prob = float(probability_text)
            except ValueError:
                raise ParseError(
                    f"probability {probability_text!r} is not a number", number, column
                ) from None
            _raise_first(occurrence_faults(item, quantity, prob, seen, utilities), number, column)
            items.append(item)
            quantities.append(quantity)
            probabilities.append(prob)
            try:
                tu += quantity * utilities[item]
            except OverflowError:
                raise ParseError(
                    "quantity out of range (beyond the float range)", number, column
                ) from None
        _raise_first(total_faults(tu, tu), number)  # the total is the stored tu
        totals.append(tu)
        ends.append(len(items))
    return ends, totals, items, quantities, probabilities


def _parse_block(
    lines: list[bytes],
    utilities: dict[str, float],
    ids: dict[bytes, str],
    quantity_table: _Table,
    probability_table: _Table,
) -> _Block | None:
    """Parse a block of raw lines as whole columns, or return None.

    ``ids`` maps each item of ``utilities``, encoded, to the key itself,
    so the database holds one string per distinct item, not one per
    occurrence; the two tables convert and check the quantity and the
    probability fields, so it holds one value per distinct field too.  The
    block is equal bit for bit to the one :func:`_parse_tokens` returns
    for the same lines: each total is summed left to right as the token
    loop sums it (``sum`` is compensated on Python 3.12+, so it can
    differ).

    Every step is a C-level call, or a ``map``, over the whole block, so
    no Python code runs per line or per token, only per new field of a
    table.  Returns None, without saying where, for a block that is not
    ASCII, holds a ``#``, or fails any check; the caller then parses it
    token by token to locate the error.
    """
    block = b"\n".join(lines)
    if not block.isascii() or b"#" in block:
        return None
    # The shape check: every token must read x:y:z, three non-empty fields.
    # With all else deleted, the colons must come in runs of exactly two,
    # one run per token that holds a colon (``pairs``); every token must be
    # such a token, so a line without a colon is blank; and there must be
    # three fields per token, so none is empty.  The runs and the fields
    # alone are not enough: "a::1 1" has one "::" run and three fields.
    colons = block.translate(_BLANK_SPACES, _FIELD_BYTES)
    pairs = colons.count(b" :") + colons.startswith(b":")
    marks = block.translate(_TOKEN_MARKS)
    tokens = marks.count(b" x") + marks.startswith(b"x")
    fields = block.translate(_BLANK_SEPARATORS).split()
    if not (
        b":::" not in colons
        and colons.count(b":") == 2 * pairs
        and pairs == tokens
        and len(fields) == 3 * tokens
    ):
        return None
    if not fields:  # only blank lines
        return [], [], (), (), ()
    try:
        items = tuple(map(ids.__getitem__, fields[0::3]))
        quantities = quantity_table.column(fields[1::3])
        probabilities = probability_table.column(fields[2::3])
        products = tuple(map(mul, quantities, map(utilities.__getitem__, items)))
    except (ValueError, KeyError, OverflowError):
        return None
    # Every token has two colons, so a content line's colons count its
    # tokens twice, and a blank line has none.
    colon_counts = filter(None, map(bytes.count, lines, repeat(b":")))
    ends = list(map(floordiv, accumulate(colon_counts), repeat(2)))
    # Each line's slice is made where it is used and dies at once: a list
    # of them would hold a GC-tracked object per line and set off garbage
    # collections that walk the whole block.
    totals = list(map(reduce, repeat(add), map(products.__getitem__, _spans(ends)), repeat(0.0)))
    if not (
        # no line repeats an item
        sum(map(len, map(set, map(items.__getitem__, _spans(ends))))) == len(items)
        and min(totals) > 0.0
        and max(totals) < math.inf
    ):
        return None
    return ends, totals, items, quantities, probabilities


def parse_database(
    transactions_text: str | bytes, utility_text: str | bytes
) -> UncertainDatabase:
    """Parse the two text formats into a validated database.

    The transactions are parsed as UTF-8 bytes: a ``str`` is encoded
    once, and bytes that are not ASCII are decoded once, only to check
    them.  The bytes are split into blocks of :data:`_BLOCK_LINES` raw
    lines, comment and blank lines included, and each block is converted
    whole, one column at a time (:func:`_parse_block`), so the working
    set stays one block's fields however large the input.  Quantity and
    probability fields are converted through one :class:`_Table` per
    column for the whole parse: a field spelled as an earlier one costs
    a lookup and shares its value, and a table that reaches
    :data:`_TABLE_MAX` entries leaves later blocks to convert field by
    field.  Each block's columns are kept, and each database column is
    joined from them in one copy once the last block is parsed; no
    per-line object outlives its block.  A block that is not ASCII,
    holds a ``#`` or fails any check is decoded and parsed again by
    :func:`_parse_tokens`, the reference parser, which raises the error
    with its file line and column.  The database records an empty
    validation verdict, so ``mine`` does not validate it again.
    """
    utilities = parse_utilities(utility_text)
    ids = {item.encode(): item for item in utilities}
    tables = (_Table(int, 0, math.inf), _Table(float, 0.0, 1.0))

    blocks, occurrences = [], 0
    raw_lines = _encode(transactions_text).split(b"\n")
    for first in range(0, len(raw_lines), _BLOCK_LINES):
        lines = raw_lines[first : first + _BLOCK_LINES]
        block = _parse_block(lines, utilities, ids, *tables)
        if block is None:
            text = b"\n".join(lines).decode("utf-8", "surrogatepass")
            block = _parse_tokens(_lines(text, first + 1), utilities)
        ends, totals, items, quantities, probabilities = block
        ends = tuple(map(add, ends, repeat(occurrences)))
        blocks.append((ends, totals, items, quantities, probabilities))
        occurrences += len(items)
    # Free the lines before the columns are joined: that is the peak.
    del raw_lines
    table = TransactionTable(*(tuple(chain.from_iterable(column)) for column in zip(*blocks)))
    db = UncertainDatabase(table, utilities)
    # Every value passed the rules validate_database checks.
    db.record_verdict(())
    return db


def load_database(data_path: str | Path, utility_path: str | Path) -> UncertainDatabase:
    """Read both files and parse them.

    A parse error's message starts with the path of the file at fault.
    ``parse_database`` parses the utility file first, so the fault is
    that file's exactly when it fails to parse alone.
    """
    data = Path(data_path).read_bytes()
    utility = Path(utility_path).read_bytes()
    try:
        return parse_database(data, utility)
    except InputError as exc:
        exc.path = str(data_path)
        try:
            parse_utilities(utility)
        except ParseError:
            exc.path = str(utility_path)
        raise


def _format_number(value: float) -> str:
    """Shortest decimal that parses back to exactly this float."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def write_database(db: UncertainDatabase) -> tuple[str, str]:
    """Render a database back into the two text formats.

    Raises :class:`DatabaseValidationError` for every database ``mine``
    refuses, reading its recorded verdict or else running (not recording)
    :func:`validate_database`, and ``ValueError`` for an item id the format
    cannot hold.  ``parse(write(db)) == db`` for every database written,
    occurrence order included.  The file holds no ``tu``: it reads back as
    the left-to-right total, which every database the package builds stores.

    The tokens are formatted as one lazy stream over the occurrence
    columns, and each transaction's line joins the next ``length`` of
    them, so no list of every token is built.  The lines are gathered
    only by the ``str.join`` that makes each text, so the peak is that
    text and its lines beside the database.
    """
    violations = db.verdict
    if violations is None:
        violations = validate_database(db)
    if violations:
        raise DatabaseValidationError(violations)
    for item in db.unit_utilities:
        if not (isinstance(item, str) and _ITEM_RE.match(item)):
            raise ValueError(f"item id {item!r} cannot be serialized")

    table = db.transactions
    tokens = map(
        "{}:{}:{}".format,
        table.items,
        table.quantities,
        map(_format_number, table.probabilities),
    )
    transaction_lines = map(" ".join, map(islice, repeat(tokens), table.lengths()))
    utility_lines = (
        f"{item} {_format_number(value)}"
        for item, value in sorted(db.unit_utilities.items())
    )
    end_line = "{}\n".format
    return "".join(map(end_line, transaction_lines)), "".join(map(end_line, utility_lines))


def save_database(
    db: UncertainDatabase, data_path: str | Path, utility_path: str | Path
) -> None:
    data_text, utility_text = write_database(db)
    Path(data_path).write_text(data_text, encoding="utf-8", newline="\n")
    Path(utility_path).write_text(utility_text, encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic database generator.

    Its defaults are the generator's, for the library and for
    ``occumine generate`` and ``augment`` alike: the CLI passes only the
    flags given, so a flag left out takes the default stated here.
    """

    seed: int
    num_transactions: int
    num_items: int
    avg_transaction_length: float
    max_quantity: int = 5
    max_unit_utility: int = 20
    prob_min: float = 0.1
    prob_max: float = 1.0

    def __post_init__(self) -> None:
        if self.num_transactions < 0:
            raise ValueError(f"num_transactions must be >= 0, got {_shown(self.num_transactions)}")
        if self.num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {_shown(self.num_items)}")
        length = self.avg_transaction_length
        try:
            finite = math.isfinite(length)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not (finite and length >= 1):
            raise ValueError(
                f"avg_transaction_length must be a finite number >= 1, got {_shown(length)}"
            )
        if self.max_quantity < 1:
            raise ValueError(f"max_quantity must be >= 1, got {_shown(self.max_quantity)}")
        top = sys.float_info.max  # an int compares with a float exactly
        if not 1 <= self.max_unit_utility <= top:
            raise ValueError(
                f"max_unit_utility must be in [1, {top}], got {_shown(self.max_unit_utility)}"
            )
        if not 0.0 < self.prob_min <= 1.0:
            raise ValueError(f"prob_min must be in (0, 1], got {_shown(self.prob_min)}")
        if not 0.0 < self.prob_max <= 1.0:
            raise ValueError(f"prob_max must be in (0, 1], got {_shown(self.prob_max)}")
        if self.prob_min > self.prob_max:
            raise ValueError(f"prob_min {self.prob_min} is above prob_max {self.prob_max}")


def _shown(value) -> str:
    """``value`` as a message shows it: an int too long for ``str`` (see
    ``sys.set_int_max_str_digits``) is shown by its number of digits."""
    try:
        return str(value)
    except ValueError:
        n = abs(value)
        digits = max(0, int((n.bit_length() - 1) * math.log10(2)) - 1)  # a lower bound
        while 10**digits <= n:
            digits += 1
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def _draw_probability(rng: random.Random, config: GeneratorConfig) -> float:
    # Rounded for readable files, then clamped, since rounding can leave
    # the range (or reach 0).  Four decimals give a range at least 1e-3
    # wide 10 or more steps; a narrower range gets the decimals it needs
    # for 10 steps, so its draws do not collapse to its ends.
    width = config.prob_max - config.prob_min
    digits = 1 - math.floor(math.log10(width)) if 0.0 < width < 1e-3 else 4
    drawn = round(rng.uniform(config.prob_min, config.prob_max), digits)
    return min(max(drawn, config.prob_min), config.prob_max)


def _draw_length(rng: random.Random, config: GeneratorConfig) -> int:
    """Geometric-like length with mean avg_transaction_length, clamped."""
    mean = config.avg_transaction_length
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    u = rng.random()
    log_q = math.log(1.0 - p)
    if u == 0.0:
        length = 1
    elif log_q == 0.0:
        # p is below float resolution, so the draw exceeds any clamp.
        length = config.num_items
    else:
        length = 1 + int(math.log(1.0 - u) / log_q)
    return max(1, min(length, config.num_items))


def generate(config: GeneratorConfig) -> UncertainDatabase:
    """Deterministically generate a synthetic uncertain database.

    Item popularity follows a 1/rank skew; quantities and unit utilities
    are uniform integers; probabilities are uniform in
    [prob_min, prob_max], rounded to 4 decimals (more for a range narrower
    than 1e-3) and kept in that range.  The unit utilities are drawn
    first, then each row as :func:`build_database` reads it, so no list of
    rows is held.  Raises ``ValueError`` naming the row whose total
    utility is not a finite float.
    """
    rng = random.Random(config.seed)
    width = len(str(config.num_items))
    pool = [f"i{k:0{width}d}" for k in range(1, config.num_items + 1)]
    utilities = {item: float(rng.randint(1, config.max_unit_utility)) for item in pool}

    weights = list(accumulate(1.0 / (k + 1) for k in range(config.num_items)))
    total_weight = weights[-1]

    def rows() -> Iterator[list[tuple[str, int, float]]]:
        for _ in range(config.num_transactions):
            length = _draw_length(rng, config)
            chosen: set[str] = set()
            while len(chosen) < length:
                chosen.add(pool[bisect_left(weights, rng.random() * total_weight)])
            yield [
                (item, rng.randint(1, config.max_quantity), _draw_probability(rng, config))
                for item in sorted(chosen)
            ]

    return build_database(rows(), utilities)


def augment(plain_text: str | bytes, config: GeneratorConfig) -> UncertainDatabase:
    """Attach quantities, probabilities, and utilities to plain transactions.

    Input lines are whitespace-separated item tokens.  Duplicate tokens on
    a line merge into one occurrence whose quantity draws are summed.  The
    transaction structure and item set are preserved; everything random is
    deterministic in the seed.  The lines' tokens are collected first,
    since the unit utilities are drawn over the whole item universe; the
    quantities and probabilities are then drawn row by row as
    :func:`build_database` reads each row, so no list of rows is held.
    Raises ``ValueError`` naming the row whose total utility is not a
    finite float.
    """
    rng = random.Random(config.seed)

    token_rows: list[list[str]] = []
    universe: set[str] = set()
    for number, line in _lines(_decode(plain_text)):
        tokens = [_item_id(m.group(), number, m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        token_rows.append(tokens)
        universe.update(tokens)

    utilities = {
        item: float(rng.randint(1, config.max_unit_utility)) for item in sorted(universe)
    }

    def rows() -> Iterator[list[tuple[str, int, float]]]:
        for tokens in token_rows:
            quantities: dict[str, int] = {}
            for token in tokens:
                quantities[token] = quantities.get(token, 0) + rng.randint(1, config.max_quantity)
            yield [(item, q, _draw_probability(rng, config)) for item, q in quantities.items()]

    return build_database(rows(), utilities)
