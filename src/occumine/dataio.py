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
and finite.  Every error names the file line and, where one token is at
fault, its 1-based column.

Probabilities are written with however many digits round-trip exactly,
and the parser accepts full precision, so parse(write(db)) == db.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, islice, repeat
from operator import add, mul
from pathlib import Path

from .errors import MissingUtilityError, ParseError
from .model import TransactionTable, UncertainDatabase, build_database

_ITEM_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN_RE = re.compile(r"\S+")

#: Content lines per block of :func:`parse_database`.  One block's token
#: and field lists are all the parser holds beyond the database it
#: builds, so that overhead does not grow with the input.
_BLOCK_LINES = 4096

#: One parsed line: items, quantities, probabilities and total utility.
_Row = tuple[tuple[str, ...], tuple[int, ...], tuple[float, ...], float]


def _decode(text: str | bytes) -> str:
    if isinstance(text, bytes):
        return text.decode("utf-8")
    return text


def _lines(text: str):
    """Yield (line_number, line) for content lines, skipping blanks and comments."""
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield number, line


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
        if not _ITEM_RE.match(item):
            raise ParseError(f"invalid item id {item!r}", number, item_col)
        if item in utilities:
            raise ParseError(f"duplicate utility entry for {item!r}", number, item_col)
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(
                f"unit utility {value_text!r} is not a number", number, value_col
            ) from None
        if not math.isfinite(value) or value < 0:
            raise ParseError(
                f"unit utility {value_text} out of range (must be >= 0)",
                number,
                value_col,
            )
        utilities[item] = value
    return utilities


def _parse_tokens(numbered_lines, utilities: dict[str, float]) -> list[_Row]:
    """Parse content lines token by token: the reference parser.

    ``numbered_lines`` holds ``(line_number, line)`` pairs as
    :func:`_lines` yields them.  Each check raises on its own token, so
    an error names the file line and the 1-based column where the
    offending token starts.  Returns one row per line.
    """
    rows: list[_Row] = []
    for number, line in numbered_lines:
        row: list[tuple[str, int, float]] = []
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
            # Every utility key already matched _ITEM_RE, so only an
            # unknown item needs the regex.
            known = item in utilities
            if not known and not _ITEM_RE.match(item):
                raise ParseError(f"invalid item id {item!r}", number, column)
            if item in seen:
                raise ParseError(f"duplicate item {item!r} in transaction", number, column)
            seen.add(item)
            try:
                quantity = int(quantity_text)
            except ValueError:
                raise ParseError(
                    f"quantity {quantity_text!r} is not an integer", number, column
                ) from None
            if quantity < 1:
                raise ParseError(
                    f"quantity {quantity} out of range (must be >= 1)", number, column
                )
            try:
                prob = float(probability_text)
            except ValueError:
                raise ParseError(
                    f"probability {probability_text!r} is not a number", number, column
                ) from None
            if not 0.0 < prob <= 1.0:
                raise ParseError(
                    f"probability {prob} out of range (must be in (0, 1])",
                    number,
                    column,
                )
            if not known:
                raise MissingUtilityError(item, number)
            row.append((item, quantity, prob))
            try:
                tu += quantity * utilities[item]
            except OverflowError:
                raise ParseError(
                    "quantity out of range (beyond the float range)", number, column
                ) from None
        if not math.isfinite(tu):
            raise ParseError("transaction total utility is not a finite number", number)
        if tu == 0:
            raise ParseError("transaction has zero total utility", number)
        items, quantities, probabilities = zip(*row)
        rows.append((items, quantities, probabilities, tu))
    return rows


def _convert_tokens(
    joined: str, utilities: dict[str, float], ids: dict[str, str]
) -> tuple[tuple, tuple, tuple, tuple] | None:
    """Convert the tokens of ``joined`` into occurrence columns, or return None.

    Returns exact tuples of the items, quantities and probabilities and of
    each occurrence's ``quantity * utility``, after the token checks of
    :func:`_parse_tokens` pass on them all.  ``ids`` maps every item of
    ``utilities`` to itself: each item is stored as that one string, so
    the database holds one string per distinct item, not one per
    occurrence.  The token and field lists die on return, so no later
    garbage collection walks them.
    """
    tokens = joined.split()
    if list(map(str.count, tokens, repeat(":"))).count(2) != len(tokens):
        return None
    fields = joined.replace(":", " ").split()
    if len(fields) != 3 * len(tokens):  # an empty item, quantity or probability
        return None
    try:
        items = tuple(map(ids.__getitem__, fields[0::3]))
        quantities = tuple(map(int, fields[1::3]))
        probabilities = tuple(map(float, fields[2::3]))
        products = tuple(map(mul, quantities, map(utilities.__getitem__, items)))
    except (ValueError, KeyError, OverflowError):
        return None
    # Written so that a NaN probability fails.
    if not (
        min(quantities) >= 1
        and all(map((0.0).__lt__, probabilities))
        and all(map((1.0).__ge__, probabilities))
    ):
        return None
    return items, quantities, probabilities, products


def _parse_block(
    lines: list[str], utilities: dict[str, float], ids: dict[str, str]
) -> tuple[tuple, tuple, tuple, list[float], list[int]] | None:
    """Parse a block of content lines as whole columns, or return None.

    Returns the block's items, quantities and probabilities as flat
    columns, then each line's total utility and the end offset of its
    occurrences in those columns.  Together they are equal bit for bit to
    the rows of :func:`_parse_tokens`: each total is summed left to right
    as the token loop sums it (``sum`` is compensated on Python 3.12+, so
    it can differ).  Returns None when any check fails, without saying
    where; the caller then parses the block token by token to locate the
    error.
    """
    columns = _convert_tokens(" ".join(lines), utilities, ids)
    if columns is None:
        return None
    items, quantities, probabilities, products = columns
    # Every token has two colons, so a line's colons count its tokens twice.
    ends = [colons // 2 for colons in accumulate(map(str.count, lines, repeat(":")))]
    spans = list(map(slice, [0, *ends[:-1]], ends))
    totals = list(map(reduce, repeat(add), map(products.__getitem__, spans), repeat(0.0)))
    if not (
        # no line repeats an item
        sum(map(len, map(set, map(items.__getitem__, spans)))) == len(items)
        and all(map((0.0).__lt__, totals))
        and all(map(math.inf.__gt__, totals))
    ):
        return None
    return items, quantities, probabilities, totals, ends


def parse_database(
    transactions_text: str | bytes, utility_text: str | bytes
) -> UncertainDatabase:
    """Parse the two text formats into a validated database.

    Content lines are converted in blocks of :data:`_BLOCK_LINES`, whole
    columns at a time (:func:`_parse_block`), so the working set stays one
    block's tokens however large the input.  Each block's columns are
    appended to the database-wide ones; no per-line object outlives its
    block.  A block that fails any check is parsed again by
    :func:`_parse_tokens`, which raises the error with its line and
    column.  The database records an empty validation verdict, so
    ``mine`` does not validate it again.
    """
    utilities = parse_utilities(utility_text)
    ids = dict(zip(utilities, utilities))

    items: list[str] = []
    quantities: list[int] = []
    probabilities: list[float] = []
    totals: list[float] = []
    ends: list[int] = []
    numbered = _lines(_decode(transactions_text))
    while block := list(islice(numbered, _BLOCK_LINES)):
        columns = _parse_block([line for _, line in block], utilities, ids)
        if columns is None:
            rows = _parse_tokens(block, utilities)
            line_items, line_quantities, line_probabilities, line_totals = zip(*rows)
            columns = (
                chain.from_iterable(line_items),
                chain.from_iterable(line_quantities),
                chain.from_iterable(line_probabilities),
                line_totals,
                accumulate(map(len, line_items)),
            )
        block_items, block_quantities, block_probabilities, block_totals, block_ends = columns
        ends.extend(map(add, block_ends, repeat(len(items))))
        items.extend(block_items)
        quantities.extend(block_quantities)
        probabilities.extend(block_probabilities)
        totals.extend(block_totals)
    table = TransactionTable(ends, totals, items, quantities, probabilities)
    db = UncertainDatabase(table, utilities)
    # Every line passed the checks validate_database makes.
    db.record_verdict(())
    return db


def load_database(data_path: str | Path, utility_path: str | Path) -> UncertainDatabase:
    """Read both files and parse them."""
    data = Path(data_path).read_bytes()
    utility = Path(utility_path).read_bytes()
    return parse_database(data, utility)


def _format_number(value: float) -> str:
    """Shortest decimal that parses back to exactly this float."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def write_database(db: UncertainDatabase) -> tuple[str, str]:
    """Render a database back into the two text formats.

    Occurrence order inside transactions is preserved, so the round trip
    through :func:`parse_database` reproduces the database exactly.
    """
    for item, value in db.unit_utilities.items():
        if not _ITEM_RE.match(item):
            raise ValueError(f"item id {item!r} cannot be serialized")
        if not math.isfinite(value):
            raise ValueError(f"unit utility {value} of item {item!r} cannot be serialized")

    table = db.transactions
    tokens = list(
        map(
            "{}:{}:{}".format,
            table.items,
            table.quantities,
            map(_format_number, table.probabilities),
        )
    )
    transaction_lines = list(map(" ".join, map(tokens.__getitem__, table.spans())))
    utility_lines = [
        f"{item} {_format_number(value)}"
        for item, value in sorted(db.unit_utilities.items())
    ]

    def _join(lines: list[str]) -> str:
        return "\n".join(lines) + "\n" if lines else ""

    return _join(transaction_lines), _join(utility_lines)


def save_database(
    db: UncertainDatabase, data_path: str | Path, utility_path: str | Path
) -> None:
    data_text, utility_text = write_database(db)
    Path(data_path).write_text(data_text, encoding="utf-8", newline="\n")
    Path(utility_path).write_text(utility_text, encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic database generator."""

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
            raise ValueError("num_transactions must be >= 0")
        if self.num_items < 1:
            raise ValueError("num_items must be >= 1")
        if not (math.isfinite(self.avg_transaction_length) and self.avg_transaction_length >= 1):
            raise ValueError("avg_transaction_length must be a finite number >= 1")
        if self.max_quantity < 1:
            raise ValueError("max_quantity must be >= 1")
        if self.max_unit_utility < 1:
            raise ValueError("max_unit_utility must be >= 1")
        if not 0.0 < self.prob_min <= self.prob_max <= 1.0:
            raise ValueError("probabilities must satisfy 0 < prob_min <= prob_max <= 1")


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
    than 1e-3) and kept in that range.  Raises ``ValueError`` naming the
    row whose total utility is not a finite float.
    """
    rng = random.Random(config.seed)
    width = len(str(config.num_items))
    pool = [f"i{k:0{width}d}" for k in range(1, config.num_items + 1)]
    utilities = {item: float(rng.randint(1, config.max_unit_utility)) for item in pool}

    weights = list(accumulate(1.0 / (k + 1) for k in range(config.num_items)))
    total_weight = weights[-1]

    rows: list[list[tuple[str, int, float]]] = []
    for _ in range(config.num_transactions):
        length = _draw_length(rng, config)
        chosen: set[str] = set()
        while len(chosen) < length:
            item = pool[bisect_left(weights, rng.random() * total_weight)]
            chosen.add(item)
        rows.append(
            [
                (item, rng.randint(1, config.max_quantity), _draw_probability(rng, config))
                for item in sorted(chosen)
            ]
        )
    return build_database(rows, utilities)


def augment(plain_text: str | bytes, config: GeneratorConfig) -> UncertainDatabase:
    """Attach quantities, probabilities, and utilities to plain transactions.

    Input lines are whitespace-separated item tokens.  Duplicate tokens on
    a line merge into one occurrence whose quantity draws are summed.  The
    transaction structure and item set are preserved; everything random is
    deterministic in the seed.  Raises ``ValueError`` naming the row whose
    total utility is not a finite float.
    """
    rng = random.Random(config.seed)

    token_rows: list[list[str]] = []
    universe: set[str] = set()
    for number, line in _lines(_decode(plain_text)):
        tokens = []
        for match in _TOKEN_RE.finditer(line):
            token, column = match.group(), match.start() + 1
            if not _ITEM_RE.match(token):
                raise ParseError(f"invalid item id {token!r}", number, column)
            tokens.append(token)
        token_rows.append(tokens)
        universe.update(tokens)

    utilities = {
        item: float(rng.randint(1, config.max_unit_utility)) for item in sorted(universe)
    }

    rows: list[list[tuple[str, int, float]]] = []
    for tokens in token_rows:
        quantities: dict[str, int] = {}
        ordered: list[str] = []
        for token in tokens:
            if token not in quantities:
                quantities[token] = 0
                ordered.append(token)
            quantities[token] += rng.randint(1, config.max_quantity)
        rows.append(
            [(item, quantities[item], _draw_probability(rng, config)) for item in ordered]
        )
    return build_database(rows, utilities)
