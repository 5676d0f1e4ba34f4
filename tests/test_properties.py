"""Generated-input properties: miner equals oracle, the parser only accepts
valid databases, and the CLI never raises."""

import contextlib
import io
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from occumine import (
    PRESETS,
    MissingUtilityError,
    ParseError,
    Thresholds,
    mine,
    oracle_mine,
    parse_database,
    validate_database,
)
from occumine.cli import main

ITEMS = "abcde"

#: Probabilities in (0, 1], weighted towards the extremes the format allows.
probabilities = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from([sys.float_info.min, 5e-324, 1e-300, 1e-120, 1e-160, 1.0]),
)
#: Unit utilities >= 0, including huge ones whose per-line sums stay finite.
unit_utilities = st.one_of(
    st.integers(min_value=0, max_value=20).map(float),
    st.sampled_from([1e-300, 1e300, 3e300]),
)


@st.composite
def databases(draw):
    utilities = {item: draw(unit_utilities) for item in ITEMS}
    rows = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(ITEMS), st.integers(min_value=1, max_value=3), probabilities
                ),
                min_size=1,
                max_size=len(ITEMS),
                unique_by=lambda occurrence: occurrence[0],
            ),
            min_size=1,
            max_size=8,
        )
    )
    data = "".join(
        " ".join(f"{item}:{q}:{p!r}" for item, q, p in row) + "\n" for row in rows
    )
    utility = "".join(f"{item} {value!r}\n" for item, value in utilities.items())
    try:
        return parse_database(data, utility)
    except ParseError:  # a zero-utility line
        assume(False)


thresholds = st.builds(
    Thresholds,
    alpha=st.floats(min_value=0.01, max_value=1.0),
    beta=st.floats(min_value=0.01, max_value=1.0),
    gamma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
)


@settings(max_examples=150, deadline=None)
@given(db=databases(), th=thresholds)
def test_mine_equals_oracle_under_every_preset(db, th):
    expected = {r.pattern: r for r in oracle_mine(db, th, max_len=len(ITEMS))}
    for strategies in PRESETS.values():
        got = {r.pattern: r for r in mine(db, th, strategies).patterns}
        assert got.keys() == expected.keys()
        for pattern, record in got.items():
            reference = expected[pattern]
            assert record.support == reference.support
            assert record.probability == pytest.approx(reference.probability, abs=1e-6)
            assert record.utility_occupancy == pytest.approx(
                reference.utility_occupancy, abs=1e-6
            )


GARBAGE = ["", "x", "a-b", "é", ":", "-1", "0", "1e-400", "nan", "inf", "#", "\t", "\r", "\n"]


@st.composite
def _splice(draw, text):
    """``text``, or ``text`` with a stretch of it replaced by garbage."""
    if not draw(st.booleans()):
        return text
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, len(text)))
    return text[:start] + draw(st.sampled_from(GARBAGE)) + text[end:]


@st.composite
def fuzzed_inputs(draw):
    """Transactions and utility text, well formed with values at the extremes
    the format allows, then possibly corrupted in one place."""
    utility = "".join(
        f"{item} {draw(st.sampled_from(['1', '2', '0', '1e-300', '1e308']))}\n"
        for item in ITEMS[:3]
    )
    quantity_texts = st.sampled_from(["1", "2", "9" * 400])
    probability_texts = st.sampled_from(["0.5", "1", "1e-120", "5e-324"])
    data = ""
    for _ in range(draw(st.integers(0, 4))):
        items = draw(st.lists(st.sampled_from(ITEMS[:3]), min_size=1, max_size=3, unique=True))
        data += " ".join(
            f"{item}:{draw(quantity_texts)}:{draw(probability_texts)}" for item in items
        ) + "\n"
    return draw(_splice(data)), draw(_splice(utility))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(texts=fuzzed_inputs())
def test_mine_cli_never_raises_on_fuzzed_text(tmp_path, texts):
    data, utility = texts
    data_path = tmp_path / "data.txt"
    utility_path = tmp_path / "utility.txt"
    data_path.write_text(data, encoding="utf-8")
    utility_path.write_text(utility, encoding="utf-8")
    argv = [
        "mine", "--data", str(data_path), "--utility", str(utility_path),
        "--alpha", "0.3", "--beta", "0.1", "--gamma", "0",
        "--output", str(tmp_path / "patterns.txt"),
    ]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1)


@st.composite
def parser_inputs(draw):
    """Well-formed transactions and utility text with at most one invariant
    broken: a bad quantity, probability or unit utility, a repeated or
    unknown item, or a missing utility line."""
    fault = draw(
        st.sampled_from(["utility", "quantity", "probability", "repeat", "unknown", "none"])
    )
    utilities = {
        item: draw(st.sampled_from(["1", "2", "0", "1e-300", "1e308"])) for item in ITEMS[:3]
    }
    token = st.tuples(
        st.sampled_from(ITEMS[:3]),
        st.sampled_from(["1", "2"]),
        st.sampled_from(["0.5", "1", "1e-120", "5e-324"]),
    ).map(list)
    lines = draw(
        st.lists(
            st.lists(token, min_size=1, max_size=3, unique_by=lambda t: t[0]),
            min_size=1,
            max_size=4,
        )
    )
    line = draw(st.sampled_from(lines))
    victim = draw(st.sampled_from(line))
    if fault == "quantity":
        victim[1] = draw(st.sampled_from(["0", "-1", "x", "1.5", "", "9" * 400]))
    elif fault == "probability":
        victim[2] = draw(st.sampled_from(["0", "-0.5", "1.5", "nan", "inf", "1e-400", "x"]))
    elif fault == "repeat":
        line.append([victim[0], draw(st.sampled_from(["1", "3"])), victim[2]])
    elif fault == "unknown":
        line.append([draw(st.sampled_from(["d", "q-x", "é"])), "1", "0.5"])
    elif fault == "utility":
        value = draw(st.sampled_from(["-1", "nan", "inf", "x", None]))
        if value is None:
            del utilities[victim[0]]
        else:
            utilities[victim[0]] = value
    data = "".join(" ".join(map(":".join, tokens)) + "\n" for tokens in lines)
    utility = "".join(f"{item} {value}\n" for item, value in utilities.items())
    return data, utility


@settings(max_examples=500, deadline=None)
@given(texts=st.one_of(fuzzed_inputs(), parser_inputs()))
def test_parser_accepts_only_valid_databases(texts):
    # CLI mine skips validate_database because the parser enforces every
    # invariant it checks.
    data, utility = texts
    try:
        db = parse_database(data, utility)
    except (ParseError, MissingUtilityError):
        return
    assert validate_database(db) == []
