import dataclasses
import math
import sys
from collections import Counter

import pytest

from occumine import (
    FULL,
    PRESETS,
    S1,
    S12,
    S13,
    DatabaseValidationError,
    GeneratorConfig,
    Thresholds,
    build_database,
    generate,
    mine,
    oracle_mine,
    parse_database,
    total_order,
    upper_bound,
    validate_database,
    write_database,
)
from occumine.lists import build_single_item_lists, construct, item_columns
from occumine.model import TOL, Transaction


def _records_by_pattern(records):
    return {r.pattern: r for r in records}


def test_upper_bound_values(example_db):
    order = total_order(example_db)
    singles = build_single_item_lists(item_columns(example_db, order.items), order)
    assert upper_bound(singles["b"][0], 3) == pytest.approx(0.8911, abs=1e-4)
    assert upper_bound(singles["c"][0], 3) == pytest.approx(0.8780, abs=1e-4)


def test_upper_bound_short_list(example_db):
    order = total_order(example_db)
    singles = build_single_item_lists(item_columns(example_db, order.items), order)
    e_list = singles["e"][0]
    total = sum(uo + ruo for uo, ruo in zip(e_list.uo, e_list.ruo))
    assert upper_bound(e_list, 9) == pytest.approx(total / 9, abs=1e-12)


def test_upper_bound_empty_list(example_db):
    from occumine.lists import PatternList

    empty = PatternList(items=("x",), tids=[], pro=[], uo=[], bits=0, item_ruo=[])
    assert upper_bound(empty, 3) == 0.0


def test_mine_high_thresholds(example_db):
    outcome = mine(example_db, Thresholds(0.8, 0.6, 0.3))
    assert len(outcome.patterns) == 1
    record = outcome.patterns[0]
    assert record.items == ("c",)
    assert record.support == 8
    assert record.probability == pytest.approx(5.4, abs=1e-9)
    assert record.utility_occupancy == pytest.approx(0.6468, abs=1e-4)
    assert outcome.stats.patterns_found == 1
    assert outcome.stats.visited_nodes >= outcome.stats.patterns_found


def test_mine_excludes_low_occupancy_item(example_db):
    outcome = mine(example_db, Thresholds(0.3, 0.3, 0.05))
    assert frozenset({"b"}) not in _records_by_pattern(outcome.patterns)


def _traced(db, thresholds, strategies=FULL):
    """Mine, collecting (items, upper_bound) for every visited node."""
    min_sup = thresholds.min_support(len(db))
    trace = []

    def on_node(plist, summary):
        trace.append((plist.items, upper_bound(plist, min_sup)))

    return mine(db, thresholds, strategies, on_node=on_node), trace


def test_low_occupancy_node_is_explored_not_emitted(example_db):
    # b fails the occupancy threshold but its subtree bound passes, so
    # extensions of b are still visited.
    _, trace = _traced(example_db, Thresholds(0.3, 0.3, 0.05))
    traced = {items for items, _ in trace}
    assert ("b",) in traced
    bound = dict(trace)[("b",)]
    assert bound == pytest.approx(0.8911, abs=1e-4)
    assert any(items[0] == "b" and len(items) == 2 for items in traced)


def _counters(stats):
    return dataclasses.replace(stats, elapsed_seconds=0.0)


@pytest.mark.parametrize("strategies", list(PRESETS.values()), ids=list(PRESETS))
def test_on_node_hook_changes_no_counter_and_no_bound_call(bench_db, monkeypatch, strategies):
    import occumine.miner as miner_module

    calls = []

    def counting_bound(plist, min_sup_count):
        calls.append(plist.items)
        return upper_bound(plist, min_sup_count)

    monkeypatch.setattr(miner_module, "upper_bound", counting_bound)
    thresholds = Thresholds(0.05, 0.1, 0.02)
    plain = mine(bench_db, thresholds, strategies)
    plain_calls = list(calls)
    calls.clear()
    visited = []
    hooked = mine(
        bench_db, thresholds, strategies, on_node=lambda plist, summary: visited.append(plist.items)
    )
    assert calls == plain_calls
    assert _counters(hooked.stats) == _counters(plain.stats)
    assert hooked.patterns == plain.patterns
    assert len(visited) == plain.stats.visited_nodes
    if strategies.bound_prune:
        assert plain_calls  # the bound is exercised, so "no extra call" means something


def test_ruo_columns_are_summed_only_in_a_run_that_reads_them(bench_db):
    # s13 never bounds; under full this triple calls the bound twice.
    thresholds = Thresholds(0.05, 0.1, 0.02)
    for strategies, read in ((S13, False), (FULL, True)):
        roots = []
        mine(bench_db, thresholds, strategies, on_node=lambda plist, _: roots.append(plist))
        roots = [plist for plist in roots if plist.rows is None]
        assert roots
        assert all(len(plist.item_ruo) == (plist.support if read else 0) for plist in roots)


PRUNE_COUNTERS = ("pruned_support", "pruned_probability", "pruned_bound", "joins_aborted")


@pytest.mark.parametrize("strategies", list(PRESETS.values()), ids=list(PRESETS))
def test_prune_counters_count_what_the_search_drops(bench_db, monkeypatch, strategies):
    # Counted again from the outside, at the wrapped join and bound, the
    # way a tracer that sees only their arguments and results counts them.
    import occumine.miner as miner_module

    thresholds = Thresholds(0.03, 0.15, 0.005)
    min_sup, min_pro, min_uo = thresholds.cutoffs(len(bench_db))
    seen = Counter()

    def counting_construct(*args, **kwargs):
        joined = construct(*args, **kwargs)
        if joined is None:
            seen["joins_aborted"] += 1
        elif joined[1].support < min_sup:
            seen["pruned_support"] += 1
        elif strategies.probability_prune and joined[1].probability < min_pro:
            seen["pruned_probability"] += 1
        return joined

    def counting_bound(plist, min_sup_count):
        bound = upper_bound(plist, min_sup_count)
        seen["pruned_bound"] += bound < min_uo
        return bound

    monkeypatch.setattr(miner_module, "construct", counting_construct)
    monkeypatch.setattr(miner_module, "upper_bound", counting_bound)
    stats = mine(bench_db, thresholds, strategies).stats
    assert {name: getattr(stats, name) for name in PRUNE_COUNTERS} == {
        name: seen[name] for name in PRUNE_COUNTERS
    }
    assert list(stats.as_dict())[-4:] == list(PRUNE_COUNTERS)
    # Each reason the preset allows is exercised, so the equality means
    # something; a join abort leaves no join below the support minimum.
    assert bool(stats.pruned_support) != strategies.join_abort
    assert bool(stats.pruned_probability) == strategies.probability_prune
    assert bool(stats.pruned_bound) == strategies.bound_prune
    assert bool(stats.joins_aborted) == strategies.join_abort


def test_search_depth_is_not_capped_by_the_recursion_limit():
    # One transaction of more items than the recursion limit allows frames:
    # only the whole transaction reaches beta, so the search walks the
    # chain of its prefixes down to the last item.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = depth + 100
    items = [f"i{k:03d}" for k in range(limit + 1)]
    db = build_database([[(item, 1, 1.0) for item in items]], {item: 1.0 for item in items})
    beta = 1.0 - 0.5 / len(items)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        outcome = mine(db, Thresholds(1.0, beta, 0.0))
    finally:
        sys.setrecursionlimit(old_limit)
    assert len(outcome.patterns) == 1
    record = outcome.patterns[0]
    assert sorted(record.items) == items
    assert record.support == 1
    assert record.probability == 1.0
    assert record.utility_occupancy >= beta - TOL


def test_support_pruned_node_has_no_descendants():
    # y appears in one transaction of three; with min support 2 its
    # subtree must never be expanded.
    db = build_database(
        [
            [("x", 1, 0.9), ("y", 1, 0.9), ("z", 1, 0.9)],
            [("x", 1, 0.9), ("z", 1, 0.9)],
            [("x", 1, 0.9), ("z", 1, 0.9)],
        ],
        {"x": 1.0, "y": 1.0, "z": 1.0},
    )
    outcome, trace = _traced(db, Thresholds(0.6, 0.1, 0.0))
    traced = {items for items, _ in trace}
    assert ("y",) not in traced  # dropped before ordering: support 1 < 2
    assert all("y" not in items for items in traced)
    assert outcome.stats.candidate_joins <= 1  # only x joined with z


def test_probability_pruning_drops_subtree(example_db):
    # Node (a, c) has probability 2.13; with a probability floor of 3 it
    # is never visited under probability pruning but survives without it.
    thresholds = Thresholds(0.3, 0.05, 0.3)
    _, with_pruning = _traced(example_db, thresholds, FULL)
    _, without = _traced(example_db, thresholds, S12)
    assert ("a", "c") not in {items for items, _ in with_pruning}
    assert ("a", "c") in {items for items, _ in without}
    # result sets agree regardless
    assert mine(example_db, thresholds, FULL).patterns == mine(
        example_db, thresholds, S12
    ).patterns


def test_strategy_presets():
    assert PRESETS["full"] == FULL
    assert FULL.bound_prune
    assert FULL.probability_prune and FULL.join_abort
    assert S12 == PRESETS["s12"]
    assert (S12.bound_prune, S12.probability_prune, S12.join_abort) == (True, False, False)
    assert (S13.bound_prune, S13.probability_prune, S13.join_abort) == (False, True, False)
    assert (S1.bound_prune, S1.probability_prune, S1.join_abort) == (False, False, False)


def test_mine_rejects_invalid_database(example_db):
    t1 = example_db.transactions[0]
    tampered = (
        Transaction(t1.items, t1.quantities, t1.probabilities, 64.0),
    ) + example_db.transactions[1:]
    db = type(example_db)(tampered, example_db.unit_utilities)
    with pytest.raises(DatabaseValidationError):
        mine(db, Thresholds(0.5, 0.5, 0.5))


def test_mine_does_not_check_a_parsed_database(example_db, monkeypatch):
    import occumine.miner as miner_module

    def refuse(db):
        raise AssertionError("validate_database called on a parsed database")

    monkeypatch.setattr(miner_module, "validate_database", refuse)
    db = parse_database(*write_database(example_db))
    assert mine(db, Thresholds(0.3, 0.3, 0.05)).patterns == mine(
        example_db, Thresholds(0.3, 0.3, 0.05)
    ).patterns


def _counting_validator(monkeypatch):
    import occumine.miner as miner_module

    calls = []

    def counting(db):
        calls.append(db)
        return validate_database(db)

    monkeypatch.setattr(miner_module, "validate_database", counting)
    return calls


def test_mine_rejects_a_tampered_database_every_time(example_db, monkeypatch):
    calls = _counting_validator(monkeypatch)
    t1 = example_db.transactions[0]
    tampered = (
        Transaction(t1.items, t1.quantities, t1.probabilities, 64.0),
    ) + example_db.transactions[1:]
    db = type(example_db)(tampered, example_db.unit_utilities)
    for _ in range(2):
        with pytest.raises(DatabaseValidationError, match="64.0"):
            mine(db, Thresholds(0.5, 0.5, 0.5))
    assert len(calls) == 1
    assert [v.tid for v in db.verdict] == [1]


def test_mine_checks_a_built_database_once(monkeypatch):
    calls = _counting_validator(monkeypatch)
    db = build_database([[("a", 1, 0.5), ("b", 2, 0.5)], [("a", 2, 1.0)]], {"a": 1.0, "b": 2.0})
    first = mine(db, Thresholds(0.5, 0.1, 0.0))
    second = mine(db, Thresholds(0.5, 0.1, 0.0), S1)
    assert first.patterns == second.patterns
    assert len(calls) == 1
    assert db.verdict == ()


def test_mine_empty_database():
    outcome = mine(build_database([], {}), Thresholds(0.5, 0.5, 0.5))
    assert outcome.patterns == ()
    assert outcome.stats.visited_nodes == 0


def _small_db(seed):
    return generate(
        GeneratorConfig(
            seed=seed,
            num_transactions=10 + seed % 21,
            num_items=10,
            avg_transaction_length=3.5,
            max_quantity=4,
            max_unit_utility=10,
            prob_min=0.1,
            prob_max=1.0,
        )
    )


TRIPLES = [(0.2, 0.2, 0.1), (0.3, 0.3, 0.05), (0.45, 0.25, 0.2), (0.1, 0.5, 0.0)]


@pytest.mark.parametrize("seed", range(25))
def test_mine_matches_oracle(seed):
    db = _small_db(seed)
    for triple in TRIPLES:
        thresholds = Thresholds(*triple)
        expected = _records_by_pattern(
            oracle_mine(db, thresholds, max_len=len(db.item_universe))
        )
        for strategies in PRESETS.values():
            got = _records_by_pattern(mine(db, thresholds, strategies).patterns)
            assert got.keys() == expected.keys()
            for pattern, record in got.items():
                reference = expected[pattern]
                assert record.support == reference.support
                assert record.probability == pytest.approx(
                    reference.probability, abs=1e-6
                )
                assert record.utility_occupancy == pytest.approx(
                    reference.utility_occupancy, abs=1e-6
                )


def test_underflowing_probabilities_match_oracle():
    # Every 3-item product of these probabilities underflows to 0.0.
    row = [(item, 1, 1e-120) for item in "abcde"]
    db = build_database([row] * 3, dict.fromkeys("abcde", 1.0))
    thresholds = Thresholds(0.5, 0.1, 0.0)
    expected = oracle_mine(db, thresholds, max_len=5)
    assert len(expected) == 31
    for strategies in PRESETS.values():
        got = mine(db, thresholds, strategies).patterns
        assert [(r.items, r.support) for r in got] == [
            (r.items, r.support) for r in expected
        ]
        for record, reference in zip(got, expected):
            assert record.probability == pytest.approx(reference.probability, abs=1e-6)
            assert record.utility_occupancy == pytest.approx(
                reference.utility_occupancy, abs=1e-6
            )


@pytest.mark.parametrize("field", ["gamma", "beta"])
def test_a_measure_on_its_cutoff_is_reported_by_miner_and_oracle(field):
    # In the one transaction, {a} has probability 0.25 and occupancy
    # 1 / (1 + 3) = 0.25, both computed exactly by the miner and the oracle.
    db = build_database([[("a", 1, 0.25), ("b", 1, 1.0)]], {"a": 1.0, "b": 3.0})
    position = {"gamma": 1, "beta": 2}[field]

    def at(value):
        return dataclasses.replace(Thresholds(1.0, 0.01, 0.0), **{field: value})

    def cutoff(value):
        return at(value).cutoffs(len(db))[position]

    boundary = [0.250000001]
    assert cutoff(boundary[0]) == 0.25
    while cutoff(math.nextafter(boundary[-1], 1.0)) == 0.25:
        boundary.append(math.nextafter(boundary[-1], 1.0))
    above = math.nextafter(boundary[-1], 1.0)
    assert cutoff(above) > 0.25
    for threshold in [*boundary, above]:
        thresholds = at(threshold)
        expected = threshold in boundary
        assert (frozenset("a") in {r.pattern for r in oracle_mine(db, thresholds, 2)}) == expected
        for strategies in PRESETS.values():
            patterns = {r.pattern for r in mine(db, thresholds, strategies).patterns}
            assert (frozenset("a") in patterns) == expected


@pytest.mark.parametrize("seed", range(12))
def test_pruning_monotonicity(seed):
    db = _small_db(seed)
    for triple in TRIPLES:
        thresholds = Thresholds(*triple)
        visited = {
            name: mine(db, thresholds, strategies).stats.visited_nodes
            for name, strategies in PRESETS.items()
        }
        assert visited["full"] <= visited["s12"]
        assert visited["full"] <= visited["s13"] <= visited["s1"]


@pytest.mark.parametrize("seed", range(8))
def test_threshold_monotonicity(seed):
    db = _small_db(seed)
    base = Thresholds(0.2, 0.2, 0.1)
    base_count = len(mine(db, base).patterns)
    for raised in (
        Thresholds(0.4, base.beta, base.gamma),
        Thresholds(base.alpha, 0.4, base.gamma),
        Thresholds(base.alpha, base.beta, 0.3),
    ):
        assert len(mine(db, raised).patterns) <= base_count


def test_determinism(example_db):
    thresholds = Thresholds(0.3, 0.3, 0.05)
    first = mine(example_db, thresholds)
    second = mine(example_db, thresholds)
    assert first.patterns == second.patterns
    assert first.stats.visited_nodes == second.stats.visited_nodes
    assert first.stats.candidate_joins == second.stats.candidate_joins


def test_gamma_zero_matches_certain_semantics():
    db = generate(
        GeneratorConfig(
            seed=3,
            num_transactions=40,
            num_items=8,
            avg_transaction_length=3.0,
            max_quantity=3,
            max_unit_utility=8,
            prob_min=1.0,
            prob_max=1.0,
        )
    )
    zero = mine(db, Thresholds(0.2, 0.2, 0.0)).patterns
    # with every probability 1, any gamma at or below alpha is vacuous
    assert zero == mine(db, Thresholds(0.2, 0.2, 0.2)).patterns
    assert zero == mine(db, Thresholds(0.2, 0.2, 0.1)).patterns
    assert len(zero) > 0


def _exact(outcome):
    """Records with their floats as hex, and every counter but the wall time."""
    records = [
        (r.items, r.support, r.probability.hex(), r.utility_occupancy.hex())
        for r in outcome.patterns
    ]
    counters = {k: v for k, v in outcome.stats.as_dict().items() if k != "elapsed_ms"}
    return records, counters


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_mining_a_subset_equals_mining_its_lines(preset):
    # A sub-database numbers its transactions by position, as the parser
    # numbers the lines it keeps.
    db = generate(
        GeneratorConfig(seed=5, num_transactions=150, num_items=10, avg_transaction_length=4.0)
    )
    data_text, utility_text = write_database(db)
    lines = data_text.splitlines()
    positions = [p for p in range(len(db)) if p % 3 != 1]
    sub = dataclasses.replace(db, transactions=tuple(db.transactions[p] for p in positions))
    parsed = parse_database("\n".join(lines[p] for p in positions), utility_text)
    thresholds = Thresholds(0.1, 0.2, 0.02)
    got = _exact(mine(sub, thresholds, PRESETS[preset]))
    assert got[0]
    assert got == _exact(mine(parsed, thresholds, PRESETS[preset]))
