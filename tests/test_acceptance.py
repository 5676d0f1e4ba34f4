"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.
"""

import time
from pathlib import Path

import pytest

from occumine import (
    FULL,
    PRESETS,
    GeneratorConfig,
    Thresholds,
    generate,
    load_database,
    mine,
    oracle_measures,
    parse_database,
    total_order,
    upper_bound,
    write_database,
)
from occumine.cli import main
from occumine.lists import build_single_item_lists
from occumine.measures import oracle_filter

from conftest import EXAMPLE_TRANSACTIONS, EXAMPLE_UTILITIES


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# --- shared corpora ---------------------------------------------------------

CORPUS_TRIPLES = [
    (0.2, 0.2, 0.1),
    (0.3, 0.3, 0.05),
    (0.45, 0.25, 0.2),
    (0.1, 0.5, 0.0),
    (0.5, 0.15, 0.3),
]


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random databases: <=12 items, <=30 transactions, p in [0.1, 1]."""
    databases = []
    for seed in range(200):
        config = GeneratorConfig(
            seed=seed,
            num_transactions=10 + seed % 21,
            num_items=12,
            avg_transaction_length=4.0,
            max_quantity=4,
            max_unit_utility=12,
            prob_min=0.1,
            prob_max=1.0,
        )
        databases.append(generate(config))
    return databases


@pytest.fixture(scope="module")
def corpus_measures(corpus):
    """The oracle's measures of every itemset of each corpus database."""
    return [oracle_measures(db, len(db.item_universe)) for db in corpus]


# --- criteria ---------------------------------------------------------------


def test_criterion_1_golden_example():
    started = time.perf_counter()
    db = load_database(EXAMPLE_TRANSACTIONS, EXAMPLE_UTILITIES)
    checks = []

    checks.append([t.tu for t in db.transactions] == [65, 37, 38, 11, 49, 58, 23, 61, 59, 42])

    counts = {
        item: sum(1 for t in db.transactions if item in t.items)
        for item in db.item_universe
    }
    checks.append(counts == {"a": 5, "b": 5, "c": 8, "d": 7, "e": 4})

    order = total_order(db)
    checks.append(order.items == ("e", "a", "b", "d", "c"))

    singles = build_single_item_lists(db, order.items)
    e_list = singles["e"][0]
    checks.append(e_list.tids[0] == 5)
    checks.append(abs(e_list.pro[0] - 0.8) < 1e-4)
    checks.append(abs(e_list.uo[0] - 0.1837) < 1e-4)
    checks.append(abs(e_list.ruo[0] - 0.8163) < 1e-4)

    b_list, b_summary = singles["b"]
    checks.append(b_summary.support == 5)
    checks.append(abs(b_summary.probability - 3.3) < 1e-9)
    checks.append(abs(b_summary.occupancy - 0.2192) < 1e-4)
    checks.append(abs(sum(b_list.ruo) / len(b_list.ruo) - 0.4181) < 1e-4)

    measures = oracle_measures(db, 2)
    checks.append(abs(measures[frozenset("c")][2] - 0.6468) < 1e-4)
    checks.append(abs(measures[frozenset("c")][1] - 5.4) < 1e-9)
    checks.append(abs(measures[frozenset("ca")][1] - 2.13) < 1e-9)
    checks.append(abs(measures[frozenset("bc")][1] - 1.45) < 1e-9)

    elapsed = time.perf_counter() - started
    checks.append(elapsed < 1.0)
    _report(1, "golden example", all(checks))


def test_criterion_2_oracle_equivalence(corpus, corpus_measures):
    started = time.perf_counter()
    mismatches = 0
    for db, measures in zip(corpus, corpus_measures):
        for triple in CORPUS_TRIPLES:
            thresholds = Thresholds(*triple)
            expected = oracle_filter(db, thresholds, measures)
            for strategies in PRESETS.values():
                mismatches += mine(db, thresholds, strategies).patterns != expected
    elapsed = time.perf_counter() - started
    _report(2, "oracle equivalence", mismatches == 0 and elapsed < 300.0)


def test_criterion_3_bound_dominance(corpus, corpus_measures):
    violations = 0
    for db, measures in zip(corpus[:50], corpus_measures):
        n = len(db)
        for triple in CORPUS_TRIPLES:
            thresholds = Thresholds(*triple)
            min_sup = thresholds.min_support(n)
            trace = []
            mine(
                db,
                thresholds,
                FULL,
                on_node=lambda plist, _: trace.append((plist.items, upper_bound(plist, min_sup))),
            )
            promising = sorted({items[0] for items, _ in trace if len(items) == 1})
            if not promising:
                continue
            order = total_order(db, promising)
            # A node bounds a pattern when the pattern adds to it only items
            # ranked after its last: exactly when the node, in rank order,
            # is a proper prefix of the pattern in rank order.
            by_prefix = {}
            for pattern, (support, _, occupancy) in measures.items():
                if support >= min_sup and pattern <= set(promising):
                    ranked = order.sort_pattern(pattern)
                    for k in range(1, len(ranked)):
                        by_prefix.setdefault(ranked[:k], []).append(occupancy)
            for items, bound in trace:
                for occupancy in by_prefix.get(order.sort_pattern(items), ()):
                    if occupancy > bound + 1e-9:
                        violations += 1
    _report(3, "occupancy bound dominance", violations == 0)


def test_criterion_4_anti_monotonicity(corpus_measures):
    violations = 0
    for measures in corpus_measures:
        for pattern, (support, pro, _) in measures.items():
            if not 2 <= len(pattern) <= 6:
                continue
            for item in pattern:
                parent = measures.get(pattern - {item})
                if parent is None:
                    violations += 1  # a superset occurred where a subset did not
                    continue
                if support > parent[0] or pro > parent[1] + 1e-9:
                    violations += 1
    _report(4, "support/probability anti-monotonicity", violations == 0)


ALPHA_SWEEP = (0.05, 0.08, 0.11, 0.14, 0.17)
SWEEP_BETA = 0.1
SWEEP_GAMMA = 0.02


def test_criterion_5_pruning_effectiveness(bench_db):
    ok = len(bench_db) >= 10_000 and len(bench_db.item_universe) >= 200
    for alpha in ALPHA_SWEEP:
        thresholds = Thresholds(alpha, SWEEP_BETA, SWEEP_GAMMA)
        outcomes = {
            name: mine(bench_db, thresholds, strategies)
            for name, strategies in PRESETS.items()
        }
        visited = {name: o.stats.visited_nodes for name, o in outcomes.items()}
        counts = {name: o.stats.patterns_found for name, o in outcomes.items()}
        ok = ok and visited["full"] <= visited["s12"]
        ok = ok and visited["full"] <= visited["s13"] <= visited["s1"]
        ok = ok and len(set(counts.values())) == 1
    _report(5, "pruning effectiveness", ok)


def test_criterion_6_threshold_monotonicity(bench_db):
    ok = any(
        occ.probability < 1.0 for t in bench_db.transactions for occ in t.occurrences
    )

    alpha_counts = [
        len(mine(bench_db, Thresholds(a, SWEEP_BETA, SWEEP_GAMMA)).patterns)
        for a in ALPHA_SWEEP
    ]
    beta_counts = [
        len(mine(bench_db, Thresholds(0.05, b, SWEEP_GAMMA)).patterns)
        for b in (0.05, 0.1, 0.15, 0.2, 0.3)
    ]
    gamma_counts = [
        len(mine(bench_db, Thresholds(0.05, SWEEP_BETA, g)).patterns)
        for g in (0.0, 0.02, 0.05, 0.1, 0.2)
    ]
    for counts in (alpha_counts, beta_counts, gamma_counts):
        ok = ok and all(a >= b for a, b in zip(counts, counts[1:]))
    # raising gamma off zero must bite somewhere on an uncertain database
    ok = ok and gamma_counts[0] > 0 and min(gamma_counts[1:]) < gamma_counts[0]
    _report(6, "threshold monotonicity", ok)


def test_criterion_7_gamma_zero_reduction():
    db = generate(
        GeneratorConfig(
            seed=11,
            num_transactions=2000,
            num_items=40,
            avg_transaction_length=5.0,
            max_quantity=4,
            max_unit_utility=15,
            prob_min=1.0,
            prob_max=1.0,
        )
    )
    baseline = mine(db, Thresholds(0.05, 0.15, 0.0)).patterns
    ok = len(baseline) > 0
    for gamma in (0.02, 0.05):  # any gamma at or below alpha is vacuous here
        ok = ok and mine(db, Thresholds(0.05, 0.15, gamma)).patterns == baseline
    _report(7, "certain-database reduction", ok)


def test_criterion_8_roundtrip_and_determinism(corpus, tmp_path):
    ok = True
    for db in corpus[:50]:
        data_text, utility_text = write_database(db)
        ok = ok and parse_database(data_text, utility_text) == db

    outputs = []
    for name in ("first.txt", "second.txt"):
        path = tmp_path / name
        code = main(
            [
                "mine",
                "--data", str(EXAMPLE_TRANSACTIONS),
                "--utility", str(EXAMPLE_UTILITIES),
                "--alpha", "0.3", "--beta", "0.3", "--gamma", "0.05",
                "--output", str(path),
            ]
        )
        ok = ok and code == 0
        outputs.append(Path(path).read_bytes())
    ok = ok and outputs[0] == outputs[1]
    _report(8, "round-trip and determinism", ok)
