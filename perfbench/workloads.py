"""The benchmark's workloads, their seeded inputs and the correctness gate.

Every workload is a ``GeneratorConfig`` plus thresholds and a strategy
preset.  Inputs are generated from the seed through the package's own
``generate``/``save_database`` and cached under ``.perfbench_cache/`` at
the checkout root, keyed by the whole config, so a later run with the same
seed reads the same bytes.  Generation time is never part of a metric.

Correctness has two independent parts:

* itemsets and supports must match ``reference.json``, recorded once from
  the code at commit 43d5a9c and never regenerated from the code under
  test;
* every emitted pattern's support, probability and utility occupancy must
  match a recomputation through ``occumine.measures``, which does not use
  the miner's list code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Fallback when ``occumine.model.TOL`` is renamed away.
DEFAULT_TOL = 1e-9
#: Text output prints probability and occupancy with four decimals.
PRINTED_HALF_ULP = 0.5e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_transactions: int
    num_items: int
    avg_length: float
    alpha: float
    beta: float
    gamma: float
    preset: str
    max_quantity: int = 5
    max_unit_utility: int = 30
    prob_min: float = 0.3
    prob_max: float = 0.95

    def cache_key(self, seed: int) -> str:
        return (
            f"n{self.num_transactions}-i{self.num_items}-l{self.avg_length:g}"
            f"-q{self.max_quantity}-u{self.max_unit_utility}"
            f"-p{self.prob_min:g}-{self.prob_max:g}-s{seed}"
        )

    def cli_args(self, data: Path, utility: Path) -> list[str]:
        return [
            "mine", "--data", str(data), "--utility", str(utility),
            "--alpha", repr(self.alpha), "--beta", repr(self.beta),
            "--gamma", repr(self.gamma), "--strategies", self.preset,
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bench10k-full",
            "acceptance bench DB; search dominates: joins with early abort and the occupancy bound",
            10_000, 200, 8, 0.05, 0.1, 0.02, "full",
        ),
        Workload(
            "wide100k-full",
            "10x DB, 12 MB of text; parse, build and whole-DB passes dominate, search makes 22 joins",
            100_000, 1_000, 8, 0.15, 0.1, 0.005, "full",
        ),
        # A lattice so dense that every itemset is frequent: its shape, and
        # so the search cost, does not change with the seed, unlike a
        # lattice cut by the support threshold, whose size spreads ~20%
        # between seeds at depth 5.
        Workload(
            "dense-s1",
            "10-item DB under support pruning only: the whole 1023-node lattice, every join completes, deep prefix joins, no bound",
            4_000, 10, 8, 0.1, 0.3, 0.05, "s1",
        ),
    )
}


def ensure_inputs(occumine, workload: Workload, seed: int) -> tuple[Path, Path]:
    """Return the data and utility paths for this seed, generating on a miss."""
    folder = CACHE / workload.cache_key(seed)
    data, utility = folder / "data.txt", folder / "utility.txt"
    if data.is_file() and utility.is_file():
        return data, utility
    folder.mkdir(parents=True, exist_ok=True)
    db = occumine.generate(
        occumine.GeneratorConfig(
            seed=seed,
            num_transactions=workload.num_transactions,
            num_items=workload.num_items,
            avg_transaction_length=workload.avg_length,
            max_quantity=workload.max_quantity,
            max_unit_utility=workload.max_unit_utility,
            prob_min=workload.prob_min,
            prob_max=workload.prob_max,
        )
    )
    # Written under temporary names and renamed, utility last, so an
    # interrupted run never leaves a pair that looks complete.
    tmp_data, tmp_utility = folder / f"data.{os.getpid()}", folder / f"utility.{os.getpid()}"
    occumine.save_database(db, tmp_data, tmp_utility)
    os.replace(tmp_data, data)
    os.replace(tmp_utility, utility)
    return data, utility


def input_digest(data: Path, utility: Path) -> str:
    h = hashlib.sha256(data.read_bytes())
    h.update(b"\0")
    h.update(utility.read_bytes())
    return h.hexdigest()


def pattern_digest(rows) -> str:
    """Digest of the (itemset, support) pairs, independent of item order."""
    lines = sorted(f"{' '.join(sorted(items))}\t{support}" for items, support, *_ in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_reference(workload: str, seed: int) -> dict | None:
    table = json.loads(REFERENCE.read_text())["workloads"]
    return table.get(workload, {}).get(str(seed))


def library_rows(outcome) -> tuple:
    return tuple(
        (r.items, r.support, r.probability, r.utility_occupancy) for r in outcome.patterns
    )


def parse_text_output(text: str) -> tuple:
    """Rows from ``occumine mine --format text``:
    ``items... #SUP: n #PRO: x #UO: y``."""
    rows = []
    for line in text.splitlines():
        head, _, rest = line.partition(" #SUP: ")
        support, _, rest = rest.partition(" #PRO: ")
        prob, _, uo = rest.partition(" #UO: ")
        rows.append((tuple(head.split()), int(support), float(prob), float(uo)))
    return tuple(rows)


class Verifier:
    """Checks outputs against the recorded reference and ``occumine.measures``.

    Verdicts are memoised by the exact output, so repeated identical
    outputs cost one check.  ``prime`` recomputes the measures of a set of
    patterns while the database is loaded; afterwards outputs can be
    checked with the database released.  To keep that affordable, each
    pattern's measures are computed over the transactions that hold all of
    its items, found through an item -> positions index built here from
    the raw transactions; the measures still test containment themselves.
    """

    def __init__(self, occumine, workload: Workload, seed: int, data: Path, utility: Path):
        self.measures = occumine.measures
        self.tol = getattr(getattr(occumine, "model", None), "TOL", DEFAULT_TOL)
        self.reference = load_reference(workload.name, seed)
        self.notes: list[str] = []
        self.input_problems: list[str] = []
        if self.reference is None:
            self.notes.append(
                f"no recorded reference for {workload.name} seed {seed}: "
                "itemsets and supports are checked against occumine.measures only"
            )
        elif self.reference["input_sha256"] != input_digest(data, utility):
            self.input_problems.append("generated input differs from the recorded reference input")
        self.truth: dict[frozenset, tuple[int, float, float]] = {}
        self._verdicts: dict[tuple, list[str]] = {}
        self._positions: dict[str, set[int]] | None = None

    def _holding(self, db, pattern: frozenset):
        """The sub-database of transactions that hold every item of ``pattern``."""
        if self._positions is None:
            self._positions = {}
            for position, t in enumerate(db.transactions):
                for occ in t.occurrences:
                    self._positions.setdefault(occ.item, set()).add(position)
        common = set.intersection(*(self._positions.get(item, set()) for item in pattern))
        return dataclasses.replace(
            db, transactions=tuple(db.transactions[p] for p in sorted(common))
        )

    def prime(self, db, rows) -> None:
        m = self.measures
        for items, *_ in rows:
            key = frozenset(items)
            if key in self.truth:
                continue
            sub = self._holding(db, key)
            self.truth[key] = (
                m.support_count(key, sub),
                m.probability(key, sub),
                m.utility_occupancy(key, sub) if len(sub) else float("nan"),
            )

    def check(self, rows, printed: bool) -> list[str]:
        """Problems found in one output; empty when it is correct."""
        key = (rows, printed)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(rows, printed)
        return self._verdicts[key]

    def _check(self, rows, printed: bool) -> list[str]:
        problems = list(self.input_problems)
        if self.reference is not None:
            if len(rows) != self.reference["patterns"]:
                problems.append(
                    f"{len(rows)} patterns, reference has {self.reference['patterns']}"
                )
            elif pattern_digest(rows) != self.reference["digest"]:
                problems.append("itemsets or supports differ from the reference")
        slack = PRINTED_HALF_ULP if printed else 0.0
        for items, support, prob, uo in rows:
            truth = self.truth.get(frozenset(items))
            if truth is None:
                problems.append(f"pattern {' '.join(items)} was not recomputed")
                continue
            sup_t, prob_t, uo_t = truth
            if support != sup_t:
                problems.append(f"{' '.join(items)}: support {support} != {sup_t}")
            for name, got, want in (("probability", prob, prob_t), ("occupancy", uo, uo_t)):
                if not abs(got - want) <= slack + self.tol * max(1.0, abs(want)):
                    problems.append(f"{' '.join(items)}: {name} {got!r} != {want!r}")
        return problems
