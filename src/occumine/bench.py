"""Benchmark harness: threshold/strategy sweep matrices emitted as CSV.

A plan sweeps exactly one of the three thresholds while the other two
stay fixed, across one or more datasets, strategy presets, and
repetitions.  Each dataset is parsed once, and ``runtime_ms`` is the
search time ``mine`` records in its stats, which excludes validation
(a parsed database is never validated again: the parser recorded its
verdict).  Neither parsing nor validation skews preset comparisons.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator, Mapping

from .dataio import load_database
from .errors import PlanError
from .miner import PRESETS, mine
from .model import Thresholds

CSV_COLUMNS = [
    "dataset",
    "alpha",
    "beta",
    "gamma",
    "strategy",
    "rep",
    "runtime_ms",
    "visited_nodes",
    "constructed_lists",
    "patterns",
]


@dataclass(frozen=True)
class BenchPlan:
    """One sweep: datasets x sweep points x presets x repetitions."""

    datasets: tuple[tuple[str, str], ...]
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    presets: tuple[str, ...]
    repetitions: int = 1

    def __post_init__(self) -> None:
        if not self.datasets:
            raise PlanError("plan needs at least one dataset (data + utility path)")
        if not (self.alphas and self.betas and self.gammas):
            raise PlanError("plan needs at least one value for each threshold")
        varying = sum(len(values) > 1 for values in (self.alphas, self.betas, self.gammas))
        if varying > 1:
            raise PlanError(
                "at most one of alphas/betas/gammas may vary; fix the other two"
            )
        if not self.presets:
            raise PlanError("plan needs at least one strategy preset")
        for preset in self.presets:
            if preset not in PRESETS:
                raise PlanError(
                    f"unknown strategy preset {preset!r} (choose from {sorted(PRESETS)})"
                )
        if self.repetitions < 1:
            raise PlanError("repetitions must be >= 1")
        for point in self.sweep_points():
            try:
                Thresholds(*point)
            except ValueError as exc:
                raise PlanError(f"bad sweep point {point}: {exc}") from None

    def sweep_points(self) -> Iterator[tuple[float, float, float]]:
        for alpha in self.alphas:
            for beta in self.betas:
                for gamma in self.gammas:
                    yield alpha, beta, gamma


#: The keys of a plan; ``occumine bench`` takes the same ones as flags.
PLAN_KEYS = ("data", "utility", "alphas", "betas", "gammas", "strategies", "repetitions")


def _split(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def plan_from_values(values: Mapping[str, str]) -> BenchPlan:
    """Build a plan from the raw text value of each key of :func:`parse_plan`;
    every key but ``strategies`` and ``repetitions`` is required."""
    missing = [key for key in PLAN_KEYS[:5] if key not in values]
    if missing:
        raise PlanError(f"plan is missing keys: {missing}")

    def numbers(key: str) -> tuple[float, ...]:
        try:
            return tuple(map(float, _split(values[key])))
        except ValueError as exc:
            raise PlanError(f"bad number list for {key}: {exc}") from None

    data_paths, utility_paths = _split(values["data"]), _split(values["utility"])
    if len(data_paths) != len(utility_paths):
        raise PlanError("data and utility path lists must have the same length")
    try:
        repetitions = int(values.get("repetitions", "1"))
    except ValueError:
        raise PlanError(f"bad repetitions {values['repetitions']!r}") from None
    return BenchPlan(
        datasets=tuple(zip(data_paths, utility_paths)),
        alphas=numbers("alphas"),
        betas=numbers("betas"),
        gammas=numbers("gammas"),
        presets=tuple(_split(values.get("strategies", "full"))),
        repetitions=repetitions,
    )


def parse_plan(text: str) -> BenchPlan:
    """Parse the key=value plan format.

    Keys: data, utility (comma-separated path lists of equal length),
    alphas, betas, gammas (comma-separated numbers), strategies
    (comma-separated preset names, default ``full``), repetitions
    (default 1).  ``#`` starts a comment.  A key that is unknown or given
    twice is an error naming its line.
    """
    values: dict[str, str] = {}
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PlanError(f"line {number}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise PlanError(f"line {number}: key {key!r} is given twice")
        if key not in PLAN_KEYS:
            raise PlanError(f"line {number}: unknown key {key!r} (known: {', '.join(PLAN_KEYS)})")
        values[key] = value.strip()
    return plan_from_values(values)


def run_plan(plan: BenchPlan) -> list[dict[str, object]]:
    """Execute the plan sequentially and return one row dict per run."""
    rows: list[dict[str, object]] = []
    for data_path, utility_path in plan.datasets:
        db = load_database(data_path, utility_path)
        for alpha, beta, gamma in plan.sweep_points():
            thresholds = Thresholds(alpha, beta, gamma)
            for preset in plan.presets:
                for rep in range(1, plan.repetitions + 1):
                    outcome = mine(db, thresholds, PRESETS[preset])
                    rows.append(
                        {
                            "dataset": data_path,
                            "alpha": alpha,
                            "beta": beta,
                            "gamma": gamma,
                            "strategy": preset,
                            "rep": rep,
                            "runtime_ms": f"{outcome.stats.elapsed_seconds * 1000.0:.3f}",
                            "visited_nodes": outcome.stats.visited_nodes,
                            "constructed_lists": outcome.stats.constructed_lists,
                            "patterns": outcome.stats.patterns_found,
                        }
                    )
    return rows


def rows_to_csv(rows: list[dict[str, object]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
