"""Benchmark of ``occumine mine``: end to end, set-up/mine split, traced layers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bench10k-full --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* ``setup_s``: in-process ``occumine.load_database`` (files to database);
* ``mine_s``: in-process ``occumine.mine`` on the loaded database;
* ``e2e_s``/``e2e_tail_s``/``peak_rss_mib``: one ``occumine mine`` child
  process per sample, waited for with ``os.wait4`` to read its own
  ``ru_maxrss``.

``--trace 1`` runs ``occumine.cli.main`` in process with the module-level
names that ``cli``, ``dataio`` and ``miner`` call wrapped (see
``spans.py``) and reports per-layer self times and counts, plus
``cli.startup_s`` from child processes that only import ``occumine.cli``.

Each timed loop runs a minimum number of times and then until its share
of ``--seconds`` is used; times are medians.  Untraced samples are taken in
rounds of one load, one ``mine`` and one child, so that each metric's
samples spread over the whole run.  Each untraced sample is scaled by
``PROBE_REF_S`` over the mean of the ``probe()`` times just before and
after it, and the process is pinned to one CPU, so that a shared machine's
speed drift mostly cancels; the raw times are kept in the report line.
Per-layer times are not scaled.  Every output is checked (see
``workloads.Verifier``); a nonzero exit or a failed check counts as
failed.  Human-readable lines and a ``report {...}`` line come first; the
last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import Tracer
from workloads import (
    CACHE,
    DEFAULT_TOL,
    ROOT,
    WORKLOADS,
    Verifier,
    ensure_inputs,
    library_rows,
    parse_text_output,
)

SRC = ROOT / "src"
#: A CLI child still running after this many seconds is killed and failed.
CHILD_TIMEOUT_S = 120.0
#: Untraced times are scaled to a machine on which ``probe()`` takes this long.
PROBE_REF_S = 0.01
#: Untraced rounds (load, mine, CLI child) run at least this often, and on
#: until ``--seconds`` have passed; at least ``E2E_MIN`` of them run a child.
ROUNDS_MIN, E2E_MIN = 3, 2
#: Traced pairs (baseline, traced) and ``cli.startup_s`` children: minimum
#: counts and their shares of ``--seconds``.
TRACED_SHARE, TRACED_MIN = 0.8, 3
STARTUP_SHARE, STARTUP_MIN = 0.1, 5

END_TO_END_UNITS = {
    "e2e_s": "s", "e2e_tail_s": "s", "setup_s": "s", "mine_s": "s", "peak_rss_mib": "MiB",
}


class Tally:
    """Attempted and failed runs, with the first few reasons for failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                if problem not in self.problems and len(self.problems) < 10:
                    self.problems.append(problem)
        return not problems


def repeat(fn, minimum: int, budget_s: float) -> list:
    """Call ``fn`` at least ``minimum`` times and until ``budget_s`` has passed;
    return the results that are not None."""
    results = []
    calls = 0
    started = time.perf_counter()
    while calls < minimum or time.perf_counter() - started < budget_s:
        calls += 1
        result = fn()
        if result is not None:
            results.append(result)
    return results


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is reported instead, and the label says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    return ordered[-1], f"max of {n} (fewer than 11 samples)"


def probe() -> float:
    """The machine's current speed: median of five runs of a fixed
    pure-Python loop, in seconds."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run_child(argv: list[str], stdout_path: Path) -> tuple[int, float, float, str]:
    """Run one child process; return (exit code, wall s, ru_maxrss MiB, stderr)."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace").strip()
    err_path.unlink()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr


def output_problems(verifier: Verifier, path: Path) -> list[str]:
    try:
        rows = parse_text_output(path.read_text())
    except ValueError as exc:
        return [f"unreadable CLI output: {exc}"]
    return verifier.check(rows, printed=True)


def run_untraced(occumine, workload, data, utility, seconds, verifier, tally, report):
    """Rounds of one load, one ``mine`` on it and one CLI child.

    The machine's speed drifts over seconds, so interleaving spreads each
    metric's samples over the whole run instead of one stretch of it.
    """
    thresholds = occumine.Thresholds(workload.alpha, workload.beta, workload.gamma)
    preset = occumine.PRESETS[workload.preset]
    out = CACHE / f"out-{os.getpid()}.txt"
    argv = ["-m", "occumine.cli", *workload.cli_args(data, utility)]
    setup, mine, walls, peaks = [], [], [], []
    raw = {"setup_s": [], "mine_s": [], "e2e_s": []}
    started_run = time.perf_counter()

    def scaled(elapsed, before):
        """A sample scaled by the probe times around it."""
        return elapsed * PROBE_REF_S / ((before + probe()) / 2)

    def round_once():
        gc.collect()
        before = probe()
        started = time.perf_counter()
        db = occumine.load_database(data, utility)
        elapsed = time.perf_counter() - started
        setup.append(scaled(elapsed, before))
        raw["setup_s"].append(elapsed)

        gc.collect()
        before = probe()
        started = time.perf_counter()
        try:
            outcome = occumine.mine(db, thresholds, preset)
        except Exception as exc:  # a crash of the code under test is a failed run
            tally.record([f"mine raised {exc!r}"])
        else:
            elapsed = time.perf_counter() - started
            sample = scaled(elapsed, before)
            rows = library_rows(outcome)
            verifier.prime(db, rows)
            if tally.record(verifier.check(rows, printed=False)):
                mine.append(sample)
                raw["mine_s"].append(elapsed)
        db = outcome = None
        gc.collect()

        # Past --seconds, rounds that only complete the set-up and mine
        # minimum skip the child, the most expensive sample.
        if len(walls) >= E2E_MIN and time.perf_counter() - started_run >= seconds:
            return
        before = probe()
        code, wall, peak, stderr = run_child(argv, out)
        sample = scaled(wall, before)
        problems = [f"occumine mine exited {code}: {stderr[-300:]}"] if code else []
        if tally.record(problems or output_problems(verifier, out)):
            walls.append(sample)
            raw["e2e_s"].append(wall)
            peaks.append(peak)

    try:
        repeat(round_once, ROUNDS_MIN, seconds)
    finally:
        out.unlink(missing_ok=True)

    metrics = {}
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if mine:
        metrics["mine_s"] = statistics.median(mine)
    if walls:
        metrics["e2e_s"] = statistics.median(walls)
        metrics["e2e_tail_s"], report["e2e_tail"] = tail(walls)
        metrics["peak_rss_mib"] = statistics.median(peaks)
    report["samples"] = {"setup_s": setup, "mine_s": mine, "e2e_s": walls}
    report["raw_samples"] = raw
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def _size(plist):
    """Entry count of a vertical list, whatever its representation."""
    support = getattr(plist, "support", None)
    if isinstance(support, int) and not isinstance(support, bool):
        return support
    entries = getattr(plist, "entries", None)
    return len(entries) if entries is not None else None


class LayerCounters:
    """Counts taken at the wrapped boundaries of one traced run."""

    def __init__(self, workload, occumine, n_transactions: int):
        thresholds = occumine.Thresholds(workload.alpha, workload.beta, workload.gamma)
        preset = occumine.PRESETS[workload.preset]
        self.min_sup = thresholds.min_support(n_transactions)
        self.min_pro = thresholds.min_probability(n_transactions)
        self.beta = workload.beta
        self.support_prune = getattr(preset, "support_prune", True)
        self.probability_prune = getattr(preset, "probability_prune", True)
        self.tol = getattr(occumine.model, "TOL", DEFAULT_TOL)
        self.unreadable: set[str] = set()
        self.singles_entries = self.singles_max = 0
        self.construct_calls = self.aborted = self.scanned = self.out = self.list_max = 0
        self.kept = self.pruned_support = self.pruned_probability = self.max_depth = 0
        self.bound_calls = self.pruned_bound = 0
        self.stats = self.db = self.outcome = None

    def singles(self, args, kwargs, result) -> None:
        try:
            sizes = [_size(v[0] if isinstance(v, tuple) else v) for v in result.values()]
            self.singles_entries += sum(sizes)
            self.singles_max = max(sizes, default=0)
            if sizes:
                self.max_depth = max(self.max_depth, 1)
        except (AttributeError, TypeError):
            self.unreadable.add("lists.build_single_item_lists")

    def construct(self, args, kwargs, result) -> None:
        self.construct_calls += 1
        self.scanned += sum(s for s in map(_size, (*args, *kwargs.values())) if s is not None)
        if result is None:
            self.aborted += 1
            return
        try:
            plist, summary = result
            n = _size(plist)
            self.out += n
            self.list_max = max(self.list_max, n)
            if n == 0 or (self.support_prune and summary.support < self.min_sup):
                self.pruned_support += 1
            elif self.probability_prune and summary.probability < self.min_pro - self.tol:
                self.pruned_probability += 1
            else:
                self.kept += 1
                self.max_depth = max(self.max_depth, len(plist.items))
        except (AttributeError, TypeError, ValueError):
            self.unreadable.add("lists.construct")

    def bound(self, args, kwargs, result) -> None:
        self.bound_calls += 1
        if result < self.beta - self.tol:
            self.pruned_bound += 1

    def mined(self, args, kwargs, result) -> None:
        self.stats = getattr(result, "stats", None)
        self.db = args[0] if args else kwargs.get("db")
        self.outcome = result


#: Wrapped names: (module, attribute, span name, counter hook name).
WRAPS = (
    ("dataio", "parse_database", "dataio.parse_database", None),
    ("dataio", "build_database", "model.build_database", None),
    ("miner", "validate_database", "model.validate_database", None),
    ("miner", "total_order", "measures.total_order", None),
    ("miner", "build_single_item_lists", "lists.build_single_item_lists", "singles"),
    ("miner", "construct", "lists.construct", "construct"),
    ("miner", "upper_bound", "miner.upper_bound", "bound"),
    ("cli", "mine", "miner.mine", "mined"),
    ("cli", "render_patterns", "cli.render_patterns", None),
)


def traced_cli_once(occumine, workload, data, utility, out, wraps=WRAPS):
    """One in-process ``occumine mine`` with the ``wraps`` names wrapped.

    Returns (exit code, tracer, counters, names of the spans wrapped).
    """
    import occumine.cli  # noqa: F401  (cli is not imported by the package)

    counters = LayerCounters(workload, occumine, workload.num_transactions)
    tracer = Tracer()
    wrapped = set()
    try:
        for module, attr, span, hook in wraps:
            observe = getattr(counters, hook) if hook else None
            if tracer.wrap(getattr(occumine, module), attr, span, observe):
                wrapped.add(span)
        gc.collect()
        code = occumine.cli.main([*workload.cli_args(data, utility), "--output", str(out)])
    finally:
        tracer.restore()
    return code, tracer, counters, wrapped


def layer_metrics(tracer, counters, wrapped, input_bytes):
    """Per-layer metrics of one traced run, and the names that are absent.

    A metric is absent when a span it needs was not wrapped, or when a
    hook could not read the results it counts.
    """
    self_time = tracer.self_times()
    c = counters
    readable = wrapped - c.unreadable
    singles, construct, bound, mine = (
        "lists.build_single_item_lists", "lists.construct", "miner.upper_bound", "miner.mine"
    )
    parse = self_time.get("dataio.parse_database")
    candidates = {
        # metric: (value, unit, spans it needs)
        f"{span}_s": (self_time.get(span, 0.0), "s", (span,))
        for span in (name for _, _, name, _ in WRAPS if name != mine)
    }
    candidates.update({
        "dataio.parse_mb_per_s": (
            input_bytes / 1e6 / parse if parse else None, "MB/s", ("dataio.parse_database",)
        ),
        "lists.singles_entries": (c.singles_entries, "count", (singles,)),
        "lists.construct_calls": (c.construct_calls, "count", (construct,)),
        "lists.join_aborted": (c.aborted, "count", (construct,)),
        "lists.entries_scanned": (c.scanned, "count", (construct,)),
        "lists.entries_out": (c.out, "count", (construct,)),
        "lists.max_list_len": (max(c.singles_max, c.list_max), "count", (singles, construct)),
        "lists.join_yield": (
            c.kept / c.construct_calls if c.construct_calls else 0.0, "ratio", (construct,)
        ),
        "miner.upper_bound_calls": (c.bound_calls, "count", (bound,)),
        "miner.pruned_bound": (c.pruned_bound, "count", (bound,)),
        "miner.pruned_support": (c.pruned_support, "count", (construct,)),
        "miner.pruned_probability": (c.pruned_probability, "count", (construct,)),
        "miner.max_depth": (c.max_depth, "count", (singles, construct)),
        "miner.search_self_s": (self_time.get(mine, 0.0), "s", (mine,)),
        "miner.mine_traced_s": (tracer.durations().get(mine, 0.0), "s", (mine,)),
    })
    for name in ("visited_nodes", "candidate_joins", "constructed_lists", "patterns_found"):
        candidates[f"miner.{name}"] = (getattr(c.stats, name, None), "count", (mine,))

    metrics, absent = {}, []
    for name, (value, unit, needs) in candidates.items():
        if value is None or not readable.issuperset(needs):
            absent.append(name)
        else:
            metrics[name] = (value, unit)
    return metrics, absent


def run_traced(occumine, workload, data, utility, seconds, verifier, tally, report):
    """Alternate a baseline CLI run, with only ``mine`` wrapped, and a fully
    traced one, so ``trace_overhead_frac`` compares ``mine`` under the same
    conditions."""
    input_bytes = report["input_bytes"]
    out = CACHE / f"out-{os.getpid()}.txt"
    mine_only = tuple(w for w in WRAPS if w[2] == "miner.mine")
    baseline, reps = [], []

    def checked_cli_once(wraps):
        code, tracer, counters, wrapped = traced_cli_once(
            occumine, workload, data, utility, out, wraps
        )
        if counters.db is not None and counters.outcome is not None:
            verifier.prime(counters.db, library_rows(counters.outcome))
        problems = [f"in-process occumine mine returned {code}"] if code else []
        problems = problems or output_problems(verifier, out)
        return (tracer, counters, wrapped) if tally.record(problems) else None

    def pair_once():
        base = checked_cli_once(mine_only)
        if base is not None and "miner.mine" in base[2]:
            baseline.append(base[0].durations()["miner.mine"])
        traced = checked_cli_once(WRAPS)
        if traced is not None:
            reps.append(layer_metrics(*traced, input_bytes))

    def startup_once():
        code, wall, _, stderr = run_child(["-c", "import occumine.cli"], out)
        problems = [f"import occumine.cli exited {code}: {stderr[-300:]}"] if code else []
        return wall if tally.record(problems) else None

    try:
        startup = repeat(startup_once, STARTUP_MIN, STARTUP_SHARE * seconds)
        repeat(pair_once, TRACED_MIN, TRACED_SHARE * seconds)
    finally:
        out.unlink(missing_ok=True)

    metrics: dict[str, tuple[float, str]] = {}
    if reps:
        first, absent = reps[0]
        unsteady = []
        for name, (value, unit) in first.items():
            values = [m[name][0] for m, _ in reps if name in m]
            if unit in ("s", "MB/s"):
                metrics[name] = (statistics.median(values), unit)
            else:
                if len(set(values)) != 1:
                    unsteady.append(f"{name} {values}")
                metrics[name] = (value, unit)
        if unsteady:
            tally.record([f"counts differ between traced runs: {'; '.join(unsteady)}"])
        report["absent"] = absent
    if startup:
        metrics["cli.startup_s"] = (statistics.median(startup), "s")
    if baseline and "miner.mine_traced_s" in metrics:
        untraced = statistics.median(baseline)
        metrics["trace_overhead_frac"] = (metrics["miner.mine_traced_s"][0] / untraced - 1.0, "ratio")
        report["untraced_cli_mine_s"] = untraced
    report["samples"] = {"traced": len(reps), "baseline": len(baseline), "cli.startup_s": len(startup)}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="occumine benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "occumine" / "__init__.py").is_file():
        print(f"perfbench: no occumine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import occumine

    # One CPU for the probes, the samples and the children, so that the
    # probes see the drift the samples see.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    data, utility = ensure_inputs(occumine, workload, args.seed)
    verifier = Verifier(occumine, workload, args.seed, data, utility)
    tally = Tally()
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "input_bytes": data.stat().st_size + utility.stat().st_size,
        "probe_s": probe(),
        "notes": verifier.notes,
    }
    run = run_traced if args.trace else run_untraced
    metrics = run(occumine, workload, data, utility, args.seconds, verifier, tally, report)
    report["failed_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0
    report["problems"] = tally.problems

    for name, (value, unit) in metrics.items():
        print(f"{workload.name:14} {name:32} {value:>14.6g} {unit}")
    print(f"{workload.name:14} {'failed_frac':32} {report['failed_frac']:>14.6g} ratio")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
