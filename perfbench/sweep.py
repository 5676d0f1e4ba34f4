"""Run the benchmark over workloads and seeds, summarise, and compare sets.

One command runs every workload, untraced and traced, and prints every
end-to-end and per-layer metric by name with its unit::

    python3 perfbench/sweep.py --seeds 7

Over several seeds it reports each end-to-end metric's median and the
spread between its quartiles as a share of the median, against the bound
in ``BENCHMARK.json``; ``--out`` saves every run::

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/baseline/set-1.json

``--compare A B`` checks that set B's medians are no worse than set A's
by more than each end-to-end metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
              "exit": proc.returncode}
    if proc.returncode or not lines:
        record["stderr"] = proc.stderr[-2000:]
        return record
    record["result"] = json.loads(lines[-1])
    for line in lines:
        if line.startswith("report "):
            record["report"] = json.loads(line[len("report "):])
    return record


def quartile_spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median), quartiles as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def metric_values(records: list[dict], workload: str, trace: int) -> dict[str, list]:
    values: dict[str, list] = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == trace and "result" in r:
            for name, m in r["result"]["metrics"].items():
                values.setdefault(name, []).append((m["value"], m["unit"]))
    return values


def summarise(records: list[dict]) -> dict:
    summary = {}
    for workload in sorted({r["workload"] for r in records}):
        rows = {}
        for trace in (0, 1):
            for name, pairs in metric_values(records, workload, trace).items():
                values = [v for v, _ in pairs]
                median, spread = quartile_spread(values)
                rows[name] = {"median": median, "spread": spread, "n": len(values),
                              "unit": pairs[0][1]}
        runs = [r for r in records if r["workload"] == workload]
        rows["_runs"] = {
            "n": len(runs),
            "all_correct": all(r.get("result", {}).get("correct") for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "mean_wall_s": statistics.fmean(r["wall_s"] for r in runs),
        }
        summary[workload] = rows
    return summary


def print_summary(summary: dict) -> None:
    for workload, rows in summary.items():
        runs = rows["_runs"]
        print(f"\n{workload}: {runs['n']} runs, all correct: {runs['all_correct']}, "
              f"wall mean {runs['mean_wall_s']:.1f} s, max {runs['max_wall_s']:.1f} s")
        for name, row in rows.items():
            if name == "_runs":
                continue
            bound = BOUNDS.get(name, {}).get("bound")
            verdict = ""
            if bound is not None and row["n"] > 1 and name != "setup_s":
                verdict = ("steady" if row["spread"] < bound / 3
                           else "within bound" if row["spread"] <= bound else "TOO WIDE")
            print(f"  {name:32} {row['median']:>14.6g} {row['unit']:6} "
                  f"spread {row['spread']:7.2%}  n={row['n']:<3}"
                  + (f" bound {bound:.0%} {verdict}" if bound is not None else ""))


def compare(base_path: Path, new_path: Path) -> int:
    base = summarise(json.loads(base_path.read_text())["runs"])
    new = summarise(json.loads(new_path.read_text())["runs"])
    worse = 0
    for workload in sorted(base.keys() & new.keys()):
        for name, spec in BOUNDS.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            a, b = base[workload][name]["median"], new[workload][name]["median"]
            change = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            flag = "WORSE" if change > spec["bound"] else "ok"
            worse += flag == "WORSE"
            print(f"{workload:14} {name:14} {a:10.4g} -> {b:10.4g}  worse by {change:+7.2%} "
                  f"(bound {spec['bound']:.0%}) {flag}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=[7], help="e.g. 7 or 1-10 or 1,5")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", default="0,1", help="0, 1 or 0,1")
    parser.add_argument("--out", type=Path, help="save every run and the summary here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    records = []
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            for trace in (int(t) for t in args.trace.split(",")):
                record = run_once(workload, seed, args.seconds, trace)
                records.append(record)
                result = record.get("result", {})
                print(f"{workload} seed {seed} trace {trace}: exit {record['exit']}, "
                      f"correct {result.get('correct')}, {record['wall_s']:.1f} s", flush=True)
                if "stderr" in record:
                    print(record["stderr"], file=sys.stderr)
                if len(args.seeds) == 1:
                    for name, m in result.get("metrics", {}).items():
                        print(f"  {name:32} {m['value']:>14.6g} {m['unit']}")
                    if "report" in record:
                        print(f"  {'failed_frac':32} {record['report']['failed_frac']:>14.6g} ratio")
    summary = summarise(records)
    if len(args.seeds) > 1:
        print_summary(summary)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seconds": args.seconds, "runs": records,
                                        "summary": summary}, indent=1) + "\n")
    return 0 if all(r.get("result", {}).get("correct") for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
