"""Command-line surface: mine, oracle, stats, bench, generate, augment.

Exit codes: 0 success, 1 input/validation failure, 2 bad flags or plan,
3 oracle enumeration budget exceeded, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import reduce
from operator import add
from pathlib import Path

from . import bench as bench_mod
from .dataio import GeneratorConfig, augment, generate, load_database, save_database
from .errors import EnumerationBudgetError, OccumineError, PlanError
from .measures import DEFAULT_ENUMERATION_BUDGET, oracle_mine
from .miner import PRESETS, mine
from .model import MiningStats, PatternRecord, Thresholds


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


def render_patterns(records: tuple[PatternRecord, ...], fmt: str) -> str:
    """Render mined patterns; numeric fields fixed at 4 decimals."""
    if fmt == "text":
        lines = [
            f"{' '.join(r.items)} #SUP: {r.support} "
            f"#PRO: {r.probability:.4f} #UO: {r.utility_occupancy:.4f}"
            for r in records
        ]
    elif fmt == "csv":
        lines = ["pattern,support,probability,utility_occupancy"]
        lines += [
            f"{' '.join(r.items)},{r.support},"
            f"{r.probability:.4f},{r.utility_occupancy:.4f}"
            for r in records
        ]
    elif fmt == "json":
        payload = [
            {
                "items": list(r.items),
                "support": r.support,
                "probability": round(r.probability, 4),
                "utility_occupancy": round(r.utility_occupancy, 4),
            }
            for r in records
        ]
        return json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n" if lines else ""


def render_mining_stats(stats: MiningStats) -> str:
    lines = []
    for key, value in stats.as_dict().items():
        if isinstance(value, float):
            lines.append(f"{key}={value:.3f}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="transactions file")
    parser.add_argument("--utility", required=True, help="unit-utility file")


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True,
                        help="minimum support fraction, in (0, 1]")
    parser.add_argument("--beta", type=float, required=True,
                        help="minimum average utility occupancy, in (0, 1]")
    parser.add_argument("--gamma", type=float, required=True,
                        help="minimum probability fraction, in [0, 1]")
    parser.set_defaults(build_model=_thresholds, subparser=parser)


def _add_generator_flags(parser: argparse.ArgumentParser) -> None:
    # The parser takes argument_default=SUPPRESS, so a flag left out is
    # not in the namespace and GeneratorConfig's default holds.
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--max-quantity", type=int)
    parser.add_argument("--max-utility", type=int, dest="max_unit_utility")
    parser.add_argument("--prob-min", type=float)
    parser.add_argument("--prob-max", type=float)
    parser.add_argument("--data", required=True, help="output transactions file")
    parser.add_argument("--utility", required=True, help="output unit-utility file")
    parser.set_defaults(build_model=_generator_config, subparser=parser)


def _thresholds(args: argparse.Namespace) -> Thresholds:
    return Thresholds(args.alpha, args.beta, args.gamma)


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    names = (field.name for field in dataclasses.fields(GeneratorConfig))
    return GeneratorConfig(**{name: getattr(args, name) for name in names if name in args})


def _cmd_mine(args: argparse.Namespace) -> int:
    db = load_database(args.data, args.utility)
    outcome = mine(db, args.model, PRESETS[args.strategies])
    _emit(render_patterns(outcome.patterns, args.format), args.output)
    if args.stats:
        _emit(render_mining_stats(outcome.stats), args.stats)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    db = load_database(args.data, args.utility)
    records = oracle_mine(db, args.model, args.max_len, budget=args.budget)
    _emit(render_patterns(records, args.format), args.output)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db = load_database(args.data, args.utility)
    lengths = list(db.transactions.lengths())
    num_items = len(db.item_universe)
    avg_length = sum(lengths) / len(lengths) if lengths else 0.0
    # Left to right, as the parser sums each tu: sum() is compensated on 3.12+.
    total_utility = reduce(add, db.transactions.tu, 0.0)
    density = avg_length / num_items if num_items else 0.0
    lines = [
        f"transactions={len(db)}",
        f"items={num_items}",
        f"min_length={min(lengths) if lengths else 0}",
        f"avg_length={avg_length:.4f}",
        f"max_length={max(lengths) if lengths else 0}",
        f"total_utility={total_utility:.4f}",
        f"density={density:.4f}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    flags = {key: getattr(args, key) for key in bench_mod.PLAN_KEYS}
    flags = {key: value for key, value in flags.items() if value is not None}
    if args.plan:
        if flags:
            given = ", ".join(f"--{key}" for key in flags)
            raise PlanError(f"--plan cannot be combined with {given}")
        try:
            plan = bench_mod.parse_plan(Path(args.plan).read_bytes())
        except PlanError as exc:
            exc.path = args.plan
            raise
    else:
        plan = bench_mod.plan_from_values(flags)
    rows = bench_mod.run_plan(plan)
    _emit(bench_mod.rows_to_csv(rows), args.output)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    save_database(generate(args.model), args.data, args.utility)
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    save_database(augment(Path(args.input).read_bytes(), args.model), args.data, args.utility)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occumine",
        description="Mine high utility-occupancy patterns from uncertain transaction data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="run the pattern miner")
    _add_data_flags(p_mine)
    _add_threshold_flags(p_mine)
    p_mine.add_argument("--strategies", choices=sorted(PRESETS), default="full",
                        help="pruning strategy preset (default: full)")
    p_mine.add_argument("--output", help="write patterns here instead of stdout")
    p_mine.add_argument("--stats", help="write run counters here as key=value lines")
    p_mine.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_mine.set_defaults(func=_cmd_mine)

    p_oracle = sub.add_parser("oracle", help="run the exhaustive reference miner")
    _add_data_flags(p_oracle)
    _add_threshold_flags(p_oracle)
    p_oracle.add_argument("--max-len", type=_positive_int, required=True,
                          help="largest itemset size to enumerate")
    p_oracle.add_argument("--budget", type=_positive_int,
                          default=DEFAULT_ENUMERATION_BUDGET,
                          help="cap on itemsets examined before giving up")
    p_oracle.add_argument("--output", help="write patterns here instead of stdout")
    p_oracle.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_stats = sub.add_parser("stats", help="print dataset features")
    _add_data_flags(p_stats)
    p_stats.add_argument("--output", help="write stats here instead of stdout")
    p_stats.set_defaults(func=_cmd_stats)

    p_bench = sub.add_parser("bench", help="run a threshold/strategy sweep, emit CSV")
    p_bench.add_argument("--plan", help="plan file (key=value lines); takes no other plan flag")
    p_bench.add_argument("--data", help="comma-separated transactions files (inline plan)")
    p_bench.add_argument("--utility", help="comma-separated unit-utility files (inline plan)")
    p_bench.add_argument("--alphas", help="comma-separated alpha values")
    p_bench.add_argument("--betas", help="comma-separated beta values")
    p_bench.add_argument("--gammas", help="comma-separated gamma values")
    p_bench.add_argument("--strategies", help="comma-separated presets (default: full)")
    p_bench.add_argument("--repetitions", help="runs per point and preset (default: 1)")
    p_bench.add_argument("--output", help="write CSV here instead of stdout")
    p_bench.set_defaults(func=_cmd_bench)

    p_gen = sub.add_parser("generate", help="generate a synthetic database",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--transactions", type=int, required=True, dest="num_transactions")
    p_gen.add_argument("--items", type=int, required=True, dest="num_items")
    p_gen.add_argument("--avg-length", type=float, required=True,
                       dest="avg_transaction_length",
                       help="mean transaction length, a finite number >= 1")
    _add_generator_flags(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_aug = sub.add_parser("augment", help="attach quantities/probabilities/utilities "
                                           "to plain transactions",
                           argument_default=argparse.SUPPRESS)
    p_aug.add_argument("--input", required=True, help="plain transactions, items per line")
    _add_generator_flags(p_aug)
    # augment draws no transaction, so the generator's shape is moot.
    p_aug.set_defaults(func=_cmd_augment, num_transactions=0, num_items=1,
                       avg_transaction_length=1.0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command's model type checks its flags before any file is read, and
    # a refusal is a usage error, as a flag argparse cannot convert is.
    if "build_model" in args:
        try:
            args.model = args.build_model(args)
        except ValueError as exc:
            args.subparser.error(str(exc))
    try:
        return args.func(args)
    except EnumerationBudgetError as exc:
        print(f"occumine: {exc}", file=sys.stderr)
        return 3
    except PlanError as exc:
        print(f"occumine: {exc}", file=sys.stderr)
        return 2
    except (OccumineError, OSError, ValueError) as exc:
        print(f"occumine: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("occumine: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
