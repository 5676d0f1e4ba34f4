import csv
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import occumine.cli as cli_module
from occumine import (
    PRESETS,
    GeneratorConfig,
    PlanError,
    Thresholds,
    augment,
    generate,
    mine,
    save_database,
)
from occumine.cli import main, render_patterns

from conftest import EXAMPLE_TRANSACTIONS, EXAMPLE_UTILITIES, REPO_ROOT

EXAMPLE_FLAGS = ["--data", str(EXAMPLE_TRANSACTIONS), "--utility", str(EXAMPLE_UTILITIES)]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mine_text_output(capsys):
    code, out, err = run(
        ["mine", *EXAMPLE_FLAGS, "--alpha", "0.8", "--beta", "0.6", "--gamma", "0.3"],
        capsys,
    )
    assert code == 0
    assert out == "c #SUP: 8 #PRO: 5.4000 #UO: 0.6468\n"
    assert err == ""


def test_mine_csv_output(capsys):
    code, out, _ = run(
        ["mine", *EXAMPLE_FLAGS, "--alpha", "0.3", "--beta", "0.3", "--gamma", "0.05",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 11
    assert rows[0]["pattern"] == "a b"
    assert {"pattern", "support", "probability", "utility_occupancy"} == set(rows[0])


def test_mine_json_output(capsys):
    code, out, _ = run(
        ["mine", *EXAMPLE_FLAGS, "--alpha", "0.8", "--beta", "0.6", "--gamma", "0.3",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"items": ["c"], "support": 8, "probability": 5.4, "utility_occupancy": 0.6468}
    ]


def test_mine_writes_output_and_stats_files(tmp_path, capsys):
    out_path = tmp_path / "patterns.txt"
    stats_path = tmp_path / "stats.txt"
    code, out, _ = run(
        ["mine", *EXAMPLE_FLAGS, "--alpha", "0.8", "--beta", "0.6", "--gamma", "0.3",
         "--output", str(out_path), "--stats", str(stats_path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text() == "c #SUP: 8 #PRO: 5.4000 #UO: 0.6468\n"
    stats = dict(line.split("=") for line in stats_path.read_text().splitlines())
    assert stats["patterns_found"] == "1"
    assert int(stats["visited_nodes"]) >= 1
    # The counters in README's order.
    assert list(stats) == [
        "visited_nodes", "constructed_lists", "candidate_joins", "patterns_found", "elapsed_ms",
        "pruned_support", "pruned_probability", "pruned_bound",
    ]


def test_mine_repeated_runs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "one.txt", tmp_path / "two.txt"]
    for path in paths:
        code, _, _ = run(
            ["mine", *EXAMPLE_FLAGS, "--alpha", "0.3", "--beta", "0.3", "--gamma", "0.05",
             "--output", str(path)],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_alpha_out_of_range_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["mine", *EXAMPLE_FLAGS, "--alpha", "1.1", "--beta", "0.6", "--gamma", "0.3"])
    assert info.value.code == 2
    assert "occumine mine: error: alpha must be in (0, 1], got 1.1" in capsys.readouterr().err


def test_missing_utility_file_exits_1(capsys):
    code, _, err = run(
        ["mine", "--data", str(EXAMPLE_TRANSACTIONS), "--utility", "/nope/missing.txt",
         "--alpha", "0.5", "--beta", "0.5", "--gamma", "0.5"],
        capsys,
    )
    assert code == 1
    assert "/nope/missing.txt" in err


def test_mine_non_finite_total_utility_exits_1(tmp_path, capsys):
    data = tmp_path / "data.txt"
    utility = tmp_path / "utility.txt"
    data.write_text("a:1:0.5\na:2:0.5 b:1:1\n")
    utility.write_text("a 1e308\nb 1\n")
    code, out, err = run(
        ["mine", "--data", str(data), "--utility", str(utility),
         "--alpha", "0.5", "--beta", "0.1", "--gamma", "0"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "line 2" in err and "not a finite number" in err


@pytest.mark.parametrize("bad_file", ["data", "utility"])
def test_mine_invalid_utf8_exits_1_naming_the_line(tmp_path, capsys, bad_file):
    files = {
        "data": (tmp_path / "data.txt", b"a:1:0.5\n# caf\xc3\xa9\na:2:0.5 b:1:\xff\n"),
        "utility": (tmp_path / "utility.txt", b"a 1\n\nb\xff 1\n"),
    }
    good = {"data": b"a:1:0.5\n", "utility": b"a 1\nb 1\n"}
    for name, (path, content) in files.items():
        path.write_bytes(content if name == bad_file else good[name])
    code, out, err = run(
        ["mine", "--data", str(files["data"][0]), "--utility", str(files["utility"][0]),
         "--alpha", "0.5", "--beta", "0.1", "--gamma", "0"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == f"occumine: {files[bad_file][0]}: line 3: invalid UTF-8 byte 0xff\n"


@pytest.mark.parametrize(
    "data_text, utility_text, bad_file, message",
    [
        ("a:1:0.5 a:2:0.5\n", "a 1\n", "data", "line 1, column 9: duplicate item in transaction"),
        ("a:1:0.5\n", "a -1\n", "utility", "line 1, column 3: unit utility is negative"),
        ("a:1:0.5 b:1:0.5\n", "a 1\n", "data",
         "line 1, column 9: no unit utility defined for item 'b'"),
        # The plan names the two good files above, then breaks on line 3.
        ("a:1:0.5\n", "a 1\n", "plan", "line 3: expected key=value, got 'alphas 0.5'"),
    ],
)
def test_mine_parse_error_names_the_file(tmp_path, capsys, data_text, utility_text, bad_file,
                                         message):
    # Every located input fault reads "path: line L[, column C]: message".
    paths = {name: tmp_path / f"{name}.txt" for name in ("data", "utility", "plan")}
    paths["data"].write_text(data_text)
    paths["utility"].write_text(utility_text)
    paths["plan"].write_text(f"data = {paths['data']}\nutility = {paths['utility']}\nalphas 0.5\n")
    if bad_file == "plan":
        argv, status = ["bench", "--plan", str(paths["plan"])], 2
    else:
        argv, status = ["mine", "--data", str(paths["data"]), "--utility", str(paths["utility"]),
                        "--alpha", "0.5", "--beta", "0.1", "--gamma", "0"], 1
    assert run(argv, capsys) == (status, "", f"occumine: {paths[bad_file]}: {message}\n")


def test_mine_underflowing_probabilities(tmp_path, capsys):
    # Every 3-item product of these probabilities underflows to 0.0.
    data = tmp_path / "data.txt"
    utility = tmp_path / "utility.txt"
    data.write_text("a:1:1e-120 b:1:1e-120 c:1:1e-120 d:1:1e-120 e:1:1e-120\n" * 3)
    utility.write_text("a 1\nb 1\nc 1\nd 1\ne 1\n")
    flags = ["--data", str(data), "--utility", str(utility),
             "--alpha", "0.5", "--beta", "0.1", "--gamma", "0"]
    code, oracle_out, _ = run(["oracle", *flags, "--max-len", "5"], capsys)
    assert code == 0
    assert len(oracle_out.splitlines()) == 31
    for preset in ("full", "s12", "s13", "s1"):
        code, out, err = run(["mine", *flags, "--strategies", preset], capsys)
        assert (code, err) == (0, "")
        assert out == oracle_out


def test_oracle_matches_mine(capsys):
    flags = ["--alpha", "0.3", "--beta", "0.3", "--gamma", "0.05"]
    code, mine_out, _ = run(["mine", *EXAMPLE_FLAGS, *flags], capsys)
    assert code == 0
    code, oracle_out, _ = run(
        ["oracle", *EXAMPLE_FLAGS, *flags, "--max-len", "5"], capsys
    )
    assert code == 0
    assert mine_out == oracle_out


def test_oracle_max_len_one(capsys):
    code, out, _ = run(
        ["oracle", *EXAMPLE_FLAGS, "--alpha", "0.3", "--beta", "0.3", "--gamma", "0.05",
         "--max-len", "1"],
        capsys,
    )
    assert code == 0
    assert all(len(line.split(" #SUP:")[0].split()) == 1 for line in out.splitlines())


def test_oracle_budget_exceeded_exits_3(capsys):
    code, _, err = run(
        ["oracle", *EXAMPLE_FLAGS, "--alpha", "0.3", "--beta", "0.3", "--gamma", "0.05",
         "--max-len", "5", "--budget", "10"],
        capsys,
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "value, message",
    [("0", "argument --max-len: 0 must be >= 1"),
     ("x", "argument --max-len: 'x' is not an integer")],
)
def test_oracle_bad_max_len_exits_2(capsys, value, message):
    with pytest.raises(SystemExit) as info:
        main(["oracle", *EXAMPLE_FLAGS, "--alpha", "0.3", "--beta", "0.3", "--gamma", "0.05",
              "--max-len", value])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"occumine oracle: error: {message}\n")


def test_stats_output(capsys):
    code, out, _ = run(["stats", *EXAMPLE_FLAGS], capsys)
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert values["transactions"] == "10"
    assert values["items"] == "5"
    assert values["min_length"] == "2"
    assert values["max_length"] == "5"
    assert values["total_utility"] == "443.0000"


def test_stats_empty_database(tmp_path, capsys):
    data = tmp_path / "empty.txt"
    utility = tmp_path / "empty_u.txt"
    data.write_text("")
    utility.write_text("")
    code, out, _ = run(["stats", "--data", str(data), "--utility", str(utility)], capsys)
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert values["transactions"] == "0"
    assert values["items"] == "0"
    assert values["density"] == "0.0000"


def test_stats_sums_total_utility_left_to_right(tmp_path, capsys):
    # Left to right 1e16 + 1 + 1 stays 1e16, as each tu is summed; a
    # compensated sum (sum() on Python 3.12+) gives 1e16 + 2.
    data = tmp_path / "data.txt"
    utility = tmp_path / "utility.txt"
    data.write_text("a:1:1\nb:1:1\nb:1:1\n")
    utility.write_text("a 1e16\nb 1\n")
    code, out, _ = run(["stats", "--data", str(data), "--utility", str(utility)], capsys)
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert values["total_utility"] == "10000000000000000.0000"


def test_bench_inline(capsys, example_db):
    code, out, _ = run(
        ["bench", *EXAMPLE_FLAGS, "--alphas", "0.2,0.3,0.4", "--betas", "0.3",
         "--gammas", "0.05", "--strategies", "full,s12,s13,s1"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 12
    assert list(rows[0])[-4:] == [
        "patterns", "pruned_support", "pruned_probability", "pruned_bound"
    ]
    for row in rows:
        thresholds = Thresholds(float(row["alpha"]), float(row["beta"]), float(row["gamma"]))
        stats = mine(example_db, thresholds, PRESETS[row["strategy"]]).stats
        expected = {
            "visited_nodes": stats.visited_nodes,
            "constructed_lists": stats.constructed_lists,
            "patterns": stats.patterns_found,
            "pruned_support": stats.pruned_support,
            "pruned_probability": stats.pruned_probability,
            "pruned_bound": stats.pruned_bound,
        }
        assert {column: int(row[column]) for column in expected} == expected
    # pattern counts are identical across presets at each sweep point
    by_alpha = {}
    for row in rows:
        by_alpha.setdefault(row["alpha"], set()).add(row["patterns"])
    assert all(len(counts) == 1 for counts in by_alpha.values())


def test_bench_times_no_validation(monkeypatch):
    import occumine.miner as miner_module
    from occumine.bench import BenchPlan, run_plan

    calls = []

    def counting(db):
        calls.append(db)
        return []

    monkeypatch.setattr(miner_module, "validate_database", counting)
    plan = BenchPlan(
        datasets=((str(EXAMPLE_TRANSACTIONS), str(EXAMPLE_UTILITIES)),),
        alphas=(0.2, 0.3, 0.4),
        betas=(0.3,),
        gammas=(0.05,),
        presets=("full", "s1"),
    )
    rows = run_plan(plan)
    assert len(rows) == 6
    assert calls == []


def test_bench_plan_file(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "# alpha sweep\n"
        f"data = {EXAMPLE_TRANSACTIONS}\n"
        f"utility = {EXAMPLE_UTILITIES}\n"
        "alphas = 0.2,0.4\n"
        "betas = 0.3\n"
        "gammas = 0.05\n"
        "strategies = full\n"
        "repetitions = 2\n"
    )
    code, out, _ = run(["bench", "--plan", str(plan)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 4
    assert [row["rep"] for row in rows] == ["1", "2", "1", "2"]


def test_bench_rejects_two_varying_lists(capsys):
    code, _, err = run(
        ["bench", *EXAMPLE_FLAGS, "--alphas", "0.2,0.3", "--betas", "0.3,0.4",
         "--gammas", "0.05"],
        capsys,
    )
    assert code == 2
    assert "at most one" in err


def test_bench_out_of_range_sweep_point_exits_2(capsys):
    code, _, err = run(
        ["bench", *EXAMPLE_FLAGS, "--alphas", "0.3,1.5", "--betas", "0.3",
         "--gammas", "0.05"],
        capsys,
    )
    assert code == 2
    assert "alpha must be in (0, 1]" in err


def test_bench_plan_file_nan_threshold_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        f"data = {EXAMPLE_TRANSACTIONS}\n"
        f"utility = {EXAMPLE_UTILITIES}\n"
        "alphas = nan\n"
        "betas = 0.3\n"
        "gammas = 0.05\n"
    )
    code, _, err = run(["bench", "--plan", str(plan)], capsys)
    assert code == 2
    assert "alpha must be in (0, 1], got nan" in err


PLAN_TEXT = (
    f"data = {EXAMPLE_TRANSACTIONS}\n"
    f"utility = {EXAMPLE_UTILITIES}\n"
    "alphas = 0.3\n"
    "betas = 0.3\n"
    "gammas = 0.05\n"
)


@pytest.mark.parametrize(
    "extra, message",
    [
        ("strategy = s1\n", "line 6: unknown key 'strategy'"),
        ("repetition = 3\n", "line 6: unknown key 'repetition'"),
        ("betas = 0.4\n", "line 6: key 'betas' is given twice"),
        ("alphas 0.3\n", "line 6: expected key=value, got 'alphas 0.3'"),
        # A comment line with a CRLF end and a blank line count as lines.
        ("# note\r\n\nstrategy = s1\n", "line 8: unknown key 'strategy'"),
    ],
)
def test_bench_plan_file_bad_key_exits_2(tmp_path, capsys, extra, message):
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN_TEXT + extra)
    code, out, err = run(["bench", "--plan", str(plan)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"occumine: {plan}: {message}")


def test_bench_plan_file_not_utf8_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_bytes(b"\xff" + PLAN_TEXT.encode())
    code, out, err = run(["bench", "--plan", str(plan)], capsys)
    assert (code, out, err) == (2, "", f"occumine: {plan}: line 1: invalid UTF-8 byte 0xff\n")


def test_plan_error_carries_the_line_at_fault():
    from occumine.bench import parse_plan

    for text, line in (("# a sweep\nalphas 0.3\n", 2), (b"alphas = 0.3\n\xff\n", 2)):
        with pytest.raises(PlanError) as info:
            parse_plan(text)
        assert (info.value.line, info.value.column) == (line, None)
        assert str(info.value).startswith(f"line {line}: ")


def test_bench_plan_file_takes_no_plan_flag(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN_TEXT)
    code, out, err = run(
        ["bench", "--plan", str(plan), "--alphas", "0.9", "--strategies", "s1"], capsys
    )
    assert (code, out) == (2, "")
    assert "--plan cannot be combined with --alphas, --strategies" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--alphas", "0.3", "--betas", "0.3"], "plan is missing keys: ['gammas']"),
        (["--alphas", "0.3", "--betas", "0.3", "--gammas", "x"], "bad number list for gammas"),
        (["--alphas", "0.3", "--betas", "0.3", "--gammas", "0", "--repetitions", "0"],
         "repetitions must be >= 1"),
        (["--alphas", "0.3", "--betas", "0.3", "--gammas", "0", "--strategies", "s2"],
         "unknown strategy preset 's2'"),
        (["--data", "", "--utility", "", "--alphas", "0.3", "--betas", "0.3", "--gammas", "0"],
         "plan needs at least one dataset (data + utility path)"),
        (["--alphas", "", "--betas", "0.3", "--gammas", "0"],
         "plan needs at least one value for each threshold"),
        (["--alphas", "0.3", "--betas", "0.3", "--gammas", "0", "--strategies", ""],
         "plan needs at least one strategy preset"),
        (["--data", "a,b", "--alphas", "0.3", "--betas", "0.3", "--gammas", "0"],
         "data and utility path lists must have the same length"),
        (["--alphas", "0.3", "--betas", "0.3", "--gammas", "0", "--repetitions", "x"],
         "bad repetitions 'x'"),
    ],
)
def test_bench_bad_inline_plan_exits_2(capsys, flags, message):
    code, out, err = run(["bench", *EXAMPLE_FLAGS, *flags], capsys)
    assert (code, out) == (2, "")
    assert message in err


def test_bench_gamma_sweep_row_counts(capsys):
    code, out, _ = run(
        ["bench", *EXAMPLE_FLAGS, "--alphas", "0.3", "--betas", "0.3",
         "--gammas", "0.0,0.1,0.3", "--strategies", "full"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    zero_row = next(r for r in rows if float(r["gamma"]) == 0.0)
    assert all(
        int(zero_row["patterns"]) >= int(r["patterns"])
        for r in rows
        if float(r["gamma"]) > 0.0
    )


def test_bench_runs_identical_modulo_runtime(tmp_path, capsys):
    argv = ["bench", *EXAMPLE_FLAGS, "--alphas", "0.2,0.3", "--betas", "0.3",
            "--gammas", "0.05", "--strategies", "full,s13"]
    outputs = []
    for _ in range(2):
        code, out, _ = run(argv, capsys)
        assert code == 0
        outputs.append(out)

    def strip_runtime(text):
        rows = list(csv.reader(text.splitlines()))
        column = rows[0].index("runtime_ms")
        return [[v for i, v in enumerate(row) if i != column] for row in rows]

    assert strip_runtime(outputs[0]) == strip_runtime(outputs[1])


def test_generate_and_stats_roundtrip(tmp_path, capsys):
    data = tmp_path / "gen.txt"
    utility = tmp_path / "gen_utility.txt"
    code, _, _ = run(
        ["generate", "--seed", "21", "--transactions", "40", "--items", "12",
         "--avg-length", "3.5", "--data", str(data), "--utility", str(utility)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["stats", "--data", str(data), "--utility", str(utility)], capsys)
    assert code == 0
    assert "transactions=40" in out


def test_generate_is_deterministic(tmp_path, capsys):
    texts = []
    for name in ("a", "b"):
        data = tmp_path / f"{name}.txt"
        utility = tmp_path / f"{name}_u.txt"
        code, _, _ = run(
            ["generate", "--seed", "3", "--transactions", "15", "--items", "6",
             "--avg-length", "2.5", "--data", str(data), "--utility", str(utility)],
            capsys,
        )
        assert code == 0
        texts.append(data.read_bytes() + utility.read_bytes())
    assert texts[0] == texts[1]


def test_generate_zero_transactions_writes_an_empty_database(tmp_path, capsys):
    data, utility = tmp_path / "d.txt", tmp_path / "u.txt"
    code, _, _ = run(
        ["generate", "--seed", "1", "--transactions", "0", "--items", "3",
         "--avg-length", "2", "--data", str(data), "--utility", str(utility)],
        capsys,
    )
    assert code == 0
    assert data.read_bytes() == b""
    code, out, err = run(
        ["mine", "--data", str(data), "--utility", str(utility),
         "--alpha", "0.5", "--beta", "0.5", "--gamma", "0"],
        capsys,
    )
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("value", ["inf", "nan", "0.5"])
def test_generate_bad_avg_length_exits_2(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--seed", "1", "--transactions", "5", "--items", "4",
              "--avg-length", value,
              "--data", str(tmp_path / "d.txt"), "--utility", str(tmp_path / "u.txt")])
    assert info.value.code == 2
    assert (
        "occumine generate: error: avg_transaction_length must be a finite number >= 1, "
        f"got {float(value)}"
    ) in capsys.readouterr().err


def test_generate_huge_avg_length_fills_every_transaction(tmp_path, capsys):
    data, utility = tmp_path / "d.txt", tmp_path / "u.txt"
    code, _, err = run(
        ["generate", "--seed", "1", "--transactions", "5", "--items", "4",
         "--avg-length", "1e308", "--data", str(data), "--utility", str(utility)],
        capsys,
    )
    assert (code, err) == (0, "")
    code, out, _ = run(["stats", "--data", str(data), "--utility", str(utility)], capsys)
    assert code == 0
    assert "min_length=4" in out and "max_length=4" in out


# 1e400 does not fit a float at all; 1e308 fits, but times any unit
# utility above 1 the total overflows to infinity.
@pytest.mark.parametrize("zeros", [400, 308])
@pytest.mark.parametrize("command", ["generate", "augment"])
def test_huge_max_quantity_exits_1(tmp_path, capsys, command, zeros):
    plain = tmp_path / "plain.txt"
    plain.write_text("1 5 9\n2 5\n9 1\n")
    data, utility = tmp_path / "d.txt", tmp_path / "u.txt"
    source = {
        "generate": ["--transactions", "5", "--items", "3", "--avg-length", "2"],
        "augment": ["--input", str(plain)],
    }[command]
    code, out, err = run(
        [command, "--seed", "1", *source, "--max-quantity", "1" + "0" * zeros,
         "--data", str(data), "--utility", str(utility)],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err.startswith("occumine: row ") and err.count("\n") == 1
    assert "not a finite number" in err
    assert not data.exists()


# 1e400 does not convert to a float, so no unit utility could be drawn.
@pytest.mark.parametrize("command", ["generate", "augment"])
def test_max_utility_beyond_the_float_range_exits_2(tmp_path, capsys, command):
    plain = tmp_path / "plain.txt"
    plain.write_text("1 5 9\n2 5\n9 1\n")
    data, utility = tmp_path / "d.txt", tmp_path / "u.txt"
    source = {
        "generate": ["--transactions", "5", "--items", "3", "--avg-length", "2"],
        "augment": ["--input", str(plain)],
    }[command]
    huge = "1" + "0" * 400
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", "1", *source, "--max-utility", huge,
              "--data", str(data), "--utility", str(utility)])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"occumine {command}: error: "
        f"max_unit_utility must be in [1, 1.7976931348623157e+308], got {huge}"
    )
    assert not data.exists() and not utility.exists()


@pytest.mark.parametrize("command", ["generate", "augment"])
def test_inverted_probability_range_exits_2(tmp_path, capsys, command):
    source = {
        "generate": ["--transactions", "5", "--items", "3", "--avg-length", "2"],
        "augment": ["--input", str(tmp_path / "plain.txt")],
    }[command]
    data = tmp_path / "d.txt"
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", "1", *source, "--prob-min", "0.5", "--prob-max", "0.4",
              "--data", str(data), "--utility", str(tmp_path / "u.txt")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"occumine {command}: error: prob_min 0.5 is above prob_max 0.4" in err
    assert not data.exists()


@pytest.mark.parametrize("command", ["generate", "augment"])
def test_generator_flags_default_to_generator_config(tmp_path, capsys, command):
    # Left out, the four optional flags take GeneratorConfig's defaults.
    plain = tmp_path / "plain.txt"
    plain.write_text("1 5 9\n2 5\n9 1\n")
    if command == "generate":
        source = ["--transactions", "30", "--items", "8", "--avg-length", "3"]
        config = GeneratorConfig(seed=4, num_transactions=30, num_items=8,
                                 avg_transaction_length=3)
        db = generate(config)
    else:
        source = ["--input", str(plain)]
        config = GeneratorConfig(seed=4, num_transactions=0, num_items=1,
                                 avg_transaction_length=1.0)
        db = augment(plain.read_bytes(), config)
    save_database(db, tmp_path / "lib.txt", tmp_path / "lib_u.txt")
    defaults = ["--max-quantity", "5", "--max-utility", "20", "--prob-min", "0.1",
                "--prob-max", "1.0"]
    for name, flags in (("bare", []), ("given", defaults)):
        data, utility = tmp_path / f"{name}.txt", tmp_path / f"{name}_u.txt"
        assert run([command, "--seed", "4", *source, *flags, "--data", str(data),
                    "--utility", str(utility)], capsys) == (0, "", "")
        assert data.read_bytes() == (tmp_path / "lib.txt").read_bytes()
        assert utility.read_bytes() == (tmp_path / "lib_u.txt").read_bytes()


def test_render_patterns_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render_patterns((), "xml")


def test_augment_command(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("1 5 9\n2 5\n9 1\n")
    data = tmp_path / "aug.txt"
    utility = tmp_path / "aug_u.txt"
    code, _, _ = run(
        ["augment", "--input", str(plain), "--seed", "8",
         "--data", str(data), "--utility", str(utility)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["stats", "--data", str(data), "--utility", str(utility)], capsys)
    assert code == 0
    assert "transactions=3" in out
    assert "items=4" in out


def test_interrupted_command_exits_130(monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "mine", interrupted)
    try:
        code, out, err = run(["mine", *EXAMPLE_FLAGS, "--alpha", "0.5", "--beta", "0.5",
                              "--gamma", "0"], capsys)
    except KeyboardInterrupt:  # not let through to the test session
        pytest.fail("main let KeyboardInterrupt through")
    assert code == 130
    assert out == ""
    assert err == "occumine: interrupted\n"


@pytest.mark.skipif(sys.platform == "win32", reason="sends SIGINT")
def test_sigint_stops_a_running_mine_with_exit_130(tmp_path):
    # 18 items in transactions of about 16: s1 visits most of the 262,143
    # itemsets, several seconds of search, so the signal lands inside it.
    data, utility = tmp_path / "deep.txt", tmp_path / "deep_utility.txt"
    config = GeneratorConfig(seed=5, num_transactions=300, num_items=18,
                             avg_transaction_length=16)
    save_database(generate(config), data, utility)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "occumine.cli", "mine", "--data", str(data),
         "--utility", str(utility), "--alpha", "0.01", "--beta", "1", "--gamma", "0",
         "--strategies", "s1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(1.0)
        assert child.poll() is None, "mine ended before the signal"
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 130
    assert out == ""
    assert err == "occumine: interrupted\n"
