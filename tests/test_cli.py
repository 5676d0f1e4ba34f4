import csv
import json

import pytest

from occumine.cli import main

from conftest import EXAMPLE_TRANSACTIONS, EXAMPLE_UTILITIES

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
    assert "elapsed_ms" in stats


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
    assert "not in (0, 1]" in capsys.readouterr().err


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


def test_bench_inline(capsys):
    code, out, _ = run(
        ["bench", *EXAMPLE_FLAGS, "--alphas", "0.2,0.3,0.4", "--betas", "0.3",
         "--gammas", "0.05", "--strategies", "full,s12,s13,s1"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 12
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
    ],
)
def test_bench_plan_file_bad_key_exits_2(tmp_path, capsys, extra, message):
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN_TEXT + extra)
    code, out, err = run(["bench", "--plan", str(plan)], capsys)
    assert (code, out) == (2, "")
    assert message in err


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


@pytest.mark.parametrize("value", ["inf", "nan", "0.5"])
def test_generate_bad_avg_length_exits_2(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--seed", "1", "--transactions", "5", "--items", "4",
              "--avg-length", value,
              "--data", str(tmp_path / "d.txt"), "--utility", str(tmp_path / "u.txt")])
    assert info.value.code == 2
    assert "is not a finite number >= 1" in capsys.readouterr().err


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
    assert "--prob-min 0.5 is above --prob-max 0.4" in capsys.readouterr().err
    assert not data.exists()


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
