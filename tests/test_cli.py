"""Tests for the command-line interface (``python -m repro ...``)."""

import re

import pytest

import repro.harness
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.m == 73 and args.n == 73 and args.k == 2
        assert args.platform == "gpu"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--load", "abc"], "--load: invalid positive number value: 'abc'"),
            (["mapping", "--limit", "x"], "--limit: invalid non-negative integer value: 'x'"),
            (["serve", "--capacity", "x"], "--capacity: invalid positive integer value: 'x'"),
        ],
    )
    def test_unparsable_value_names_the_expected_kind(self, argv, message, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        err = capsys.readouterr().err
        assert message in err
        assert "_positive" not in err and "_non_negative" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["experiment", "--checkpoint-every", "-1"],
             "--checkpoint-every: must be positive, got -1"),
            (["experiment", "--trials", "0"], "--trials: must be positive, got 0"),
            (["experiment", "--iterations", "-1"], "--iterations: must be non-negative, got -1"),
            (["experiment", "--evaluator", "multi-gpu", "--devices", "0"],
             "--devices: must be positive, got 0"),
            (["devices", "--topology", "shared", "--devices", "0"],
             "--devices: must be positive, got 0"),
            (["devices", "--devices", "0"], "--devices: must be positive, got 0"),
            (["serve", "--trace-jobs", "-4"], "--trace-jobs: must be positive, got -4"),
            (["serve", "--capacity", "0"], "--capacity: must be positive, got 0"),
            (["solve", "--platform", "multi-gpu", "--devices", "-3"],
             "--devices: must be positive, got -3"),
            (["solve", "--seed", "-1"], "--seed: must be non-negative, got -1"),
            (["solve", "--m", "0"], "--m: must be positive, got 0"),
            (["figure8", "--points", "0"], "--points: must be positive, got 0"),
            (["mapping", "--k", "0"], "--k: must be positive, got 0"),
        ],
    )
    def test_out_of_range_value_fails_at_parse_time(self, argv, message, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert message in capsys.readouterr().err


class TestDevicesCommand:
    def test_lists_presets(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "GTX 280" in out
        assert "Xeon" in out


class TestMappingCommand:
    def test_prints_mapping_table(self, capsys):
        assert main(["mapping", "--n", "6", "--k", "2", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "15 moves" in out
        assert "thread    0 -> flip bits (0, 1)" in out
        assert "more" in out  # truncation notice

    def test_negative_limit_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["mapping", "--n", "6", "--k", "2", "--limit", "-1"])
        assert "--limit: must be non-negative" in capsys.readouterr().err

    def test_order_above_the_length_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["mapping", "--n", "3", "--k", "5"])
        assert stop.value.code == 2
        assert "--k 5 exceeds the solution length --n 3" in capsys.readouterr().err

    def test_full_table_without_truncation(self, capsys):
        assert main(["mapping", "--n", "5", "--k", "1", "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "more" not in out


class TestSolveCommand:
    def test_solves_small_instance_on_gpu(self, capsys):
        code = main(["solve", "--m", "25", "--n", "25", "--k", "3",
                     "--iterations", "60", "--seed", "0"])
        out = capsys.readouterr().out
        assert "25 x 25 PPP" in out
        assert "modeled acceleration" in out
        assert code in (0, 1)

    def test_cpu_and_multigpu_platforms(self, capsys):
        for platform in ("cpu", "multi-gpu"):
            code = main(["solve", "--m", "15", "--n", "15", "--k", "2",
                         "--iterations", "40", "--platform", platform])
            assert code in (0, 1)
        out = capsys.readouterr().out
        assert "platform: cpu" in out and "platform: multi-gpu" in out

    def test_texture_flag(self, capsys):
        code = main(["solve", "--m", "15", "--n", "15", "--k", "1",
                     "--iterations", "20", "--texture"])
        assert code in (0, 1)

    def test_acceleration_follows_the_transfer_mode(self, capsys):
        # One CPU step times the run's iterations over the run's own
        # simulated time: the transfer mode that ran shows in the factor.
        factors = {}
        for mode in ("full", "reduced", "persistent"):
            main(["solve", "--m", "73", "--n", "73", "--k", "1", "--iterations", "100",
                  "--platform", "gpu", "--transfer-mode", mode])
            out = capsys.readouterr().out
            factors[mode] = re.search(r"single-core CPU: x(\S+)", out).group(1)
        assert factors["full"] == "0.4"
        assert float(factors["reduced"]) < float(factors["full"])
        assert float(factors["persistent"]) > float(factors["full"])


    def test_zero_iterations_print_no_factor(self, capsys):
        main(["solve", "--m", "11", "--n", "11", "--k", "1", "--iterations", "0"])
        out = capsys.readouterr().out
        assert "modeled acceleration vs single-core CPU: n/a" in out
        assert "inf" not in out


class TestExperimentCommand:
    def test_zero_iterations_print_no_factor(self, capsys):
        assert main(["experiment", "--m", "11", "--n", "11", "--k", "1",
                     "--trials", "1", "--iterations", "0"]) == 0
        out = capsys.readouterr().out
        assert "(n/a)" in out
        assert "inf" not in out

    def test_experiment(self, capsys):
        assert main(["experiment", "--m", "25", "--n", "25", "--k", "1",
                     "--trials", "4", "--iterations", "20"]) == 0
        out = capsys.readouterr().out
        assert "25 x 25 PPP" in out
        assert "successes" in out

    @pytest.mark.parametrize("flag", ["--trial-mode", "--jobs"])
    def test_retired_trial_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", flag, "2"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", flag, "2"])


class TestTablesAndFigureCommands:
    def test_repeated_table_is_built_once(self, capsys, monkeypatch):
        built = []
        for index, name in enumerate(("table_one", "table_two"), start=1):
            monkeypatch.setattr(
                repro.harness, name, lambda scale, index=index: built.append(index) or []
            )
        assert main(["tables", "--table", "2", "--table", "1", "--table", "2"]) == 0
        out = capsys.readouterr().out
        assert built == [2, 1]
        assert out.count("Table I (") == 1 and out.count("Table II (") == 1

    def test_tables_smoke_single_table(self, capsys):
        assert main(["tables", "--scale", "smoke", "--table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" not in out
        assert "25 x 25" in out

    def test_figure8_smoke_truncated(self, capsys):
        assert main(["figure8", "--scale", "smoke", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "101 x 117" in out
        assert "401 x 417" not in out


class TestServeCommand:
    def test_load_takes_a_positive_number(self, capsys):
        assert build_parser().parse_args(["serve", "--load", "0.5"]).load == 0.5
        for load in ("-1", "0", "inf", "nan"):
            with pytest.raises(SystemExit):
                main(["serve", "--load", load])
            assert "--load: must be a positive number" in capsys.readouterr().err

    def test_generated_trace_both_policies(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(["serve", "--m", "15", "--n", "15", "--devices", "2",
                     "--capacity", "8", "--trace-jobs", "12",
                     "--save-trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "15 x 15 PPP" in out
        assert "capacity 8 replica slots" in out
        assert "p99 latency" in out
        assert "continuous" in out and "drain" in out
        assert "goodput: x" in out
        assert trace_path.exists()

    def test_replays_saved_trace(self, capsys, tmp_path):
        from repro.service import poisson_trace, save_trace

        trace_path = tmp_path / "trace.json"
        jobs = poisson_trace(6, 50.0, rng=2, replicas=(1, 2), budget=(5, 15))
        save_trace(trace_path, jobs, problem={"m": 17, "n": 17, "k": 1, "seed": 3})
        assert main(["serve", "--trace", str(trace_path), "--evaluator", "gpu",
                     "--capacity", "4", "--policy", "continuous"]) == 0
        out = capsys.readouterr().out
        # Instance geometry comes from the trace metadata, not the defaults.
        assert "17 x 17 PPP" in out
        assert "6 jobs" in out
        assert "drain" not in out
