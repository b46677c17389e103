import argparse
import inspect
import math
from dataclasses import fields
from typing import get_args, get_type_hints

import pytest

from novlab import cli, experiments, solver
from novlab.cli import RunConfig, main, parse_args, run
from novlab.experiments import StudyReport
from novlab.spectral import Grid


SMALL = ["--grid-points", "4096", "--domain-length", "64", "--num-terms", "6",
         "--n-min", "3", "--n-max", "5"]


class TestParseArgs:
    def test_study_fills_defaults(self):
        cfg = parse_args(["study", "separation", "--s", "3", "--p", "2"])
        assert cfg.command == "study"
        assert cfg.study_name == "separation"
        assert cfg.s == 3.0 and cfg.p == 2.0
        assert cfg.lam == pytest.approx(68.0 / 48.0)
        assert cfg.num_terms == 12
        assert cfg.delta == 0.1
        assert (cfg.n_min, cfg.n_max) == (5, 11)

    def test_p_accepts_inf(self):
        cfg = parse_args(["study", "blockscale", "--p", "inf"])
        assert math.isinf(cfg.p)

    def test_rejects_low_regularity(self, capsys):
        assert main(["study", "separation", "--s", "2", "--p", "2"]) == 2
        assert "s > max(2 + 1/p, 5/2)" in capsys.readouterr().err

    def test_rejects_lambda_outside_window(self, capsys):
        assert main(["study", "separation", "--lambda", "1.5"]) == 2
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--t-final", "inf"), ("--t-final", "nan"), ("--t-final", "-1"),
        ("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"),
    ])
    def test_rejects_nonfinite_or_negative_time_settings(self, flag, value, capsys):
        assert main(["solve", flag, value]) == 2
        err = capsys.readouterr().err
        assert f"constraint violated: {flag[2:].replace('-', '_')}" in err

    def test_dt_cap_may_exceed_t_final(self, tmp_path):
        out = tmp_path / "one_step"
        assert main(["solve", "--dt", "1", "--t-final", "1e-3", "--output", str(out)]
                    + SMALL) == 0

    @pytest.mark.parametrize("argv,message", [
        (["generate-data", "--num-terms", "70"], "not resolved"),
        (["generate-data", "--num-terms", "2000"], "not resolved"),
        (["generate-data", "--domain-length", "inf"], "length"),
        (["generate-data", "--s", "inf"], "constraint violated: s"),
        (["study", "inequalities", "--corpus-size", "100", "--s", "inf"],
         "constraint violated: s"),
        (["study", "separation", "--n-min", "4", "--n-max", "5", "--num-terms", "6",
          "--grid-points", "4096", "--domain-length", "64"], "n_range"),
        # a block weight 2^(j s), j <= j_max, that overflows a double
        (["decompose", "--s", "95"], "constraint violated: s"),
        (["study", "blockscale", "--s", "100"], "constraint violated: s"),
        (["study", "inequalities", "--s", "400"], "constraint violated: s"),
        # a grid whose Nyquist frequency is below 1 has no dyadic ring
        (["study", "inequalities", "--domain-length", "1e6", "--corpus-size", "100"],
         "Nyquist"),
        (["study", "inequalities", "--grid-points", "16"], "Nyquist"),
        # corpus products below Nyquist/2 = 1.84 leave every commutator block zero
        (["study", "inequalities", "--domain-length", "7000", "--corpus-size", "100"],
         "Nyquist"),
        (["study", "inequalities", "--seed", "-1"], "seed"),
        # two bands pass the range rule but no power-law fit
        (["study", "separation", "--grid-points", "16384", "--domain-length", "64",
          "--num-terms", "9", "--n-min", "5", "--n-max", "6"], "n_range"),
        (["study", "blockscale", "--n-min", "3", "--n-max", "4"], "n_range"),
        # a step cap below the solver's step floor would never finish
        (["solve", "--dt", "1e-300"], "constraint violated: dt"),
        (["study", "shorttime", "--dt", "1e-300"], "constraint violated: dt"),
        # below the floor of separation's horizon delta 2^-n_min = 3.1e-3
        (["study", "separation", "--dt", "1e-14"], "constraint violated: dt"),
        # the step-cap rule runs before the time-ladder rule
        (["study", "shorttime", "--t-final", "-1"], "t_final"),
        # a block weight 2^(j s) of the step norm overflows from s = 1024/5 at j_max = 5
        (["solve", "--s", "1e308", "--grid-points", "1024", "--domain-length", "64",
          "--num-terms", "4", "--t-final", "1e-3"], "constraint violated: s"),
    ])
    def test_invalid_config_writes_no_dump(self, argv, message, tmp_path, capsys):
        dump = tmp_path / "dump.conf"
        out = tmp_path / "never"
        assert main(argv + ["--dump-config", str(dump), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "constraint violated" in err and message in err
        assert not list(tmp_path.iterdir())

    def test_separation_checks_dt_against_its_own_horizon(self):
        # separation integrates to delta 2^-n_min = 3.1e-3 and ignores
        # --t-final: 1e-12 clears that horizon's step floor, not 1's
        assert parse_args(["study", "separation", "--t-final", "1", "--dt", "1e-12"]).dt == 1e-12

    @pytest.mark.parametrize("argv", [
        ["generate-data", "--config", "{tmp}/missing.conf"],
        ["generate-data", "--dump-config", "{tmp}/missing/dump.conf"],
    ])
    def test_file_errors_exit_two(self, argv, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--output", str(tmp_path / "never")] + SMALL) == 2
        assert "I/O error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("line,key", [("s=abc", "'s'"), ("num_terms", "'num_terms'")])
    def test_bad_config_value_names_its_key(self, line, key, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "never"
        assert main(["generate-data", "--config", str(conf), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config key" in err and key in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]

    @pytest.mark.parametrize("command", ["generate-data"])
    def test_large_s_needs_no_block_weight(self, command):
        # data synthesis weights no block, so it is the one run that takes
        # an s past the block-weight rule (11 s >= 1024 at the default grid)
        assert parse_args([command, "--s", "95"]).s == 95.0

    def test_rejects_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["study", "separation", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_rejects_unknown_study(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["study", "nonsense"])
        assert exc.value.code == 2

    def test_flags_override_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("s=3.5\nnum_terms=8\n")
        cfg = parse_args(["study", "blockscale", "--config", str(conf),
                          "--s", "3.0", "--n-max", "7"])
        assert cfg.s == 3.0  # flag wins
        assert cfg.num_terms == 8  # file wins over default
        assert cfg.n_max == 7

    def test_config_rejects_unknown_keys(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("bogus=1\n")
        with pytest.raises(ValueError, match="bogus"):
            parse_args(["study", "blockscale", "--config", str(conf)])

    @pytest.mark.parametrize("kind", [
        ["generate-data"], ["solve"], ["decompose"], ["study", "blockscale"],
        ["study", "shorttime"], ["study", "separation"],
        # its grid defaults come from parse_args, not from RunConfig
        ["study", "inequalities"],
    ], ids=lambda kind: kind[-1])
    def test_dump_config_round_trip(self, kind, tmp_path):
        dump = tmp_path / "dump.conf"
        argv = kind + ["--s", "3.2", "--num-terms", "9", "--n-max", "8",
                       "--dump-config", str(dump)]
        cfg = parse_args(argv)
        reloaded = parse_args(kind + ["--config", str(dump)])
        assert reloaded == cfg

    def test_config_values_take_their_field_types(self, tmp_path):
        # == cannot tell 8 from 8.0, so the round trip alone would not catch
        # an int setting read back as a float
        dump = tmp_path / "dump.conf"
        parse_args(["study", "shorttime", "--p", "inf", "--num-terms", "9", "--seed", "7",
                    "--dt", "1e-3", "--output", str(tmp_path / "out"),
                    "--dump-config", str(dump)])
        cfg = parse_args(["study", "shorttime", "--config", str(dump)])
        types = get_type_hints(RunConfig)
        for f in fields(RunConfig):
            value = getattr(cfg, f.name)
            if value is not None:
                assert type(value) is (get_args(types[f.name]) or (types[f.name],))[0], f.name
        assert cfg.num_terms == 9 and cfg.seed == 7 and cfg.p == math.inf

    def test_corpus_grid_with_nonzero_commutators_is_accepted(self):
        # Nyquist 2.57: the corpus products reach past the low-pass plateau
        cfg = parse_args(["study", "inequalities", "--domain-length", "5000"])
        assert cfg.domain_length == 5000.0

    def test_inequalities_defaults_to_small_grid(self):
        cfg = parse_args(["study", "inequalities"])
        assert cfg.grid_points == 2**12
        assert cfg.domain_length == 64.0

    def test_study_and_cli_share_the_corpus_grid_default(self):
        cfg = parse_args(["study", "inequalities"])
        default = inspect.signature(experiments.study_inequalities).parameters["grid"].default
        assert default == Grid(cfg.grid_points, cfg.domain_length)

    def test_nonexistent_output_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "prefix"
        code = main(["generate-data", "--output", str(out)] + SMALL)
        assert code == 2
        assert not (tmp_path / "missing").exists()


def _command_parsers() -> dict:
    """The parser of each command, by name."""
    return next(action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


class TestFlagTable:
    def test_every_setting_flag_is_its_runconfig_field(self):
        # RunConfig is the one table of settings: each command's options,
        # bar -h, --config and --dump-config, are its fields but command and
        # study_name, each under its name, with its annotated type
        types = get_type_hints(RunConfig)
        settings = [f.name for f in fields(RunConfig)][2:]
        renamed = {"lam": "--lambda", "output_path": "--output"}
        parsers = _command_parsers()
        assert sorted(parsers) == ["decompose", "generate-data", "solve", "study"]
        for command, parser in parsers.items():
            options = [action for action in parser._actions if action.option_strings
                       and action.option_strings[0] not in ("-h", "--config", "--dump-config")]
            assert [action.dest for action in options] == settings, command
            for action in options:
                flag = renamed.get(action.dest, "--" + action.dest.replace("_", "-"))
                assert action.option_strings == [flag]
                assert action.type is (get_args(types[action.dest])
                                       or (types[action.dest],))[0], action.dest
                assert action.default is None and "read by" in action.help, action.dest

    def test_study_help_states_both_grid_defaults(self, capsys):
        # study inequalities runs on its own small grid unless one is given
        with pytest.raises(SystemExit):
            parse_args(["study", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        desk, corpus = parse_args(["study", "separation"]), parse_args(["study", "inequalities"])
        for key in ("grid_points", "domain_length"):
            pair = f"(default {getattr(desk, key)}; {getattr(corpus, key)} for study inequalities)"
            assert pair in text, key


class TestRun:
    def test_generate_data_writes_dumps(self, tmp_path):
        out = tmp_path / "data"
        code = main(["generate-data", "--output", str(out)] + SMALL)
        assert code == 0
        from novlab import load_field

        rho, meta = load_field(f"{out}_rho.csv")
        assert rho.grid.num_points == 4096
        assert "tail_bound" in meta

    def test_solve_zero_horizon_dumps_initial_state(self, tmp_path, capsys):
        out = tmp_path / "frozen"
        code = main(["solve", "--t-final", "0", "--output", str(out)] + SMALL)
        assert code == 0
        assert "at t=0 (0 steps, 0 rejected)" in capsys.readouterr().out
        from novlab import load_field

        rho, meta = load_field(f"{out}_rho.csv")
        assert float(meta["time"]) == 0.0

    def test_solve_refuses_a_first_step_below_the_floor(self, tmp_path, capsys,
                                                        monkeypatch):
        # the first guess, about 3e-2, lies far below the floor
        # MIN_STEP_FRACTION * 1e300: no step is tried and no file written
        steps = []
        step_rk4 = solver.step_rk4
        monkeypatch.setattr(solver, "step_rk4",
                            lambda *a, **k: steps.append(a) or step_rk4(*a, **k))
        out = tmp_path / "far"
        assert main(["solve", "--t-final", "1e300", "--output", str(out)] + SMALL) == 2
        assert "below its floor" in capsys.readouterr().err
        assert steps == [] and not list(tmp_path.iterdir())

    def test_solve_meets_the_block_weight_rule(self, tmp_path, capsys, count_ffts):
        # j_max = 7 on 4096 points in a box of 64, so 2^(7 s) overflows at
        # s = 200: solve is refused by the rule blockscale applies, before
        # any transform, and writes nothing
        counts = count_ffts()
        argv = ["--grid-points", "4096", "--domain-length", "64", "--num-terms", "6",
                "--s", "200", "--output", str(tmp_path / "heavy")]
        errors = []
        for command in (["solve"], ["study", "blockscale"]):
            assert main(command + argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "s = 200 overflows a block weight 2^(j s), -1 <= j <= 7" in errors[0]
        assert counts == {"rfft": 0, "irfft": 0}
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("s", ["146", "100"])
    def test_inequalities_refuses_an_s_whose_ratios_may_overflow(self, s, tmp_path, capsys,
                                                                  count_ffts):
        # each block weight 2^(7 s) is finite, but the product law's
        # denominator could pass the largest double: refused before any
        # transform, and nothing is written
        counts = count_ffts()
        argv = ["study", "inequalities", "--s", s, "--corpus-size", "100",
                "--output", str(tmp_path / "heavy")]
        assert main(argv) == 2
        assert f"constraint violated: s = {s} may overflow a corpus ratio" in capsys.readouterr().err
        assert counts == {"rfft": 0, "irfft": 0}
        assert not list(tmp_path.iterdir())

    def test_decompose_writes_block_table(self, tmp_path):
        out = tmp_path / "dec"
        code = main(["decompose", "--output", str(out)] + SMALL)
        assert code == 0
        text = (tmp_path / "dec_blocks.csv").read_text()
        assert "# columns: j,weighted_rho_block,weighted_u_block" in text

    @pytest.mark.parametrize("study,argv,num_verdicts", [
        ("blockscale", ["--grid-points", "16384", "--domain-length", "64",
                        "--num-terms", "9", "--n-min", "4", "--n-max", "8"], 6),
        ("shorttime", ["--grid-points", "4096", "--domain-length", "64",
                       "--num-terms", "6"], 4),
        ("separation", ["--grid-points", "16384", "--domain-length", "64",
                        "--num-terms", "9", "--n-min", "5", "--n-max", "8"], 4),
        ("inequalities", ["--corpus-size", "100"], 6),
    ], ids=["blockscale", "shorttime", "separation", "inequalities"])
    def test_study_end_to_end(self, study, argv, num_verdicts, tmp_path):
        out = tmp_path / "st"
        assert main(["study", study, "--output", str(out)] + argv) == 0
        csv = (tmp_path / f"st_{study}.csv").read_text().splitlines()
        verdicts = [line for line in csv if line.startswith("# verdict:")]
        assert len(verdicts) == num_verdicts
        assert all("=PASS" in line for line in verdicts)
        assert (tmp_path / f"st_{study}.gp").exists()

    def test_failing_verdict_maps_to_exit_one(self, tmp_path, monkeypatch):
        report = StudyReport(
            study_name="blockscale", params={}, tolerances={},
            columns=["n", "y"], rows=[(1, 1.0)],
        )
        report.add_verdict("doomed", False, 0.0, "always fails")
        monkeypatch.setattr(cli.experiments, "study_block_scaling",
                            lambda *a, **k: report)
        code = run(RunConfig(command="study", study_name="blockscale",
                             num_terms=6, grid_points=4096, domain_length=64.0,
                             n_min=3, n_max=5,
                             output_path=str(tmp_path / "fail")))
        assert code == 1
        assert (tmp_path / "fail_blockscale.csv").exists()

    @pytest.mark.parametrize("limits,argv,message", [
        ({"BLOWUP_FACTOR": 0.5}, ["study", "shorttime"], "blow-up guard tripped"),
        # with no tolerance every step whose error is not exactly 0 is
        # rejected, so the shrinking step soon crosses a floor of 1e-2 of
        # the horizon
        ({"RTOL": 0.0, "ATOL": 0.0, "MIN_STEP_FRACTION": 1e-2}, ["solve"], "below its floor"),
    ], ids=["blowup", "step-floor"])
    def test_tripped_solver_guard_exits_two(self, limits, argv, message, tmp_path,
                                            monkeypatch, capsys):
        for name, value in limits.items():
            monkeypatch.setattr(solver, name, value)
        out = tmp_path / "guarded"
        small = ["--grid-points", "4096", "--domain-length", "64", "--num-terms", "6"]
        assert main(argv + small + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command,study_name", [("bogus", None), ("study", "blockscal")])
    def test_unknown_command_or_study_runs_nothing(self, command, study_name, tmp_path):
        # a config that would run a separation study, bar its misspelt name
        cfg = RunConfig(command=command, study_name=study_name, num_terms=9,
                        grid_points=16384, domain_length=64.0, n_min=5, n_max=8,
                        output_path=str(tmp_path / "never"))
        with pytest.raises(ValueError, match="'bogus'|'blockscal'"):
            run(cfg)
        assert not list(tmp_path.iterdir())
