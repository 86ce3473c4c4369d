import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from implicitfp import cli, mappings, schemes

SRC = str(Path(cli.__file__).resolve().parents[1])


def run_cli(args):
    return cli.main(args)


class TestTable:
    def test_verify_defaults(self, capsys):
        assert run_cli(["table", "--verify"]) == 0
        out = capsys.readouterr()
        assert "0.307692307692308" in out.out
        assert "all table cells match" in out.err

    def test_infinite_distance_prints_inf(self, capsys):
        # the distance from 1.7e308 to p = -1.7e308 overflows to inf
        argv = ["table", "--mapping", "affine:0.9|-1.7e307", "--x0", "1.7e308", "--n-max", "5"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.split("\n")[1].split() == ["2", "inf", "inf", "inf"]
        assert run_cli(argv + ["--verify"]) == 1
        assert "verify mismatch at n=2 imi: got inf" in capsys.readouterr().err

    def test_n_max_one_single_row(self, capsys):
        assert run_cli(["table", "--n-max", "1"]) == 0
        out = capsys.readouterr().out
        assert out.strip().split("\n")[-1].lstrip().startswith("1")

    def test_verify_fails_for_other_mapping(self):
        assert run_cli(["table", "--mapping", "affine:0.9", "--verify"]) == 1

    def test_unknown_mapping_is_config_error(self):
        assert run_cli(["table", "--mapping", "nosuch"]) == 2

    def test_csv_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["table", "--format", "csv", "--output", str(p1)]) == 0
        assert run_cli(["table", "--format", "csv", "--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
        assert b"\r" not in p1.read_bytes()

    def test_verify_checks_the_start_point(self, capsys):
        # the table runs from --x0; only x0 = 1 gives the reference cells
        assert run_cli(["table", "--x0", "1", "--verify"]) == 0
        assert run_cli(["table", "--x0", "2", "--verify"]) == 1
        out = capsys.readouterr()
        assert "1.333333333333333" in out.out
        assert "verify mismatch at n=2 imi" in out.err

    def test_bad_start_point_is_config_error(self, capsys):
        assert run_cli(["table", "--x0", "nonsense"]) == 2
        assert capsys.readouterr().err.startswith("config error: bad --x0 'nonsense'")

    def test_scheme_failure_exit_code(self, monkeypatch):
        from implicitfp.errors import NonconvergenceError

        def boom(*args, **kwargs):
            raise NonconvergenceError("inner solver exceeded budget")

        monkeypatch.setattr(cli.experiments, "reproduce_table", boom)
        assert run_cli(["table"]) == 3


class TestCompare:
    def test_assert_faster_defaults(self, capsys):
        assert run_cli(["compare", "--assert-faster", "--n-max", "60",
                        "--horizon", "50"]) == 0
        out = capsys.readouterr().out
        assert "faster" in out

    def test_tripod(self):
        assert run_cli(["compare", "--mapping", "tripod-radial:0.5",
                        "--assert-faster", "--n-max", "60", "--horizon", "50"]) == 0

    @pytest.mark.parametrize("x0", ["0,1e300", "0,1e-320"])
    def test_halfplane_from_a_wide_scale(self, x0, capsys):
        # y1*y2 overflows (1e300) or underflows (1e-320) along these runs
        assert run_cli(["compare", "--mapping", "halfplane-vertical:0.5",
                        "--x0", x0, "--assert-faster"]) == 0
        out = capsys.readouterr().out
        assert out.count(": faster") == 4

    def test_halfplane_step_whose_height_ratio_overflows(self, capsys):
        # from y = 1e-320 the first Ishikawa step interpolates toward T x at
        # about 5.2e-10, a ratio past the largest float
        assert run_cli(["compare", "--mapping", "halfplane-vertical:0.1",
                        "--x0", "0,1e-320", "--assert-faster"]) == 0
        assert capsys.readouterr().out.count(": faster") == 4

    @pytest.mark.parametrize("argv", [
        ["--x0", "1e200"],
        ["--x0", "1e-200"],
        ["--mapping", "affine:0.5,0.1;0,0.4|1,2", "--x0", "1e200,1e200"],
    ], ids=["halving-1e200", "halving-1e-200", "affine-2-1e200"])
    def test_euclidean_from_a_wide_scale(self, argv, capsys):
        # d(x0, p) would overflow (1e200) or underflow (1e-200) if squared
        assert run_cli(["compare", *argv, "--assert-faster"]) == 0
        out = capsys.readouterr().out
        assert out.count(": faster") == 4 and len(out.splitlines()) == 4

    def test_envelope_that_underflows_is_degenerate(self, capsys):
        # from the smallest subnormal every scheme lands on 0 at n = 2, and
        # the envelopes f * d0 underflow to 0: no comparison can be made,
        # which is a verdict, not an error
        assert run_cli(["compare", "--x0", "5e-324"]) == 0
        out = capsys.readouterr().out
        assert out.count(": degenerate (final ratio None)") == 4
        assert out.count("converged exactly at n=2") == 3
        assert run_cli(["compare", "--x0", "5e-324", "--assert-faster"]) == 1

    def test_an_overflowing_d0_is_degenerate(self, capsys):
        # x0 and p = -1.7e308 are finite, but d(x0, p) overflows: every
        # envelope and the first actual distances are inf, with no ratio to judge
        argv = ["compare", "--mapping", "affine:0.9|-1.7e307", "--x0", "1.7e308", "--n-max", "50"]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert out.count(": degenerate (final ratio None)") == 4 and len(out.splitlines()) == 4
        assert run_cli(argv + ["--assert-faster"]) == 1

    def test_a_slow_ray_from_a_wide_start_converges_at_once(self, capsys):
        # at alpha = 0 each step is x = T y, whose solution is the hub; Picard
        # from x0 = 1e112 at c = 0.99 ran out of its 10 000 iterations, while
        # the closed form starts there and every scheme lands on p at n = 2
        argv = ["compare", "--mapping", "tripod-radial:0.99", "--x0", "A:1e112",
                "--schedule", "constant:0.0,0.5"]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert out.count(": degenerate (final ratio None)") == 4
        assert out.count("converged exactly at n=2") == 3

    @pytest.mark.parametrize("x0", ["5e-324", "0"])
    def test_exact_convergence_without_a_verdict(self, x0, capsys):
        assert run_cli(["compare", "--x0", x0]) == 0
        out = capsys.readouterr().out
        assert out.count("too few points before it for a verdict") == 3
        assert "pre-zero prefix" not in out

    def test_exact_convergence_after_a_verdict(self, capsys):
        # S lands on the fixed point at n = 50; both actual verdicts are made
        # on the points before it
        argv = ["compare", "--mapping", "halfplane-vertical:0.5", "--x0", "2,3"]
        assert run_cli([*argv, "--assert-faster"]) == 0
        out = capsys.readouterr().out
        assert out.count(": faster") == 4
        assert out.endswith("implicit-s: converged exactly at n=50; "
                            "verdict computed on the pre-zero prefix\n")

    @pytest.mark.parametrize("command", ["table", "compare", "bounds", "datadep"])
    def test_space_flag_is_an_argument_error(self, command, capsys):
        # the space is the one --mapping lives on; --space belongs to axiom-check
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--mapping", "halving", "--space", "tripod"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --space tripod" in capsys.readouterr().err


class TestBounds:
    def test_n_max_below_one_is_config_error(self, capsys):
        assert run_cli(["bounds", "--n-max", "0"]) == 2
        assert capsys.readouterr().err == "config error: n_max must be >= 1, got 0\n"

    def test_csv_columns(self, capsys):
        assert run_cli(["bounds", "--n-max", "20"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,a_n,b_n,c_n,dist_s,dist_mann,dist_ishikawa"
        assert len(lines) == 20  # header + n = 2..20

    def test_literal_flag_changes_values(self, capsys):
        run_cli(["bounds", "--n-max", "10"])
        plain = capsys.readouterr().out
        run_cli(["bounds", "--n-max", "10", "--literal"])
        literal = capsys.readouterr().out
        assert plain != literal


class TestDatadep:
    def test_proof_variant_hand_value(self, capsys):
        assert run_cli(["datadep", "--perturb", "0.01", "--proof-variant"]) == 0
        out = capsys.readouterr().out
        assert "bound=0.08" in out
        assert "observed=0.02" in out

    def test_default_variant_inconclusive(self, capsys):
        assert run_cli(["datadep", "--perturb", "0.01"]) == 4
        out = capsys.readouterr().out
        assert "converged=False" in out
        assert "holds=True" in out

    def test_zero_perturbation(self, capsys):
        assert run_cli(["datadep", "--perturb", "0"]) == 0
        assert "observed=0.0" in capsys.readouterr().out

    def test_affine_closed_form_printed(self, capsys):
        assert run_cli(["datadep", "--mapping", "affine:0.3,0.1;0.0,0.4|0.1,0.2",
                        "--perturb", "0.01,0.0", "--proof-variant"]) == 0
        assert "closed_form_q=" in capsys.readouterr().out

    @pytest.mark.parametrize("perturb", ["0", "0.01"])
    def test_solver_mode_checked_with_or_without_offset(self, perturb, capsys):
        assert run_cli(["datadep", "--perturb", perturb, "--solver", "exact-affine"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: exact-affine mode requires an affine map on Euclidean space")
        assert run_cli(["datadep", "--mapping", "affine:0.7|0.3", "--perturb", perturb,
                        "--proof-variant", "--solver", "exact-affine"]) == 0

    @pytest.mark.parametrize("argv", [
        ["datadep", "--n-max", "1"], ["datadep", "--n-max", "0"],
        ["datadep", "--n-max", "1", "--perturb", "0"],
        ["datadep", "--n-max", "0", "--perturb", "0"],
    ])
    def test_too_few_steps_is_config_error(self, argv, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("config error: data dependence needs n_max >= 2")

    @pytest.mark.parametrize("perturb", ["0", "0.01"])
    @pytest.mark.parametrize("flags,message", [
        (["--schedule", "constant:1.0"], "data dependence requires alpha_n < 1"),
        (["--alpha", "1-1/(n-3)**2", "--n-max", "5"], "bad schedule expression"),
    ])
    def test_schedule_checked_with_or_without_offset(self, perturb, flags, message, capsys):
        assert run_cli(["datadep", "--perturb", perturb] + flags) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("argv", [
        ["--mapping", "affine:0.5,0;0,0.5", "--perturb", "1.7e308,1.7e308"],
        ["--mapping", "affine:0.5,0,0;0,0.5,0;0,0,0.5", "--perturb", "1.7e308,0,-1.7e308"],
    ])
    def test_offset_whose_epsilon_overflows(self, argv, capsys, recwarn):
        # the offset's norm passes the float max, so no epsilon certifies it
        assert run_cli(["datadep"] + argv) == 2
        assert "overflows" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_huge_offset_with_a_finite_epsilon(self, capsys):
        # q = 2e200 and its bound 8e200 are finite, and the run reaches q
        assert run_cli(["datadep", "--perturb", "1e200", "--proof-variant"]) == 0
        out = capsys.readouterr().out
        assert "epsilon=1e+200\n" in out and "q=2e+200\n" in out and "holds=True" in out

    @pytest.mark.parametrize("argv", [
        ["--perturb", "1e308"], ["--perturb", "1e308", "--proof-variant"],
        ["--mapping", "affine:0.5,0;0,0.5", "--perturb", "1e308,1e308"],
    ])
    def test_huge_offset_whose_run_leaves_the_floats(self, argv, capsys):
        # epsilon is finite, but an iterate passes the float max: a scheme failure
        assert run_cli(["datadep"] + argv) == 3
        assert "non-finite coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,epsilon", [
        (["--perturb", "1e-170", "--n-max", "1000"], "1e-170"),
        (["--perturb", "5e-324", "--n-max", "1000", "--schedule", "constant:0.5"], "5e-324"),
        (["--mapping", "affine:0.5,0;0,0.5", "--perturb", "0,-1e-170", "--n-max", "1000"],
         "1e-170"),
    ])
    def test_offset_whose_square_underflows(self, argv, epsilon, capsys):
        # once the u-sequence reaches q = S's fixed point the bound holds
        assert run_cli(["datadep", "--proof-variant"] + argv) == 0
        out = capsys.readouterr().out
        assert f"epsilon={epsilon}\n" in out and "holds=True" in out

    @pytest.mark.parametrize("perturb", ["1e-150", "1e-170"])
    def test_tiny_offset_short_of_q_is_inconclusive(self, perturb, capsys):
        # the u-steps are judged against 1e-10 * epsilon, not an absolute
        # 1e-12, so a run that stops far from q is not called converged
        assert run_cli(["datadep", "--proof-variant", "--perturb", perturb]) == 4
        out = capsys.readouterr().out
        assert "converged=False" in out and "holds=False" in out

    @pytest.mark.parametrize("x0", ["abc", "nan", "1,2"])
    def test_zero_perturbation_checks_x0(self, x0, capsys):
        assert run_cli(["datadep", "--perturb", "0", "--x0", x0]) == 2
        assert capsys.readouterr().err.startswith("config error: bad --x0")


@pytest.mark.parametrize("argv,n_max", [
    (["table"], 50), (["compare", "--n-max", "60", "--horizon", "50"], 60),
    (["bounds", "--n-max", "60"], 60), (["datadep", "--n-max", "60", "--proof-variant"], 60),
    (["datadep", "--n-max", "60", "--perturb", "0"], 60),
], ids=["table", "compare", "bounds", "datadep", "datadep-zero-offset"])
def test_schedule_evaluated_once_per_command(argv, n_max, counting_schedule, monkeypatch, capsys):
    schedule, evaluated_once = counting_schedule
    monkeypatch.setattr(schemes, "schedule_from_name", lambda name: schedule)
    assert run_cli(argv) == 0
    assert evaluated_once(n_max)


class TestAxiomCheck:
    @pytest.mark.parametrize("space", ["euclidean:3", "tripod", "halfplane"])
    def test_builtin_spaces_pass(self, space, capsys):
        assert run_cli(["axiom-check", "--space", space]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and all(ln.endswith("[pass]") for ln in lines[1:])

    def test_broken_space_flagged(self, capsys):
        assert run_cli(["axiom-check", "--space", "broken-demo"]) == 1
        lines = capsys.readouterr().out.splitlines()
        # each FAIL line is followed by its worst tuple
        fails = [i for i, ln in enumerate(lines) if ln.endswith("[FAIL]")]
        assert len(fails) >= 1 and len(lines) == 6 + len(fails)
        for i in fails:
            assert lines[i + 1].startswith("  worst tuple: x=")
        ii = next(i for i, ln in enumerate(lines) if ln.startswith("axiom_ii:"))
        fields = dict(kv.split("=") for kv in lines[ii + 1].split(": ", 1)[1].split())
        assert list(fields) == ["x", "y", "lam", "mu"]
        assert all(0.0 <= float(v) < 1.0 for v in (fields["lam"], fields["mu"]))

    def test_unknown_space(self):
        assert run_cli(["axiom-check", "--space", "nosuch"]) == 2

    # exit 1 means a failed axiom, so a bad flag value must not end there
    @pytest.mark.parametrize("flag", ["--samples=0", "--samples=-3", "--tol=0",
                                      "--tol=-1e-9", "--tol=nan", "--tol=inf",
                                      "--seed=-1"])
    def test_bad_argument_is_config_error(self, flag, capsys):
        assert run_cli(["axiom-check", flag]) == 2
        name = flag.split("=")[0]
        assert capsys.readouterr().err.startswith(f"config error: bad {name} ")


class TestConfigFile:
    def test_config_file_applies(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("n-max = 1\n")
        assert run_cli(["table", "--config", str(conf)]) == 0
        out = capsys.readouterr().out
        assert out.strip().split("\n")[-1].lstrip().startswith("1")

    def test_flags_beat_config(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("n-max = 1\n")
        assert run_cli(["table", "--config", str(conf), "--n-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.666666666666667" in out

    def test_explicit_default_value_beats_config(self, tmp_path, capsys):
        # --n-max 50 equals the parser default but is given, so it wins
        conf = tmp_path / "run.conf"
        conf.write_text("n_max = 10\nverify = yes\n")
        assert run_cli(["table", "--config", str(conf), "--n-max", "50"]) == 0
        out = capsys.readouterr()
        assert len(out.out.strip().split("\n")) == 1 + 14
        assert "all table cells match" in out.err

    @pytest.mark.parametrize("word,code", [
        ("1", 0), ("true", 0), ("Yes", 0), ("ON", 0),
        ("0", 0), ("false", 0), ("No", 0), ("off", 0),
        ("ture", 2), ("", 2), ("y", 2), ("2", 2), ("enabled", 2),
    ])
    def test_boolean_words(self, word, code, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"verify = {word}\n")
        assert run_cli(["table", "--config", str(conf)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("config error: bad boolean")
        else:
            assert ("all table cells match" in err) == (word.lower() in ("1", "true", "yes", "on"))

    def test_unknown_key_is_config_error(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("frobnicate = yes\n")
        assert run_cli(["table", "--config", str(conf)]) == 2

    def test_inline_schedule_expression(self, capsys):
        assert run_cli(["table", "--alpha", "1-1/n", "--verify"]) == 0

    @pytest.mark.parametrize("expr", [
        "().__class__.__mro__[1].__subclasses__() and 0.5",
        "[c for c in ().__class__.__mro__[1].__subclasses__()"
        " if c.__name__ == '_wrap_close'][0].__init__.__globals__['getpid']() * 0 + 0.5",
        "'0.5'",
    ], ids=["mro-walk", "getpid", "string"])
    def test_schedule_expression_cannot_run_code(self, expr, tmp_path, capsys):
        assert run_cli(["table", "--alpha", expr]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        conf = tmp_path / "run.conf"
        conf.write_text(f"alpha = {expr}\n")
        assert run_cli(["table", "--config", str(conf)]) == 2


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["compare", "--x0", "abc"],
        ["compare", "--x0", "Z:1"],
        ["compare", "--x0", "nan"],
        ["compare", "--x0", "1,2"],
        ["compare", "--mapping", "tripod-radial:0.5", "--x0", "A"],
        ["compare", "--mapping", "tripod-radial:0.5", "--x0", "Z:1"],
        ["compare", "--mapping", "halfplane-vertical:0.5", "--x0", "1"],
        ["datadep", "--perturb", "abc"],
        ["datadep", "--perturb", "nan"],
        ["datadep", "--perturb", "0.01,0.0"],
        ["datadep", "--perturb", "0,0"],
        ["datadep", "--perturb", "1,x"],
        ["datadep", "--mapping", "tripod-radial:0.5", "--perturb", "inf"],
        ["datadep", "--mapping", "tripod-radial:0.5", "--perturb", "nan"],
        ["datadep", "--mapping", "tripod-radial:0.5", "--perturb", "abc"],
        ["datadep", "--mapping", "tripod-radial:0.5", "--perturb", "0"],
        ["datadep", "--mapping", "tripod-radial:0.5", "--perturb", "-0.5"],
    ])
    def test_config_error_exit(self, argv, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("config error: bad --")

    @pytest.mark.parametrize("argv", [
        ["table", "--mapping", "affine:1.5"],
        ["table", "--mapping", "tripod-radial:1.5"],
        ["table", "--mapping", "halfplane-vertical:-0.2"],
        ["datadep", "--mapping", "affine:1.5", "--perturb", "0.01"],
        ["compare", "--mapping", "affine:0.9|1e308"],
        ["bounds", "--mapping", "tripod-radial:-1"],
    ])
    def test_out_of_range_mapping_parameter(self, argv, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: bad --mapping {argv[2]!r}")

    @pytest.mark.parametrize("command", ["table", "compare", "datadep"])
    @pytest.mark.parametrize("mapping,entry", [
        ("affine:nan", "A[0, 0] = nan"), ("affine:0.5,nan;0,0.5|0,0", "A[0, 1] = nan"),
        ("affine:0.5,0;inf,0.5|0,0", "A[1, 0] = inf"), ("affine:0.5|-inf", "b[0] = -inf"),
        ("affine:0.5,0;0,0.5|0,nan", "b[1] = nan"),
    ])
    def test_non_finite_affine_entry(self, command, mapping, entry, capsys):
        assert run_cli([command, "--mapping", mapping]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad --mapping {mapping!r}")
        assert f"entry {entry} is not finite" in err

    @pytest.mark.parametrize("argv", [
        ["table"], ["compare"], ["bounds", "--n-max", "10"],
        ["datadep", "--proof-variant"], ["datadep", "--perturb", "0"], ["axiom-check"],
    ])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_output_that_cannot_be_written(self, argv, where, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
        assert run_cli(argv + ["--output", str(path)]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("config error: cannot write --output") and out.out == ""

    @pytest.mark.parametrize("argv", [
        ["compare", "--seed", "3"], ["table", "--seed", "3"],
        ["bounds", "--digits", "3"], ["datadep", "--format", "csv"],
        ["compare", "--format", "table"], ["datadep", "--perturb-spec", "perturb:halving:0.01"],
    ])
    def test_flags_a_subcommand_would_ignore_are_rejected(self, argv, capsys):
        # --seed belongs to axiom-check, --digits and --format to table
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["seed", "digits", "format"])
    def test_config_key_a_subcommand_would_ignore_is_rejected(self, key, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = 3\n")
        assert run_cli(["compare", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.startswith("config error: unknown config key")

    @pytest.mark.parametrize("flags", [["--horizon", "0"], ["--horizon", "1"],
                                       ["--n-max", "1"], ["--n-max", "2"],
                                       ["--horizon", "-3"]])
    def test_too_few_comparison_points(self, flags, capsys):
        assert run_cli(["compare"] + flags) == 2
        assert "at least two comparison points" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--horizon", "2"], ["--n-max", "3"]])
    def test_two_comparison_points_suffice(self, flags):
        assert run_cli(["compare"] + flags) == 0

    @pytest.mark.parametrize("command", ["table", "compare", "bounds", "datadep"])
    def test_schedule_error_at_a_later_index(self, command, capsys):
        argv = [command, "--alpha", "1-1/(n-3)**2", "--n-max", "5"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad schedule expression") and "at n=3" in err


class TestNegativeValues:
    """A value that starts with '-' and a digit or '.' is read as the value of
    the flag before it, as `--flag=value` is: argparse alone takes it for a flag."""

    @pytest.mark.parametrize("argv", [
        ["compare", "--mapping", "affine:0.5,0;0,0.5", "--x0", "-1,2"],
        ["compare", "--mapping", "halfplane-vertical:0.5", "--x0", "-3,2"],
        ["datadep", "--mapping", "affine:0.5,0.1;0,0.4|1,2", "--perturb", "-0.01,0.005",
         "--proof-variant"],
        ["bounds", "--x0", "-.5", "--n-max", "5"],
    ])
    def test_a_negative_leading_coordinate_is_the_flag_value(self, argv, capsys):
        i = next(i for i, arg in enumerate(argv) if arg in ("--x0", "--perturb"))
        joined = argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
        assert run_cli(joined) == 0
        want = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == want

    def test_a_flag_is_still_no_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["compare", "--x0", "--n-max", "5"])
        assert exc.value.code == 2
        assert "argument --x0: expected one argument" in capsys.readouterr().err

    def test_a_switch_takes_no_negative_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["compare", "--assert-faster", "-1"])
        assert exc.value.code == 2
        assert "--assert-faster: ignored explicit argument '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "bounds"])
@pytest.mark.parametrize("mapping", ["tripod-radial:-0.0", "halfplane-vertical:-0.0"])
def test_a_minus_zero_factor_prints_no_minus_zero(command, mapping, capsys):
    # delta = -0.0 used to print `final ratio -0.0` and -0.0 in the a_n column
    assert run_cli([command, "--mapping", mapping, "--n-max", "20"]) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    assert run_cli([command, "--mapping", mapping.replace("-0.0", "0.0"), "--n-max", "20"]) == 0
    assert capsys.readouterr().out == out


class TestSchemeFailure:
    def test_invalid_point_mid_run_exits_3(self, monkeypatch, capsys):
        from implicitfp import mappings
        from implicitfp.mappings import ContractiveLike
        from implicitfp.spaces import Euclidean

        # the halving map, except that it leaves the domain near its fixed point
        t = ContractiveLike(lambda x: (0.5 * x[0],) if x[0] > 0.01 else np.array([np.nan]),
                            0.5, fixed_point=np.array([0.0]), name="halving")
        monkeypatch.setattr(mappings, "from_name",
                            lambda name: (Euclidean(1), t, None))
        assert run_cli(["compare"]) == 3
        err = capsys.readouterr().err
        assert re.match(r"scheme failure: step n=\d+: non-finite coordinates", err)


    @pytest.mark.parametrize("command", ["table", "compare", "bounds", "datadep"])
    @pytest.mark.parametrize("mapping,x0", [
        ("affine:0.6,0.6;0,0|0,0", "1.7e308,1.7e308"),
        ("affine:0.5,0.5,0.5;0,0,0;0,0,0|0,0,0", "1.5e308,1.5e308,1.5e308"),
        ("affine:0.4,0.4,0.4,0.4;0,0,0,0;0,0,0,0;0,0,0,0|0,0,0,0",
         "1.5e308,1.5e308,1.5e308,1.5e308"),
    ])
    def test_an_overflowing_affine_image_exits_3(self, command, mapping, x0, capsys):
        argv = [command, "--mapping", mapping, "--x0", x0]
        if command == "datadep":  # one offset entry per coordinate
            argv += ["--perturb", ",".join(["0.01"] * len(x0.split(",")))]
        assert run_cli(argv) == 3
        step = "x-step" if command == "datadep" else "step"
        assert capsys.readouterr().err.startswith(f"scheme failure: {step} n=2: ")


def codes_in_a_fresh_interpreter(argvs):
    """Exit codes of cli.main on each argv, run in turn by a fresh interpreter
    (this one has numpy loaded already), and whether numpy was imported."""
    code = f"""if True:
        import contextlib, io, sys
        from implicitfp import cli
        assert "numpy" not in sys.modules, "import"
        codes = []
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
        print(codes, "numpy" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    codes, loaded = out.rsplit(maxsplit=1)
    return codes, loaded


class TestNumpyFreeStart:
    def test_table_compare_and_bounds_never_import_numpy(self):
        argvs = [argv + ["--mapping", mapping]
                 for mapping in ("halving", "tripod-radial:0.5", "halfplane-vertical:0.5")
                 for argv in (["table", "--verify"], ["compare", "--assert-faster"], ["bounds"])]
        # off the halving map, table --verify reports a non-reference table
        assert codes_in_a_fresh_interpreter(argvs) == ("[0, 0, 0, 1, 0, 0, 1, 0, 0]", "False")

    def test_datadep_never_imports_numpy(self):
        argvs = [["datadep"], ["datadep", "--proof-variant"], ["datadep", "--perturb", "0"],
                 ["datadep", "--mapping", "tripod-radial:0.5", "--proof-variant"]]
        # the default variant is inconclusive at n_max = 200 (exit 4)
        assert codes_in_a_fresh_interpreter(argvs) == ("[4, 0, 0, 0]", "False")


class TestRejectedSettings:
    @pytest.mark.parametrize("argv,message", [
        (["table", "--digits", "-1"], "digits must lie in [0, 1074]"),
        (["table", "--digits", "1075"], "digits must lie in [0, 1074]"),
        (["compare", "--tol", "nan"], "tolerance must be finite and > 0"),
        (["table", "--tol", "inf"], "tolerance must be finite and > 0"),
        (["bounds", "--tol=-1e-14"], "tolerance must be finite and > 0"),
        (["compare", "--threshold", "nan"], "threshold must be finite and > 0"),
        (["compare", "--threshold", "-1"], "threshold must be finite and > 0"),
        (["compare", "--threshold", "inf"], "threshold must be finite and > 0"),
        (["compare", "--threshold", "0", "--assert-faster"], "threshold must be finite and > 0"),
        (["compare", "--schedule", "constant:0.5,0.5,0.9"], "constant schedule takes one or two"),
        # evaluated in floats: a power past the floats overflows, factorial
        # refuses a float, instead of building ever larger integers
        (["table", "--alpha", "1-1/n**n**n", "--n-max", "5"], "bad schedule expression"),
        (["table", "--alpha", "1-1/math.factorial(n)", "--n-max", "3"], "bad schedule expression"),
    ])
    def test_config_error(self, argv, message, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_table_of_large_distances(self, capsys):
        # a cell of 1e13 or more has more than 28 digits at 15 decimals
        assert run_cli(["table", "--x0", "1e14", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("2,66666666666666.664062500000000,"
                            "61538461538461.539062500000000,30769230769230.769531250000000")
        # Mann at n = 2 is x = (1e14 + x/2)/2, so 2e14/3, correctly rounded
        assert Fraction(lines[1].split(",")[1]) == Fraction(float(Fraction(2 * 10**14, 3)))
        # each Mann cell is its run's x_n, within an ulp of the exact
        # solution of its step from x_{n-1}: x = a*x_{n-1} / (1 - (1 - a)/2)
        weights = schemes.default_schedule().weights(50)
        rows = schemes.run(*mappings.halving()[:2], "implicit-mann", weights, (1e14,))._rows
        xs = [x[0] for _, x, *_ in rows]
        for n, (a, _) in enumerate(weights, start=2):
            exact = Fraction(a) * Fraction(xs[n - 2]) / (1 - (1 - Fraction(a)) / 2)
            assert abs(Fraction(xs[n - 1]) - exact) <= math.ulp(xs[n - 1]), n
        cells = [line.split(",")[:2] for line in lines[1:]]
        assert len(cells) == 14 and all(Fraction(x) == xs[int(n) - 1] for n, x in cells)
