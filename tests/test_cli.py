"""Command-line surface: exit codes, formats, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import alphaharmonic
from alphaharmonic import cli
from alphaharmonic.cli import build_parser, main


@pytest.fixture()
def boundary_file(tmp_path):
    def write(name, degree, coefficients):
        path = tmp_path / name
        path.write_text(json.dumps({"degree": degree, "coefficients": coefficients}))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval2F1:
    def test_log_value(self, capsys):
        code, out, _ = run(capsys, ["eval2f1", "--a", "1", "--b", "1",
                                    "--c", "2", "--x", "0.5"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "value,terms_used,transform"
        value = float(lines[1].split(",")[0])
        assert value == pytest.approx(2.0 * math.log(2.0), rel=1e-11)

    def test_trivial_a_zero(self, capsys):
        code, out, _ = run(capsys, ["eval2f1", "--a", "0", "--b", "5",
                                    "--c", "1", "--x", "0.9"])
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[0]) == 1.0

    def test_value_beyond_float_range_exits_3(self, capsys):
        code, out, err = run(capsys, ["eval2f1", "--a", "3.5", "--b", "3.25",
                                      "--c", "-18.25", "--x", "0.9999999999999"])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "float range" in err
        # a polynomial whose terms pass the float range in Python floats
        code, out, err = run(capsys, ["eval2f1", "--a", "-200", "--b", "1e4",
                                      "--c", "1", "--x", "0.5"])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "float range" in err

    def test_invalid_c_exits_2(self, capsys):
        code, _, err = run(capsys, ["eval2f1", "--a", "1", "--b", "1",
                                    "--c", "-2", "--x", "0.1"])
        assert code == 2
        assert "domain error" in err

    def test_missing_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, ["eval2f1", "--a", "1", "--b", "1", "--c", "2"])
        assert code == 1

    @pytest.mark.parametrize("flag,value", [("--a", "nan"), ("--a", "inf"),
                                            ("--b", "inf"), ("--c", "nan")])
    def test_non_finite_parameter_exits_2(self, capsys, flag, value):
        argv = {"--a": "1", "--b": "1", "--c": "2", "--x": "0.5"}
        argv[flag] = value
        code, out, err = run(capsys, ["eval2f1", *(t for kv in argv.items() for t in kv)])
        assert code == 2
        assert out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["eval2f1", "--a", "1", "--b", "1",
                                    "--c", "2", "--x", "0.25", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["transform"] == "none"


class TestSolve:
    def test_constant_boundary(self, capsys, boundary_file):
        path = boundary_file("one.json", 0, [[1.0, 0.0]])
        code, out, _ = run(capsys, ["solve", "--alpha", "2", "--boundary", path,
                                    "--z-re", "0.4", "--z-im", "0.2"])
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        header = out.strip().split("\n")[0].split(",")
        rec = dict(zip(header, row))
        assert float(rec["f_re"]) == pytest.approx(1.0, abs=1e-10)
        assert float(rec["f_im"]) == pytest.approx(0.0, abs=1e-10)

    def test_identity_boundary(self, capsys, boundary_file):
        path = boundary_file("eik.json", 1, [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        code, out, _ = run(capsys, ["solve", "--alpha", "1.5", "--boundary", path,
                                    "--z-re", "0.3", "--z-im", "0.1",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["f_re"] == pytest.approx(0.3, abs=1e-10)
        assert doc["f_im"] == pytest.approx(0.1, abs=1e-10)
        assert doc["deriv_norm"] == pytest.approx(1.0, abs=1e-9)

    def test_exterior_point_exits_2(self, capsys, boundary_file):
        path = boundary_file("one.json", 0, [[1.0, 0.0]])
        code, _, err = run(capsys, ["solve", "--alpha", "1", "--boundary", path,
                                    "--z-re", "1.5", "--z-im", "0"])
        assert code == 2

    def test_unreadable_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["solve", "--alpha", "1",
                                  "--boundary", str(tmp_path / "missing.json"),
                                  "--z-re", "0.1", "--z-im", "0"])
        assert code == 1

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, ["solve", "--alpha", "1", "--boundary", str(bad),
                                  "--z-re", "0.1", "--z-im", "0"])
        assert code == 1

    def test_quad_n_max_is_not_a_solve_option(self, capsys, boundary_file):
        # the mode sums have no quadrature node cap to escalate
        coeffs = [[0.0, 0.0]] * 16 + [[1.0, 0.0]]  # degree-8 mode, 17 entries
        path = boundary_file("hi.json", 8, coeffs)
        code, out, _ = run(capsys, ["solve", "--alpha", "2", "--boundary", path,
                                    "--z-re", "0.9", "--z-im", "0",
                                    "--quad-n-max", "8"])
        assert code == 1
        assert out == ""

    def test_prints_seven_columns(self, capsys, boundary_file):
        path = boundary_file("eik.json", 1, [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        code, out, _ = run(capsys, ["solve", "--alpha", "1.5", "--boundary", path,
                                    "--z-re", "0.3"])
        assert code == 0
        assert out.split("\n")[0] == "f_re,f_im,fz_re,fz_im,fzbar_re,fzbar_im,deriv_norm"

    @pytest.mark.parametrize("degree,coefficients", [
        (1, [[0.0, 0.0], [float("nan"), 0.0], [1.0, 0.0]]),  # json writes NaN
        (1, [[0.0, 0.0], ["x", 0.0], [1.0, 0.0]]),
        (1, [[0.0, 0.0], [0.0], [1.0, 0.0]]),
        (1.5, [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
    ])
    def test_malformed_boundary_exits_2(self, capsys, boundary_file, degree, coefficients):
        path = boundary_file("bad.json", degree, coefficients)
        code, out, err = run(capsys, ["solve", "--alpha", "1", "--boundary", path,
                                      "--z-re", "0.3"])
        assert code == 2
        assert out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1

    def test_large_alpha_analytic_data(self, capsys, boundary_file):
        # the kernel's (1 - r)^(alpha + 1) underflows on part of the circle,
        # but analytic data e^{i theta} extends to z for every alpha
        path = boundary_file("eik.json", 1, [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        code, out, err = run(capsys, ["solve", "--alpha", "400", "--boundary", path,
                                      "--z-re", "0.9", "--format", "json"])
        assert code == 0
        assert err == ""
        assert json.loads(out)["f_re"] == 0.9

    def test_alpha_1000_conjugate_square(self, capsys, boundary_file):
        # c_{-2} = 1: the seed's (1 - |z|^2)^(alpha + 1) = 0.19^1001
        # underflows, yet the extension is A_2(0.81) zbar^2, within an ulp
        # of 1/z^2 at this alpha
        coeffs = [[1.0, 0.0]] + [[0.0, 0.0]] * 4
        path = boundary_file("conj2.json", 2, coeffs)
        code, out, err = run(capsys, ["solve", "--alpha", "1000", "--boundary", path,
                                      "--z-re", "0.9", "--format", "json"])
        assert (code, err) == (0, "")
        got = json.loads(out)
        with mpmath.workdps(40):
            def a_2(x):
                return mpmath.rf(1001, 2) / 2 * mpmath.hyp2f1(-1000, 2, 3, x)

            z = mpmath.mpf(0.9)
            f = a_2(z * z) * z * z
            f_z = mpmath.diff(a_2, z * z) * z ** 3
            f_zbar = mpmath.diff(a_2, z * z) * z ** 3 + 2 * a_2(z * z) * z
        assert abs(got["f_re"] - f) <= 1e-15 * f
        assert abs(got["fz_re"] - f_z) <= 1e-14 * abs(f_z)
        assert abs(got["fzbar_re"] - f_zbar) <= 1e-14
        assert got["f_im"] == got["fz_im"] == got["fzbar_im"] == 0.0

    def test_overflowing_mode_sum_exits_3(self, capsys, boundary_file):
        # finite data whose mode sum leaves the float range
        path = boundary_file("huge.json", 8, [[5e306, 0.0]] * 17)
        code, out, err = run(capsys, ["solve", "--alpha", "3", "--boundary", path,
                                      "--z-re", "0.5"])
        assert code == 3
        assert out == ""
        assert err.startswith("non-convergence: spectral evaluation")
        assert err.count("\n") == 1

    def test_overflowing_boundary_exits_2(self, capsys, boundary_file):
        path = boundary_file("big.json", 1, [[1e308, 1e308]] * 3)
        code, out, err = run(capsys, ["solve", "--alpha", "1", "--boundary", path,
                                      "--z-re", "0.3"])
        assert code == 2
        assert out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1

    def test_near_boundary_constant_data(self, capsys, boundary_file):
        path = boundary_file("one.json", 0, [[1.0, 0.0]])
        for z_re in ("0.995", "0.99999"):
            code, out, _ = run(capsys, ["solve", "--alpha", "1", "--boundary", path,
                                        "--z-re", z_re, "--z-im", "0",
                                        "--format", "json"])
            assert code == 0
            assert json.loads(out)["f_re"] == 1.0


class TestBounds:
    def test_colonna_row(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--id", "COLONNA", "--r", "0"])
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[-1]) == pytest.approx(
            4.0 / math.pi, rel=1e-12)

    def test_all_returns_ten_rows(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--id", "all", "--r", "0.5",
                                    "--alpha", "2", "--c", "0.6"])
        assert code == 0
        assert len(out.strip().split("\n")) == 11  # header + 10 bounds

    def test_all_negative_alpha_skips_nonapplicable(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--id", "all", "--r", "0.5",
                                    "--alpha", "-0.5", "--c", "0.6"])
        assert code == 0
        body = out.strip().split("\n")[1:]
        assert len(body) == 9
        assert not any(line.startswith("M_PRIME") for line in body)

    def test_m1_without_c_exits_2(self, capsys):
        code, _, err = run(capsys, ["bounds", "--id", "M1", "--r", "0.5",
                                    "--alpha", "2"])
        assert code == 2

    def test_infinite_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, ["bounds", "--id", "all", "--r", "0.5",
                                    "--alpha", "inf", "--c", "0.5"])
        assert code == 2
        assert "alpha must be finite" in err

    def test_bad_radius_exits_2(self, capsys):
        code, _, _ = run(capsys, ["bounds", "--id", "M2", "--r", "1.5",
                                  "--alpha", "1"])
        assert code == 2

    def test_large_alpha_all_bounds(self, capsys):
        code, out, err = run(capsys, ["bounds", "--id", "all", "--r", "0.9",
                                      "--alpha", "400", "--c", "0.5"])
        assert code == 0 and err == ""
        rows = {line.split(",")[0]: float(line.split(",")[-1])
                for line in out.strip().split("\n")[1:]}
        assert len(rows) == 10 and all(math.isfinite(v) for v in rows.values())
        assert rows["M"] == pytest.approx(5.5301915003883e110, rel=1e-12)

    @pytest.mark.parametrize("bound_id", ["all", "M", "SP_LIMIT", "SCHWARZ_2F1"])
    def test_value_beyond_float_range_exits_3(self, capsys, bound_id):
        code, out, err = run(capsys, ["bounds", "--id", bound_id, "--r", "0.999",
                                      "--alpha", "1100", "--c", "0.5"])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "float range" in err

    def test_quad_n_max_is_not_a_bounds_option(self, capsys):
        # every bound is a closed form: no quadrature to escalate
        code, _, _ = run(capsys, ["bounds", "--id", "L1_MEAN", "--r", "0.5",
                                  "--quad-n-max", "1024"])
        assert code == 1


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "identities",
                                    "--seed", "0", "--trials", "25"])
        assert code == 0
        assert out.startswith("theorem_id,")

    def test_machinery_deterministic_bytes(self, capsys):
        argv = ["verify", "--suite", "machinery", "--seed", "1", "--trials", "10"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_schwarz_small(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "schwarz",
                                    "--seed", "4", "--trials", "15"])
        assert code == 0
        assert "CENTER_M," in out

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "machinery", "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert err == "domain error: seed must be >= 0, got -1\n"

    def test_violations_exit_4(self, capsys, monkeypatch):
        from alphaharmonic.verify import TrialReport
        import alphaharmonic.cli as cli_mod

        fake = [TrialReport("CENTER_M", 10, 2, 0, -1e-3)]
        monkeypatch.setattr(cli_mod, "run_suite", lambda name, spec: fake)
        code, out, err = run(capsys, ["verify", "--suite", "schwarz"])
        assert code == 4
        assert "violations" in err

    def test_informational_violations_do_not_fail(self, capsys, monkeypatch):
        from alphaharmonic.verify import TrialReport
        import alphaharmonic.cli as cli_mod

        fake = [TrialReport("CENTER_M1", 10, 2, 0, -1e-3, informational=True),
                TrialReport("CENTER_M", 10, 0, 0, 0.5)]
        monkeypatch.setattr(cli_mod, "run_suite", lambda name, spec: fake)
        code, _, _ = run(capsys, ["verify", "--suite", "schwarz"])
        assert code == 0

    def test_high_inconclusive_rate_exits_3(self, capsys, monkeypatch):
        from alphaharmonic.verify import TrialReport
        import alphaharmonic.cli as cli_mod

        fake = [TrialReport("CENTER_M", 90, 0, 10, 0.5)]
        monkeypatch.setattr(cli_mod, "run_suite", lambda name, spec: fake)
        code, _, err = run(capsys, ["verify", "--suite", "schwarz"])
        assert code == 3


class TestFigure1:
    def test_default_rows(self, capsys):
        code, out, _ = run(capsys, ["figure1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,M,M2"
        assert len(lines) == 81
        for line in lines[1:]:
            _, m, m2 = (float(v) for v in line.split(","))
            assert m <= m2

    def test_alpha_zero_row(self, capsys):
        _, out, _ = run(capsys, ["figure1"])
        want = 4.0 / math.pi * math.atan(0.99)
        for line in out.strip().split("\n")[1:]:
            a, m, m2 = (float(v) for v in line.split(","))
            if a == 0.0:
                assert m == pytest.approx(want, abs=1e-10)
                assert m2 == pytest.approx(want, abs=1e-10)
                break
        else:
            pytest.fail("no alpha = 0 row")

    def test_low_alpha_min_exits_2(self, capsys):
        code, _, _ = run(capsys, ["figure1", "--alpha-min", "-2"])
        assert code == 2

    def test_radius_outside_the_disk_exits_2(self, capsys):
        code, out, err = run(capsys, ["figure1", "--r", "1.5"])
        assert (code, out) == (2, "")
        assert err == "domain error: r must lie in [0, 1), got 1.5\n"

    @pytest.mark.parametrize("flags", [
        ["--alpha-max", "nan"], ["--alpha-max", "inf"], ["--alpha-min", "nan"],
        ["--alpha-min", "inf"], ["--step", "nan"], ["--step", "inf"],
        ["--alpha-min", "2", "--alpha-max", "1"],
    ])
    def test_bad_grid_exits_2(self, capsys, flags):
        code, out, err = run(capsys, ["figure1", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--alpha-max", "1e300"],
        ["--alpha-min", "1", "--alpha-max", "2", "--step", "1e-20"],
        ["--alpha-min", "1", "--alpha-max", "1", "--step", "1e-30"],
    ])
    def test_oversized_grid_exits_2(self, capsys, monkeypatch, flags):
        import alphaharmonic.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("the grid is rejected before any bound runs")

        monkeypatch.setattr(cli_mod, "figure1_data", never)
        code, out, err = run(capsys, ["figure1", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1

    def test_grid_matches_the_stepping_loop(self, capsys):
        argv = ["figure1", "--alpha-min", "-0.3", "--alpha-max", "0.7", "--step", "0.1"]
        _, out, _ = run(capsys, argv)
        want, a, k = [], -0.3, 0
        while a <= 0.7 + 1e-12:
            want.append(a)
            k += 1
            a = -0.3 + k * 0.1
        assert [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]] == want

    def test_argument_rounding_to_one_prints_the_value(self, capsys):
        # M's x = 4r^2/(1+r^2)^2 rounds to 1.0 here; its Euler series raised
        # ConvergenceError (exit 3), where the difference quotient in the
        # exact 1 - x returns M
        code, out, err = run(capsys, ["figure1", "--r", "0.9999999991", "--alpha-min",
                                      "-0.9993", "--alpha-max", "-0.9993"])
        assert code == 0 and err == ""
        assert float(out.strip().split("\n")[1].split(",")[1]) == alphaharmonic.m_bound(0.9999999991, -0.9993)

    def test_single_point_grid(self, capsys):
        code, out, _ = run(capsys, ["figure1", "--alpha-min", "1", "--alpha-max", "1"])
        assert code == 0
        assert out.strip().split("\n")[1].startswith("1,")

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, ["figure1", "--step", "0.5"])
        _, out2, _ = run(capsys, ["figure1", "--step", "0.5"])
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "fig.csv"
        code, out, _ = run(capsys, ["figure1", "--step", "1.0", "--out", str(dest)])
        assert code == 0
        assert out == ""
        text = dest.read_text()
        assert text.startswith("alpha,M,M2\n")
        assert "\r" not in text


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 1

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 1


_SUBCOMMANDS = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices


def _argv_with(command: str, flag: str, value: str) -> list:
    """A command line that sets flag to value and every other required
    option to something it parses."""
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if action.required and action.option_strings[0] != flag:
            argv += [action.option_strings[0],
                     action.choices[0] if action.choices else "0.5"]
    return argv + [flag, value]


class TestNegativeNumbers:
    @pytest.mark.parametrize("command,action",
                             [(name, action) for name, p in _SUBCOMMANDS.items()
                              for action in p._actions if action.type is float],
                             ids=lambda v: v if isinstance(v, str) else v.dest)
    @pytest.mark.parametrize("value", ["-1e-3", "-9.5E-1"])
    def test_every_float_flag_reads_exponent_notation(self, command, action, value):
        args = cli._parser().parse_args(_argv_with(command, action.option_strings[0], value))
        assert getattr(args, action.dest) == float(value)

    @pytest.mark.parametrize("text", ["-1", "-1.", "-.5", "-1e5", "-1E-05", "-1.5e+3",
                                      "-1_000.0_1e1_0", "-inf", "-INF", "-Infinity", "-nan",
                                      format(-1e-5, ".17g")])  # as the CLI prints it
    def test_reads_negative_float_literals(self, text):
        args = cli._parser().parse_args(["bounds", "--id", "M", "--r", "0.5", "--alpha", text])
        assert repr(args.alpha) == repr(float(text))

    @pytest.mark.parametrize("text", ["-h", "-e3", "-1e", "-.", "-1e-3x", "-infx", "--1"])
    def test_other_dash_words_stay_options(self, capsys, text):
        code, _, err = run(capsys, ["bounds", "--id", "M", "--r", "0.5", "--alpha", text])
        assert code != 0 and "argument --alpha: expected one argument" in err

    @pytest.mark.parametrize("argv,expected", [
        (["bounds", "--id", "M", "--r", "0.5", "--alpha", "-1e-3"], 0),
        (["bounds", "--id", "M", "--r", "0.5", "--alpha", "-9.5E-1"], 0),
        (["figure1", "--alpha-min", "-9.5e-1", "--alpha-max", "-9e-1"], 0),
        (["bounds", "--id", "M", "--r", "0.5", "--alpha", "-inf"], 2),
    ])
    def test_exit_codes(self, capsys, argv, expected):
        code, _, err = run(capsys, argv)
        assert code == expected, err


@pytest.fixture()
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _fresh_process(*args):
    """Python run with args in a new process that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(alphaharmonic.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=False)


class TestParserReuse:
    def test_built_once_across_calls(self, capsys, monkeypatch, fresh_parser):
        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in (["eval2f1", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5"],
                     ["bounds", "--id", "all", "--r", "0.5"],
                     ["figure1", "--alpha-max", "0"],
                     ["verify", "--suite", "machinery", "--trials", "4"],
                     ["frobnicate"],
                     ["bounds", "--id", "M", "--r", "0.5", "--alpha", "-1e-3"]):
            main(argv)
        capsys.readouterr()
        assert len(built) == 1

    def test_not_built_at_import(self):
        code = ("import alphaharmonic.cli as c; "
                "assert c._parser.cache_info().currsize == 0")
        assert _fresh_process("-c", code).returncode == 0

    def test_reuse_matches_fresh_processes(self, capsys, tmp_path, monkeypatch, fresh_parser):
        """Each call through the kept parser writes what a new process
        writes for the same command line, byte for byte."""
        monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
        sequence = [
            ["bounds", "--id", "nope", "--r", "0.5"],
            ["bounds", "--id", "all", "--r", "0.9", "--alpha", "0.5", "--c", "0.5"],
            ["figure1", "--format", "json"],
            ["verify", "--suite", "machinery"],
            ["bounds", "--id", "all", "--r", "0.9", "--alpha", "0.5", "--c", "0.5"],
        ]
        for i, argv in enumerate(sequence):
            paths = [tmp_path / f"{i}-{who}.out" for who in ("here", "fresh")]
            out_args = [[] if i == 0 else ["--out", str(p)] for p in paths]
            code, out, err = run(capsys, argv + out_args[0])
            fresh = _fresh_process("-m", "alphaharmonic", *argv, *out_args[1])
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            assert code == (0 if i else 1), argv
            if i:
                assert paths[0].read_bytes() == paths[1].read_bytes(), argv

    @pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
    def test_help_repeats(self, capsys, argv, fresh_parser):
        first = run(capsys, argv)
        assert first[0] == 0 and first[1].startswith("usage: alphaharm")
        assert run(capsys, argv) == first
