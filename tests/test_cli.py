import ast
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from scipy.special import gammaincc

import hardedge
from hardedge import cli, fredholm, kernels, montecarlo
from hardedge.expansion import rate_report

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(argv):
    return cli.main(argv)


def read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# hardedge ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestLimitCdf:
    def test_exponential_law_table(self, tmp_path):
        out = tmp_path / "limit.csv"
        code = run_cli(["limit-cdf", "--a", "0", "--s-grid", "1:10:1", "--m", "50",
                        "--output", str(out)])
        assert code == 0
        header, rows = read_table(out)
        assert header == ["s", "F", "F_err"]
        assert len(rows) == 10
        for row in rows:
            s, value = float(row[0]), float(row[1])
            assert abs(value - math.exp(-s / 4.0)) <= 1e-10

    def test_full_precision_cells(self, tmp_path):
        out = tmp_path / "limit.csv"
        run_cli(["limit-cdf", "--a", "0.5", "--s", "4", "--m", "40", "--output", str(out)])
        _, rows = read_table(out)
        cell = rows[0][1]
        # 17 significant digits round-trip exactly
        assert format(float(cell), ".17g") == cell
        assert len(cell.replace("-", "").replace(".", "").lstrip("0").replace("e", "")) >= 15

    def test_byte_stability(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        argv = ["limit-cdf", "--a", "1.5", "--s-grid", "1:5:1", "--m", "40"]
        run_cli(argv + ["--output", str(first)])
        run_cli(argv + ["--output", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_default(self, capsys):
        code = run_cli(["limit-cdf", "--a", "0", "--s", "4", "--m", "30"])
        assert code == 0
        captured = capsys.readouterr().out.splitlines()
        assert captured[0].startswith("#")
        assert captured[1] == "s,F,F_err"


class TestFiniteCdf:
    def test_order_one_law(self, tmp_path):
        out = tmp_path / "finite.csv"
        code = run_cli(["finite-cdf", "--a", "2", "--n", "1", "--s", "4",
                        "--output", str(out)])
        assert code == 0
        _, rows = read_table(out)
        assert float(rows[0][1]) == pytest.approx(gammaincc(3.0, 1.0), abs=1e-10)

    def test_custom_scaling_requires_c(self, capsys):
        code = run_cli(["finite-cdf", "--a", "1", "--n", "5", "--s", "4",
                        "--scaling", "custom"])
        assert code == 2
        assert "custom scaling" in capsys.readouterr().err


class TestDensity:
    def test_sign_convention_and_pdf_flag(self, tmp_path):
        out = tmp_path / "density.csv"
        run_cli(["density", "--a", "0", "--s", "4", "--m", "40", "--output", str(out)])
        header, rows = read_table(out)
        assert header == ["s", "F", "f"]
        f_value = float(rows[0][2])
        assert f_value == pytest.approx(-math.exp(-1.0) / 4.0, abs=1e-9)
        run_cli(["density", "--a", "0", "--s", "4", "--m", "40", "--pdf",
                 "--output", str(out)])
        header, rows = read_table(out)
        assert header == ["s", "F", "pdf"]
        assert float(rows[0][2]) == pytest.approx(-f_value, abs=1e-12)

    def test_one_density_route(self):
        # f comes from the resolvent route only; there is no --method switch
        with pytest.raises(SystemExit) as info:
            run_cli(["density", "--a", "0", "--s", "4", "--method", "finite_difference"])
        assert info.value.code == 1


class TestChecks:
    def test_identity_check_passes(self, tmp_path, capsys):
        out = tmp_path / "identity.csv"
        code = run_cli(["identity-check", "--a", "0.5", "--s", "4", "--output", str(out)])
        assert code == 0
        header, rows = read_table(out)
        residual = float(rows[0][header.index("residual_resolvent")])
        assert residual < 1e-8

    def test_mehler_heine_check_passes(self, tmp_path):
        out = tmp_path / "mh.csv"
        code = run_cli(["mehler-heine", "--a", "1.5", "--z", "3",
                        "--n-list", "50,100,200,400", "--output", str(out)])
        assert code == 0
        header, rows = read_table(out)
        slope = float(rows[0][header.index("slope")])
        assert -2.3 <= slope <= -1.7

    def test_failed_finite_difference_exits_4(self, monkeypatch, capsys):
        # a finite-difference route off by 1e-3 relative fails its 1e-5
        # check alone; the table is still printed
        log_derivative = cli.log_derivative

        def skewed(spec, s, m, method="resolvent"):
            value = log_derivative(spec, s, m, method=method)
            return value * (1.0 + 1e-3) if method == "finite_difference" else value

        monkeypatch.setattr(cli, "log_derivative", skewed)
        assert run_cli(["identity-check", "--a", "0.5", "--s", "4"]) == 4
        out, err = capsys.readouterr()
        assert out.splitlines()[1] == ("s,quadratic_form,lhs,rhs_resolvent,rhs_fd,"
                                       "residual_resolvent,residual_fd")
        assert len(out.splitlines()) == 3
        assert err.startswith("hardedge: check failed: finite-difference residual ")
        assert err.endswith(" above 1e-05\n") and err.count("\n") == 1

    def test_failed_resolvent_path_exits_4(self, monkeypatch, capsys):
        # a resolvent route off by 1e-6 fails its 1e-8 check alone; the
        # finite difference still passes, and the table is still printed
        log_derivative = cli.log_derivative

        def skewed(spec, s, m, method="resolvent"):
            value = log_derivative(spec, s, m, method=method)
            return value + 1e-6 / s if method == "resolvent" else value

        monkeypatch.setattr(cli, "log_derivative", skewed)
        assert run_cli(["identity-check", "--a", "0.5", "--s", "4"]) == 4
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[1] == ("s,quadratic_form,lhs,rhs_resolvent,rhs_fd,"
                            "residual_resolvent,residual_fd")
        assert len(lines) == 3
        row = dict(zip(lines[1].split(","), map(float, lines[2].split(","))))
        assert row["residual_resolvent"] == pytest.approx(1e-6, rel=1e-6)
        assert row["residual_fd"] <= cli.IDENTITY_TOL_FD
        assert err == (f"hardedge: check failed: resolvent-path residual "
                       f"{row['residual_resolvent']:.3e} above 1e-08\n")

    def test_failed_check_exits_4(self, tmp_path, monkeypatch):
        # synthetic first-order residual: the slope lands near -1, far from
        # the second-order acceptance window
        monkeypatch.setattr(cli, "mehler_heine_residual", lambda a, n, z: 1.0 / n)
        out = tmp_path / "mh.csv"
        code = run_cli(["mehler-heine", "--a", "1.5", "--z", "3", "--output", str(out)])
        assert code == 4

    @pytest.mark.parametrize("argv,residuals,line", [
        pytest.param(
            ["expansion-check", "--a", "1", "--s", "4"],
            {"expansion_rate": lambda a, s, orders, m:
                (rate_report(a, s, orders, lambda n: 1.0 / n),) * 2},
            "corrected-residual slope -1.000 outside (-2.3, -1.7)", id="expansion-corrected"),
        pytest.param(
            ["expansion-check", "--a", "1", "--s", "4"],
            {"expansion_rate": lambda a, s, orders, m:
                (rate_report(a, s, orders, lambda n: n ** -2.0),) * 2},
            "uncorrected-difference slope -2.000 outside (-1.3, -0.7)", id="expansion-plain"),
        pytest.param(
            ["optimal-check", "--a", "2", "--s", "4"],
            {"optimal_rate": lambda a, s, orders, m: (
                rate_report(a, s, orders, lambda n: 1e-3 / n), tuple(1.0 / n for n in orders))},
            "optimal-scaling slope -1.000 outside (-2.3, -1.7)", id="optimal"),
        pytest.param(
            ["mehler-heine", "--a", "1.5", "--z", "3"],
            {"mehler_heine_residual": lambda a, n, z: 1.0 / n},
            "scaled-Laguerre slope -1.000 outside (-2.3, -1.7)", id="mehler-heine"),
        pytest.param(
            ["kernel-check", "--a", "1", "--c", "0"],
            {"kernel_expansion_rate":
                lambda a, orders, c, axis: rate_report(a, 8.0, orders, lambda n: 1.0 / n)},
            "kernel-residual slope -1.000 outside (-2.3, -1.7)", id="kernel"),
        pytest.param(
            ["optimal-check", "--a", "2", "--s", "4"],
            {"optimal_rate": lambda a, s, orders, m: (
                rate_report(a, s, orders, lambda n: n ** -2.0), tuple(n ** -2.0 for n in orders))},
            "optimal/standard residual ratio 1.0000 at n=100 not below 0.1", id="optimal-ratio"),
        pytest.param(
            ["mc-validate", "--a", "1", "--n", "20"],
            {"ks_validate": lambda a, n, count, seed, m: (0.5, False)},
            "KS statistic 0.50000 at or above the 1% threshold 0.01153", id="mc-validate"),
    ])
    def test_failing_slope_is_reported(self, argv, residuals, line, monkeypatch, capsys):
        # synthetic residuals (or a KS result) that fail exactly one claim: a
        # slope out of its window, a residual ratio or the KS test.  One
        # stderr line names it, and the exit code is 4
        for name, residual in residuals.items():
            monkeypatch.setattr(cli, name, residual)
        assert run_cli(argv) == 4
        assert capsys.readouterr().err == f"hardedge: check failed: {line}\n"

    @pytest.mark.parametrize("argv,calls", [
        (["expansion-check", "--a", "1", "--s", "4"], 5),
        (["optimal-check", "--a", "2", "--s", "4"], 9),
    ], ids=["expansion-check", "optimal-check"])
    def test_one_limit_record_per_report(self, argv, calls, monkeypatch, capsys):
        # the README rate commands: one F_n per order (and scaling) and one
        # limit record, not one limit record per order and residual
        sizes = []
        kernel_blocks = fredholm._kernel_blocks
        monkeypatch.setattr(fredholm, "_kernel_blocks", lambda spec, node_sets: sizes.append(
            tuple(nodes.size for nodes in node_sets)) or kernel_blocks(spec, node_sets))
        assert run_cli(argv) == 0
        assert sizes == [(cli.STUDY_NODES,)] * calls

    def test_degenerate_expansion_passes(self, tmp_path):
        # a = 0: the expansion is exact, reported degenerate, not a failure
        out = tmp_path / "exp.csv"
        code = run_cli(["expansion-check", "--a", "0", "--s", "4", "--m", "40",
                        "--n-list", "10,20,40,80", "--output", str(out)])
        assert code == 0

    def test_degenerate_optimal_check_passes(self, tmp_path):
        # a = 0: both residuals sit at solver precision, so no slope is fitted
        out = tmp_path / "opt.csv"
        assert run_cli(["optimal-check", "--a", "0", "--s", "4", "--output", str(out)]) == 0
        header, rows = read_table(out)
        assert all(math.isnan(float(row[header.index("slope")])) for row in rows)


class TestMcValidate:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run_cli(["mc-validate", "--a", "0", "--n", "5", "--count", "1000",
                        "--seed", "7", "--m", "30", "--output", str(out)])
        assert code == 0
        header, rows = read_table(out)
        assert rows[0][header.index("passed")] == "true"

    def test_count_outside_its_range_fails_fast(self, monkeypatch, capsys):
        # refused before the law is made and before the first draw, not
        # after the whole batch
        draws = []
        monkeypatch.setattr(montecarlo, "_sample_block", lambda *args: draws.append(args) or [1.0])
        monkeypatch.setattr(montecarlo, "analytic_smallest_cdf", lambda *args: draws.append(args))
        for n, count, message in (
                ("5", "500", "KS comparison needs count >= 1000, got 500"),
                ("200", "999", "KS comparison needs count >= 1000, got 999"),
                ("20", "10000001", "count must be an integer in [1, 10000000], got 10000001")):
            code = run_cli(["mc-validate", "--a", "0", "--n", n, "--count", count])
            assert code == 2
            assert capsys.readouterr().err == f"hardedge: domain error: {message}\n"
        assert draws == []


class TestReadmeCommands:
    @staticmethod
    def readme_commands():
        """Argument lists of the `hardedge ...` lines in the README, comments dropped."""
        lines = README.read_text().splitlines()
        return [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("hardedge ")]

    def test_every_line_parses(self):
        parser = cli._build_parser()
        commands = self.readme_commands()
        assert len(commands) >= 10
        for argv in commands:
            assert callable(parser.parse_args(argv).handler), argv

    def test_every_subcommand_documented(self):
        subparsers = next(action for action in cli._build_parser()._actions
                          if action.dest == "command")
        assert {argv[0] for argv in self.readme_commands()} == set(subparsers.choices)


class TestParser:
    # (option strings, type, required, default) of every option, in help order
    FLAGS = {
        "limit-cdf": [
            (["--a"], float, True, None), (["--s"], None, False, None),
            (["--s-grid"], None, False, None), (["--m"], int, False, 50),
        ],
        "finite-cdf": [
            (["--a"], float, True, None), (["--n"], int, True, None),
            (["--s"], None, False, None), (["--s-grid"], None, False, None),
            (["--scaling"], None, False, "standard"), (["--c"], float, False, None),
            (["--m"], int, False, 50),
        ],
        "density": [
            (["--a"], float, True, None), (["--s"], None, False, None),
            (["--s-grid"], None, False, None), (["--m"], int, False, 50),
            (["--pdf"], None, False, False),
        ],
        "expansion-check": [
            (["--a"], float, True, None), (["--s"], float, True, None),
            (["--n-list"], None, False, "50,100,200,400"), (["--m"], int, False, 60),
        ],
        "optimal-check": [
            (["--a"], float, True, None), (["--s"], float, True, None),
            (["--n-list"], None, False, "50,100,200,400"), (["--m"], int, False, 60),
        ],
        "mehler-heine": [
            (["--a"], float, True, None), (["--z"], float, True, None),
            (["--n-list"], None, False, "50,100,200,400"),
        ],
        "kernel-check": [
            (["--a"], float, True, None), (["--c"], float, True, None),
            (["--n-list"], None, False, "50,100,200,400"),
            (["--grid-max"], float, False, 8.0), (["--grid-points"], int, False, 9),
        ],
        "identity-check": [
            (["--a"], float, True, None), (["--s"], float, True, None),
            (["--m"], int, False, 50),
        ],
        "mc-validate": [
            (["--a"], int, True, None), (["--n"], int, True, None),
            (["--count"], int, False, 20000), (["--seed"], int, False, 12345),
            (["--m"], int, False, 50),
        ],
    }

    @staticmethod
    def subcommands():
        return next(action for action in cli._build_parser()._actions
                    if action.dest == "command").choices

    def test_every_subcommand_pinned(self):
        assert list(self.subcommands()) == list(self.FLAGS)

    @pytest.mark.parametrize("name", FLAGS)
    def test_subcommand_flags(self, name):
        sub = self.subcommands()[name]
        options = [(action.option_strings, action.type, action.required, action.default)
                   for action in sub._actions if action.dest != "help"]
        assert options == self.FLAGS[name] + [(["--output", "-o"], None, False, None)]
        assert [group.required for group in sub._mutually_exclusive_groups] == (
            [True] if ["--s-grid"] in [option[0] for option in options] else [])


class TestUsageAndErrors:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["limit-cdf", "--a", "0", "--s", "4", "--frobnicate"])
        assert info.value.code == 1

    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as info:
            run_cli([])
        assert info.value.code == 1

    @pytest.mark.parametrize("where,reason", [("missing", "No such file or directory"),
                                              ("directory", "Is a directory")])
    def test_unwritable_output_exits_1(self, where, reason, tmp_path):
        # in a fresh process: one stderr line, no traceback, and no file
        target = tmp_path / "missing" / "x.csv" if where == "missing" else tmp_path
        env = dict(os.environ, PYTHONPATH=str(Path(hardedge.__file__).resolve().parent.parent))
        result = subprocess.run([sys.executable, "-m", "hardedge.cli", "limit-cdf", "--a", "0",
                                 "--s", "4", "--output", str(target)],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"hardedge: cannot write {target}: {reason}\n"
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_is_refused_before_the_computation(self, monkeypatch, tmp_path,
                                                                  capsys):
        monkeypatch.setattr(cli, "ks_validate", lambda *args, **kwargs: pytest.fail("computed"))
        target = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as info:
            run_cli(["mc-validate", "--a", "1", "--n", "20", "--count", "100000",
                     "--output", str(target)])
        assert info.value.code == 1
        assert capsys.readouterr().err == (
            f"hardedge: cannot write {target}: No such file or directory\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_after_the_open_exits_1(self, capsys):
        # /dev/full opens, and the write fails: _emit's own refusal
        with pytest.raises(SystemExit) as info:
            run_cli(["limit-cdf", "--a", "0", "--s", "4", "--m", "40", "--output", "/dev/full"])
        assert info.value.code == 1
        assert capsys.readouterr().err == (
            "hardedge: cannot write /dev/full: No space left on device\n")

    def test_refused_run_leaves_no_new_file(self, tmp_path, capsys):
        target = tmp_path / "x.csv"
        assert run_cli(["limit-cdf", "--a", "0", "--s", "2000", "--output", str(target)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_refused_run_keeps_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "x.csv"
        target.write_bytes(b"kept\n")
        assert run_cli(["limit-cdf", "--a", "0", "--s", "2000", "--output", str(target)]) == 2
        assert target.read_bytes() == b"kept\n"

    def test_domain_error_exits_2(self, capsys):
        assert run_cli(["limit-cdf", "--a", "-2", "--s", "4"]) == 2
        assert run_cli(["limit-cdf", "--a", "0", "--s", "-4"]) == 2
        assert run_cli(["limit-cdf", "--a", "0", "--s-grid", "1:0:1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["finite-cdf", "--a", "1", "--n", "1000000000000000000000", "--s", "4"],
        ["finite-cdf", "--a", "1", "--n", "1000001", "--s", "4"],
        ["mehler-heine", "--a", "1.5", "--z", "3", "--n-list", "50,100,200,1000001"],
        ["expansion-check", "--a", "1", "--s", "4", "--n-list", "100000,200000,400000,1000001"],
    ], ids=["finite-1e21", "finite-cap-plus-one", "mehler-heine-cap-plus-one",
            "expansion-check-cap-plus-one"])
    def test_order_past_the_cap_exits_2(self, argv, capsys):
        # a domain refusal with one stderr line, not a ValueError traceback
        # from sizing an array of n + 1 doubles
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("hardedge: domain error: ") and err.count("\n") == 1

    def test_mass_overflow_exits_2(self, capsys):
        # s^{a+1} leaves the double range: refused, not an OverflowError traceback
        assert run_cli(["limit-cdf", "--a", "200", "--s", "40"]) == 2
        assert "double range" in capsys.readouterr().err

    def test_mass_underflow_exits_2(self, capsys):
        # s^{a+1} underflows to zero: a domain refusal (2), not a numeric failure (3)
        assert run_cli(["limit-cdf", "--a", "200", "--s", "0.001"]) == 2
        assert "double range" in capsys.readouterr().err

    def test_refused_rule_build_exits_3(self, capsys):
        # at a = 300 the 490-node rule on (0, 1) has a weight below the double
        # range: the build's check refuses it, a numeric failure (3)
        assert run_cli(["limit-cdf", "--a", "300", "--s", "1", "--m", "490"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "hardedge: numeric error: quadrature produced non-positive weights\n"

    def test_numeric_error_exits_3(self, capsys):
        # a negative determinant at s = 600 refuses the whole table before its first row
        assert run_cli(["limit-cdf", "--a", "0", "--s", "1,600,2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "s=600.0" in err

    @pytest.mark.parametrize("points", ["0", "-1", "501"])
    def test_kernel_check_needs_grid_points(self, points, monkeypatch, capsys):
        # refused before the axis is built: past 500 points (the largest rule
        # a kernel takes), no (P, P) array and no kernel factor
        monkeypatch.setattr(kernels, "_factors", lambda *args: pytest.fail("factors computed"))
        assert run_cli(["kernel-check", "--a", "1", "--c", "0", "--grid-points", points]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hardedge: domain error: --grid-points must be ")

    def test_kernel_check_takes_500_grid_points(self, capsys):
        assert run_cli(["kernel-check", "--a", "1", "--c", "0", "--grid-points", "500"]) == 0

    @pytest.mark.parametrize("grid_max", ["inf", "-inf", "nan"])
    def test_kernel_check_needs_finite_grid_max(self, grid_max, capsys):
        # refused before the axis is built: one stderr line, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["kernel-check", "--a", "1", "--c", "0", f"--grid-max={grid_max}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hardedge: domain error: ") and err.count("\n") == 1

    def test_grid_validated_before_compute(self, monkeypatch, capsys):
        # the bad value sits at the end of the grid: nothing may be computed
        calls = []
        kernel_blocks = fredholm._kernel_blocks
        monkeypatch.setattr(fredholm, "_kernel_blocks",
                            lambda *args: calls.append(args) or kernel_blocks(*args))
        for values in ("1,2,0", "1,2,2000"):
            assert run_cli(["limit-cdf", "--a", "0", "--s", values]) == 2
        assert calls == []

    @pytest.mark.parametrize("flag,value", [
        ("--s", "abc"), ("--s", "1,x"), ("--s-grid", "1:x:1"),
    ])
    def test_unparsed_number_exits_2(self, flag, value, capsys):
        # a domain refusal with one stderr line, not a ValueError traceback
        assert run_cli(["limit-cdf", "--a", "0", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hardedge: domain error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["limit-cdf", "--a", "0", "--s", ","],
        ["limit-cdf", "--a", "0", "--s-grid", "1:10"],
        ["expansion-check", "--a", "1", "--s", "4", "--n-list", "50,abc"],
    ], ids=["empty-s", "two-part-grid", "unparsed-order"])
    def test_malformed_list_exits_2(self, argv, capsys):
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("hardedge: domain error: ") and err.count("\n") == 1

    @pytest.fixture
    def grid_sizes(self, monkeypatch):
        """Lengths of the s lists that reach limit_table, which computes nothing."""
        sizes = []

        def table(a, s_values, m):
            sizes.append(len(s_values))
            return SimpleNamespace(rows=())

        monkeypatch.setattr(cli, "limit_table", table)
        return sizes

    @pytest.mark.parametrize("grid", ["1:2:1e-5", "1:2:5e-324"])
    def test_oversized_grid_refused(self, grid, grid_sizes, capsys):
        # 100001 points, and a point count past the float range
        assert run_cli(["limit-cdf", "--a", "0", "--s-grid", grid]) == 2
        assert f"more than {cli.MAX_GRID_POINTS} points" in capsys.readouterr().err
        assert grid_sizes == []

    def test_grid_cap_is_inclusive(self, grid_sizes, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)
        assert run_cli(["limit-cdf", "--a", "0", "--s-grid", "1:10:1"]) == 0
        assert run_cli(["limit-cdf", "--a", "0", "--s-grid", "1:11:1"]) == 2
        assert grid_sizes == [10]


def scipy_modules_after(code: str) -> list:
    """The scipy modules loaded in a fresh interpreter after it runs code."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(hardedge.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=env)
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    # scipy.special takes about 0.15 s to import, most of a finite-law command
    assert scipy_modules_after("import hardedge") == []


@pytest.mark.parametrize("argv", TestReadmeCommands.readme_commands(), ids=" ".join)
def test_readme_commands_load_no_scipy(argv):
    # the runtime is numpy alone: J_a, 1/Gamma and Q(p, t) are in-house
    assert scipy_modules_after(f"from hardedge import cli\nassert cli.main({argv!r}) == 0") == []
