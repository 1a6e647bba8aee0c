import math

import pytest

from hardedge import cli, reg_upper_gamma


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
        assert float(rows[0][1]) == pytest.approx(reg_upper_gamma(3.0, 1.0), abs=1e-10)

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

    def test_failed_check_exits_4(self, tmp_path, monkeypatch):
        # synthetic first-order residual: the slope lands near -1, far from
        # the second-order acceptance window
        monkeypatch.setattr(cli, "mehler_heine_residual", lambda a, n, z: 1.0 / n)
        out = tmp_path / "mh.csv"
        code = run_cli(["mehler-heine", "--a", "1.5", "--z", "3", "--output", str(out)])
        assert code == 4

    def test_degenerate_expansion_passes(self, tmp_path):
        # a = 0: the expansion is exact, reported degenerate, not a failure
        out = tmp_path / "exp.csv"
        code = run_cli(["expansion-check", "--a", "0", "--s", "4", "--m", "40",
                        "--n-list", "10,20,40,80", "--output", str(out)])
        assert code == 0


class TestMcValidate:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run_cli(["mc-validate", "--a", "0", "--n", "5", "--count", "1000",
                        "--seed", "7", "--m", "30", "--output", str(out)])
        assert code == 0
        header, rows = read_table(out)
        assert rows[0][header.index("passed")] == "true"

    def test_count_below_floor_fails_fast(self, capsys):
        code = run_cli(["mc-validate", "--a", "0", "--n", "5", "--count", "500"])
        assert code == 2


class TestUsageAndErrors:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["limit-cdf", "--a", "0", "--s", "4", "--frobnicate"])
        assert info.value.code == 1

    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as info:
            run_cli([])
        assert info.value.code == 1

    def test_domain_error_exits_2(self, capsys):
        assert run_cli(["limit-cdf", "--a", "-2", "--s", "4"]) == 2
        assert run_cli(["limit-cdf", "--a", "0", "--s", "-4"]) == 2
        assert run_cli(["limit-cdf", "--a", "0", "--s-grid", "1:0:1"]) == 2

    def test_grid_validated_before_compute(self, capsys):
        # the bad value sits at the end of the grid: nothing may be computed
        code = run_cli(["limit-cdf", "--a", "0", "--s", "1,2,0"])
        assert code == 2
