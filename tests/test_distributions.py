import math

import pytest

from hardedge import (
    DomainError,
    bessel_spec,
    finite_cdf,
    finite_table,
    limit_cdf,
    limit_density,
    limit_table,
    log_derivative,
    reg_upper_gamma,
    resolvent_quadratic_form,
)
from hardedge import fredholm
from hardedge.distributions import DistributionTable, TableRow
from hardedge.errors import NumericError
from hardedge.kernels import kernel_matrix


@pytest.fixture
def assemblies(monkeypatch):
    """Node counts of the kernel assemblies made from here on in a test."""
    sizes = []

    def counting(spec, nodes, **kwargs):
        sizes.append(nodes.size)
        return kernel_matrix(spec, nodes, **kwargs)

    monkeypatch.setattr(fredholm, "kernel_matrix", counting)
    return sizes


class TestLimitCdf:
    @pytest.mark.parametrize("s", [0.1, 1.0, 4.0, 10.0])
    def test_exponential_law(self, s):
        assert limit_cdf(0.0, s, 50).value == pytest.approx(math.exp(-s / 4.0), abs=1e-12)

    def test_tiny_interval(self):
        assert limit_cdf(1.5, 1e-12, 30).value == pytest.approx(1.0, abs=1e-10)

    def test_monotone(self):
        first = limit_cdf(2.0, 1.0, 40).value
        second = limit_cdf(2.0, 2.0, 40).value
        assert 0.0 < second < first < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            limit_cdf(-1.5, 1.0)
        with pytest.raises(DomainError):
            limit_cdf(0.0, -1.0)
        with pytest.raises(DomainError):
            limit_cdf(0.0, 1601.0)


class TestFiniteCdf:
    @pytest.mark.parametrize("s", [1.0, 4.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_order_one_law(self, a, s):
        # a single eigenvalue with density x^a e^{-x}: survival is Q(a+1, s/4)
        value = finite_cdf(a, 1, s, scaling="standard", m=50).value
        assert value == pytest.approx(reg_upper_gamma(a + 1.0, s / 4.0), abs=1e-11)

    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_exponential_law_any_order(self, n):
        value = finite_cdf(0.0, n, 4.0, scaling="standard", m=50).value
        assert value == pytest.approx(math.exp(-1.0), abs=1e-11)

    def test_scalings_coincide_at_a_zero(self):
        plain = finite_cdf(0.0, 7, 3.0, scaling="standard", m=40).value
        tuned = finite_cdf(0.0, 7, 3.0, scaling="optimal", m=40).value
        assert plain == tuned

    def test_custom_minus_a_matches_standard(self):
        # c = -a zeroes the modification, so the scale maps are identical
        plain = finite_cdf(1.5, 9, 4.0, scaling="standard", m=40).value
        custom = finite_cdf(1.5, 9, 4.0, scaling="custom", m=40, c=-1.5).value
        assert plain == custom

    def test_converges_to_limit(self):
        a, s = 1.0, 4.0
        target = limit_cdf(a, s, 60).value
        gaps = [
            abs(finite_cdf(a, n, s, scaling="standard", m=60).value - target)
            for n in (50, 100, 200, 400)
        ]
        assert all(b < a_ for a_, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 5e-3

    def test_scaling_validation(self):
        with pytest.raises(DomainError):
            finite_cdf(1.0, 5, 2.0, scaling="nonsense")
        with pytest.raises(DomainError):
            finite_cdf(1.0, 5, 2.0, scaling="custom")  # c missing
        with pytest.raises(DomainError):
            finite_cdf(1.0, 5, 2.0, scaling="standard", c=0.5)

    def test_order_validation(self):
        # a non-integral n is refused, not truncated to int(n)
        for n in (2.5, 100.5, 0, -3, math.nan, math.inf):
            with pytest.raises(DomainError):
                finite_cdf(1.0, n, 4.0)
        assert finite_cdf(1.0, 100.0, 4.0) == finite_cdf(1.0, 100, 4.0)
        assert finite_cdf(1.0, 100.0, 4.0, scaling="optimal") == finite_cdf(
            1.0, 100, 4.0, scaling="optimal")


class TestLimitDensity:
    def test_exponential_law_derivative(self):
        assert limit_density(0.0, 4.0, 50) == pytest.approx(-math.exp(-1.0) / 4.0, abs=1e-10)

    @pytest.mark.parametrize("a,s", [(0.5, 2.0), (2.0, 6.0)])
    def test_methods_agree(self, a, s):
        smooth = limit_density(a, s, 50, method="resolvent")
        stepped = limit_density(a, s, 50, method="finite_difference")
        assert smooth < 0.0
        assert abs(smooth - stepped) < 1e-6

    def test_bounded_near_origin(self):
        value = limit_density(2.0, 1e-4, 40)
        assert math.isfinite(value)
        assert -1.0 < value <= 0.0

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            limit_density(0.5, 1.0, 40, method="magic")

    @pytest.mark.parametrize("a,s", [(0.5, 2.0), (3.0, 25.0)])
    def test_one_assembly(self, a, s, assemblies):
        # determinant and resolvent solve share one assembly of I - A
        value = limit_density(a, s, 50)
        assert assemblies == [50]
        reference = limit_cdf(a, s, 50).value * log_derivative(bessel_spec(a), s, 50)
        assert value == pytest.approx(reference, rel=1e-13, abs=0.0)


class TestResolventIdentity:
    @pytest.mark.parametrize("a,s", [(0.5, 2.0), (2.0, 6.0)])
    def test_quadratic_form_is_log_slope(self, a, s):
        # -u/4 against s f/F with f from the independent difference route
        quad = resolvent_quadratic_form(bessel_spec(a), s, 50)
        value = limit_cdf(a, s, 50).value
        slope = limit_density(a, s, 50, method="finite_difference")
        assert abs(-0.25 * quad - s * slope / value) < 1e-8


class TestTables:
    def test_limit_table_matches_pointwise(self):
        grid = [0.5, 1.0, 2.0, 4.0]
        table = limit_table(1.0, grid, m=40, density=True)
        assert [row.s for row in table.rows] == grid
        for row in table.rows:
            assert row.F == limit_cdf(1.0, row.s, 40).value
            assert row.f <= 0.0
            assert row.F_err < 1e-12

    def test_density_table_shares_assemblies(self, assemblies):
        # F, F_err and f of a row come from the m and m + 10 assemblies only
        table = limit_table(2.0, [0.5, 3.0, 9.0], m=40, density=True)
        assert sorted(assemblies) == [40] * 3 + [50] * 3
        for row in table.rows:
            det = limit_cdf(2.0, row.s, 40)
            assert (row.F, row.F_err) == (det.value, det.error_estimate)
            assert row.f == limit_density(2.0, row.s, 40)

    def test_finite_table_ordering_and_range(self):
        table = finite_table(0.5, 8, [1.0, 2.0, 4.0, 8.0], m=40)
        values = [row.F for row in table.rows]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)
        assert table.n == 8 and table.scaling == "standard"

    def test_validation_catches_bad_rows(self):
        bad = DistributionTable(
            a=0.0, n=None, scaling="limit", m=10,
            rows=(TableRow(1.0, 0.5, None, 0.0), TableRow(2.0, 0.7, None, 0.0)),
        )
        with pytest.raises(NumericError):
            bad.validate()
        positive_f = DistributionTable(
            a=0.0, n=None, scaling="limit", m=10,
            rows=(TableRow(1.0, 0.5, 0.2, 0.0),),
        )
        with pytest.raises(NumericError):
            positive_f.validate()
