import math

import numpy as np
import pytest

from hardedge import (
    DomainError,
    conjecture_residual,
    finite_cdf,
    fit_slope,
    kernel_expansion_rate,
    limit_cdf,
    limit_density,
    log_gamma,
    mehler_heine_residual,
    optimal_scaling_residual,
    rate_report,
    taylor_step_residual,
    uncorrected_difference,
)
from hardedge import fredholm
from hardedge.expansion import STUDY_NODES, make_grid
from hardedge.kernels import kernel_matrix

ORDERS = (50, 100, 200, 400)
SECOND_ORDER = (-2.3, -1.7)
FIRST_ORDER = (-1.3, -0.7)


class TestFitSlope:
    def test_pure_power_law(self):
        slope, stderr = fit_slope([(n, n ** -2.0) for n in ORDERS])
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant_data(self):
        slope, _ = fit_slope([(n, 0.37) for n in ORDERS])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_subleading_term(self):
        slope, _ = fit_slope([(n, n ** -2.0 * (1.0 + 1.0 / n)) for n in ORDERS])
        assert -2.1 < slope < -1.9

    def test_degenerate_data(self):
        with pytest.raises(DomainError):
            fit_slope([(50, 1.0), (100, 0.5), (200, 0.25)])
        with pytest.raises(DomainError):
            fit_slope([(n, 0.0) for n in ORDERS])
        with pytest.raises(DomainError):
            fit_slope([(n, -1.0) for n in ORDERS])


class TestRateReport:
    def test_requires_spread_orders(self):
        with pytest.raises(DomainError):
            rate_report(1.0, 4.0, (50, 100, 150, 200), lambda n: 1.0 / n)
        with pytest.raises(DomainError):
            rate_report(1.0, 4.0, (50, 100, 200), lambda n: 1.0 / n)
        with pytest.raises(DomainError):
            rate_report(1.0, 4.0, (50, 100, 100, 400), lambda n: 1.0 / n)

    def test_orders_must_be_integers(self):
        with pytest.raises(DomainError):
            rate_report(1.0, 4.0, (50.5, 100, 200, 400), lambda n: 1.0 / n)
        with pytest.raises(DomainError):
            rate_report(1.0, 4.0, (0, 100, 200, 400), lambda n: 1.0 / n)
        report = rate_report(1.0, 4.0, (50.0, 100.0, 200.0, 400.0), lambda n: 1.0 / n)
        assert report.n_list == ORDERS
        assert all(type(n) is int for n in report.n_list)

    def test_degenerate_flag_on_solver_noise(self):
        report = rate_report(0.0, 4.0, ORDERS, lambda n: conjecture_residual(0.0, n, 4.0, 40))
        assert report.degenerate
        assert math.isnan(report.fitted_slope)

    def test_plain_report(self):
        report = rate_report(1.0, 4.0, ORDERS, lambda n: 3.0 * n ** -2.0)
        assert not report.degenerate
        assert report.residuals == tuple(3.0 * n ** -2.0 for n in ORDERS)
        assert report.fitted_slope == pytest.approx(-2.0, abs=1e-12)


def _corrected(value_n, value, slope, a, n, s):
    return abs(value_n - value - (a / (2.0 * n)) * s * slope)


# Each residual as the public functions give it: every term from a full
# evaluation with its m + 10 error estimate, which the residual discards.
PUBLIC_FORMULAS = {
    conjecture_residual: lambda a, n, s, m: _corrected(
        finite_cdf(a, n, s, scaling="standard", m=m).value,
        limit_cdf(a, s, m).value, limit_density(a, s, m), a, n, s),
    uncorrected_difference: lambda a, n, s, m: abs(
        finite_cdf(a, n, s, scaling="standard", m=m).value - limit_cdf(a, s, m).value),
    optimal_scaling_residual: lambda a, n, s, m: abs(
        finite_cdf(a, n, s, scaling="optimal", m=m).value - limit_cdf(a, s, m).value),
    taylor_step_residual: lambda a, n, s, m: _corrected(
        limit_cdf(a, s / (1.0 - a / (2.0 * n)), m).value,
        limit_cdf(a, s, m).value, limit_density(a, s, m), a, n, s),
}


class TestResidualAssemblies:
    @pytest.mark.parametrize("residual", list(PUBLIC_FORMULAS), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("a,n,s", [(1.0, 100, 4.0), (0.5, 50, 10.0)])
    def test_two_assemblies_and_public_value(self, residual, a, n, s, monkeypatch):
        sizes = []

        def counting(spec, nodes, **kwargs):
            sizes.append(nodes.size)
            return kernel_matrix(spec, nodes, **kwargs)

        monkeypatch.setattr(fredholm, "kernel_matrix", counting)
        value = residual(a, n, s)
        assert sizes == [STUDY_NODES, STUDY_NODES]
        assert value == PUBLIC_FORMULAS[residual](a, n, s, STUDY_NODES)

    @pytest.mark.parametrize("residual", list(PUBLIC_FORMULAS), ids=lambda f: f.__name__)
    def test_domain_checks_kept(self, residual):
        # a non-integral n must not be truncated, nor a bad one divide by zero
        for args in [(-1.0, 100, 4.0), (1.0, 100, 0.0), (1.0, 100, 1601.0), (1.0, 100, 4.0, 4),
                     (1.0, 2.5, 4.0), (1.0, 0, 4.0), (1.0, -3, 4.0)]:
            with pytest.raises(DomainError):
                residual(*args)

    @pytest.mark.parametrize("residual", list(PUBLIC_FORMULAS), ids=lambda f: f.__name__)
    def test_integral_float_order(self, residual):
        assert residual(1.0, 100.0, 4.0) == residual(1.0, 100, 4.0)

    @pytest.mark.parametrize("a,n", [(2.0, 1), (3.0, 1), (5.0, 2)])
    def test_taylor_step_needs_positive_stretch(self, a, n):
        with pytest.raises(DomainError, match=r"1 - a/\(2n\) > 0"):
            taylor_step_residual(a, n, 4.0)


class TestConjectureResidual:
    def test_exact_at_a_zero(self):
        for n in (50, 400):
            assert conjecture_residual(0.0, n, 4.0, 40) <= 1e-10

    def test_second_order_ratios(self):
        values = {n: conjecture_residual(1.0, n, 4.0) for n in (100, 200, 400)}
        assert 0.15 < values[200] / values[100] < 0.4
        assert 0.15 < values[400] / values[200] < 0.4

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("s", [1.0, 4.0, 10.0])
    def test_slope_window(self, a, s):
        corrected = rate_report(a, s, ORDERS, lambda n: conjecture_residual(a, n, s))
        assert SECOND_ORDER[0] <= corrected.fitted_slope <= SECOND_ORDER[1], corrected
        plain = rate_report(a, s, ORDERS, lambda n: uncorrected_difference(a, n, s))
        assert FIRST_ORDER[0] <= plain.fitted_slope <= FIRST_ORDER[1], plain


class TestOptimalScaling:
    def test_exact_at_a_zero(self):
        assert optimal_scaling_residual(0.0, 100, 4.0, 40) <= 1e-10

    def test_slope_window(self):
        report = rate_report(1.0, 4.0, ORDERS, lambda n: optimal_scaling_residual(1.0, n, 4.0))
        assert SECOND_ORDER[0] <= report.fitted_slope <= SECOND_ORDER[1]

    def test_beats_plain_scaling(self):
        tuned = optimal_scaling_residual(2.0, 100, 4.0)
        plain = uncorrected_difference(2.0, 100, 4.0)
        assert tuned / plain < 0.1


class TestTaylorStep:
    def test_second_order(self):
        scaled = [taylor_step_residual(1.0, n, 4.0) * n * n for n in ORDERS]
        assert max(scaled) < 1.0
        assert max(scaled) < 2.0 * min(scaled)


class TestMehlerHeine:
    def test_value_at_origin_closed_form(self):
        # L_n^a(0) = Gamma(n+a+1)/(n! Gamma(a+1)); the whole residual at z = 0
        # must decay at second order
        a = 1.5
        for n in (50, 100, 200, 400):
            lhs = math.exp(
                log_gamma(n + a + 1.0) - log_gamma(n + 1.0) - log_gamma(a + 1.0)
                - a * math.log(n + a)
            )
            correction = math.exp(-log_gamma(a - 1.0)) / (2.0 * n)
            expected = abs(lhs - 1.0 / math.gamma(a + 1.0) + correction)
            assert mehler_heine_residual(a, n, 0.0) == pytest.approx(expected, rel=1e-9)
            assert mehler_heine_residual(a, n, 0.0) * n * n < 1.0

    def test_slope_window(self):
        report = rate_report(1.5, 3.0, ORDERS, lambda n: mehler_heine_residual(1.5, n, 3.0))
        assert SECOND_ORDER[0] <= report.fitted_slope <= SECOND_ORDER[1]

    def test_magnitude_sanity(self):
        assert mehler_heine_residual(0.0, 100, 1.0) < 1e-3

    def test_scaled_residual_bounded_over_argument_range(self):
        for n in ORDERS:
            worst = max(mehler_heine_residual(1.0, n, z) for z in np.linspace(0.0, 10.0, 21))
            assert worst * n * n < 5.0, n

    def test_argument_envelope(self):
        with pytest.raises(DomainError):
            mehler_heine_residual(1.0, 100, 10.5)
        with pytest.raises(DomainError):
            mehler_heine_residual(1.0, 100, -0.1)
        with pytest.raises(DomainError):
            mehler_heine_residual(1.0, 0, 1.0)


class TestKernelExpansionRate:
    def test_grid_helper(self):
        grid = make_grid(limit=8.0, count=9)
        assert len(grid) == 81
        assert (0.0, 0.0) in grid and (8.0, 8.0) in grid

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_slope_window(self, c):
        report = kernel_expansion_rate(1.0, ORDERS, c, make_grid(8.0, 5))
        assert SECOND_ORDER[0] <= report.fitted_slope <= SECOND_ORDER[1], (c, report)

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            kernel_expansion_rate(1.0, ORDERS, 0.0, [])
