import math

import numpy as np
import pytest

from hardedge import (
    AccuracyError,
    DomainError,
    HardEdgeError,
    conjecture_residual,
    expansion_rate,
    finite_cdf,
    fit_slope,
    kernel_expansion_rate,
    kernel_expansion_residual,
    limit_cdf,
    limit_density,
    mehler_heine_residual,
    optimal_rate,
    optimal_scaling_residual,
    rate_report,
    uncorrected_difference,
)
from hardedge import expansion, fredholm, kernels
from hardedge.expansion import STUDY_NODES
from hardedge.kernels import _kernel_blocks, bessel_spec
from hardedge.specfun import _require_integer, require_order

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
        with pytest.raises(DomainError, match="two distinct orders"):
            fit_slope([(1, r) for r in (1.0, 0.5, 0.25, 0.125)])
        # nan slips past a bare r <= 0 check and would make the slope nan
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                fit_slope([(1, 1.0), (2, bad), (4, 0.1), (8, 0.01)])
            with pytest.raises(DomainError):
                fit_slope([(1, 1.0), (bad, 0.5), (4, 0.1), (8, 0.01)])


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_refuses_bad_residuals(self, bad):
        # also where a residual at solver noise would mark the report degenerate
        for tail in (1e-2, 1e-13):
            with pytest.raises(DomainError):
                rate_report(1.0, 4.0, ORDERS, lambda n: {100: bad, 400: tail}.get(n, 1.0 / n))

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


def taylor_step_residual(a, n, s, m=STUDY_NODES):
    """|F((1 - a/2n)^{-1} s) - F(s) - (a/2n) s f(s)|: the Taylor step that turns
    the tuned-scaling statement into the corrected expansion, from the limit
    law alone.  Assembled as a per-order residual is, from two m-node limit
    records, with the order checked as a residual checks it."""
    a, n = require_order(a), _require_integer(n, "order n", 1)
    spec = bessel_spec(a)
    [stretched] = fredholm._batch(spec, [s / (1.0 - a / (2.0 * n))], m)
    [limit] = fredholm._batch(spec, [s], m, resolvent=True)
    return expansion._corrected(stretched.value, limit, a, n, s)


def _taylor_step(a, n, s, m=STUDY_NODES):
    """taylor_step_residual from the public limit_cdf and limit_density."""
    return _corrected(limit_cdf(a, s / (1.0 - a / (2.0 * n)), m).value,
                      limit_cdf(a, s, m).value, limit_density(a, s, m), a, n, s)


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
    taylor_step_residual: _taylor_step,
}


class TestResidualAssemblies:
    @pytest.mark.parametrize("residual", list(PUBLIC_FORMULAS), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("a,n,s", [(1.0, 100, 4.0), (0.5, 50, 10.0)])
    def test_two_assemblies_and_public_value(self, residual, a, n, s, monkeypatch):
        sizes = []

        def counting(spec, node_sets):
            sizes.append(tuple(nodes.size for nodes in node_sets))
            return _kernel_blocks(spec, node_sets)

        monkeypatch.setattr(fredholm, "_kernel_blocks", counting)
        value = residual(a, n, s)
        assert sizes == [(STUDY_NODES,), (STUDY_NODES,)]
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
        # a 0-d array is a valid order too, though no dict key
        assert residual(1.0, np.array(100), 4.0) == residual(1.0, 100, 4.0)


# Each rate report as composing rate_report over the per-order functions
# gives it, in the order the command line once called them.
COMPOSED = {
    expansion_rate: lambda a, s, orders, m: (
        rate_report(a, s, orders, lambda n: conjecture_residual(a, n, s, m)),
        rate_report(a, s, orders, lambda n: uncorrected_difference(a, n, s, m))),
    optimal_rate: lambda a, s, orders, m: (
        rate_report(a, s, orders, lambda n: optimal_scaling_residual(a, n, s, m)),
        tuple(uncorrected_difference(a, n, s, m) for n in orders)),
}


def _outcome(fn, *args):
    """repr of the result (exact for every float, nan included), or the
    refusal's type and message."""
    try:
        return repr(fn(*args))
    except HardEdgeError as exc:
        return type(exc), str(exc)


class TestRateReports:
    @pytest.mark.parametrize("report", list(COMPOSED), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("a,s", [(1.0, 4.0), (0.5, 10.0), (2.0, 4.0), (0.0, 4.0)])
    def test_equals_per_order_functions(self, report, a, s):
        first, second = report(a, s, ORDERS)
        assert repr((first, second)) == _outcome(COMPOSED[report], a, s, ORDERS, STUDY_NODES)
        assert first.degenerate == (a == 0.0)

    @pytest.mark.parametrize("report,calls", [(expansion_rate, 5), (optimal_rate, 9)],
                             ids=["expansion_rate", "optimal_rate"])
    def test_one_limit_record(self, report, calls, monkeypatch):
        # one F_n per order (and scaling), and one limit record for all of them
        sizes = []

        def counting(spec, node_sets):
            sizes.append(tuple(nodes.size for nodes in node_sets))
            return _kernel_blocks(spec, node_sets)

        monkeypatch.setattr(fredholm, "_kernel_blocks", counting)
        report(1.0, 4.0, ORDERS)
        assert sizes == [(STUDY_NODES,)] * calls

    @pytest.mark.parametrize("report", list(COMPOSED), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("a,s,orders,m", [
        (1.0, 4.0, (50, 100), 60),                  # too few orders
        (1.0, 4.0, (50, 100, 150, 200), 60),        # span below 8
        (1.0, 4.0, (50.5, 100, 200, 400), 60),      # non-integral order
        (-1.0, 4.0, ORDERS, 60),                    # a out of range
        (1.0, 0.0, ORDERS, 60),
        (1.0, 1601.0, ORDERS, 60),
        (1.0, math.nan, ORDERS, 60),
        (1.0, 4.0, ORDERS, 4),                      # too few nodes
        (300.0, 100.0, ORDERS, 20),                 # weights leave the double range
        (5.0, 1000.0, (10, 20, 40, 80), 50),        # limit determinant negative
        (1.0, 1200.0, ORDERS, 20),
        (2.5, 900.0, (1, 2, 4, 8), 20),             # tuned scaling refused at n = 1
        (300.0, 4.0, (1000, 2000, 4000, 8000), 20),  # resolvent, then binom at n = 2000
    ])
    def test_refusals_match_per_order_functions(self, report, a, s, orders, m):
        outcome = _outcome(report, a, s, orders, m)
        assert isinstance(outcome, tuple), outcome
        assert outcome == _outcome(COMPOSED[report], a, s, orders, m)

    @pytest.mark.parametrize("report", [
        lambda orders: expansion_rate(1.0, 4.0, orders),
        lambda orders: optimal_rate(1.0, 4.0, orders),
        lambda orders: kernel_expansion_rate(1.0, orders, 0.0, np.linspace(0.0, 8.0, 9)),
        lambda orders: rate_report(1.5, 3.0, orders, lambda n: mehler_heine_residual(1.5, n, 3.0)),
    ], ids=["expansion_rate", "optimal_rate", "kernel_expansion_rate", "mehler_heine"])
    def test_order_cap_refused_before_any_work(self, report, monkeypatch):
        # an order past the cap at the end of the list is refused before the
        # first F_n, limit record, kernel or Laguerre value
        def no_work(*args, **kwargs):
            raise AssertionError("work before the order check")

        for module, name in [(expansion, "_batch"), (expansion, "_kernel_blocks"),
                             (fredholm, "_kernel_blocks"), (kernels, "_kernel_blocks"),
                             (expansion, "laguerre")]:
            monkeypatch.setattr(module, name, no_work)
        with pytest.raises(DomainError, match=r"order n must be an integer in \[1, 1000000\]"):
            report((100000, 200000, 400000, 1000001))

    def test_order_traps(self):
        # the limit record comes right after the first F_n: later, and the
        # n = 2000 binomial refusal would come first; earlier, and the limit's
        # negative determinant would come before the n = 1 scaling refusal
        with pytest.raises(AccuracyError, match="resolvent quadratic form underflows"):
            expansion_rate(300, 4, (1000, 2000, 4000, 8000), 20)
        with pytest.raises(DomainError, match=r"scaling .* must stay positive, got a=2\.5, n=1"):
            optimal_rate(2.5, 900, (1, 2, 4, 8), 20)


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
        scaled = [_taylor_step(1.0, n, 4.0) * n * n for n in ORDERS]
        assert max(scaled) < 1.0
        assert max(scaled) < 2.0 * min(scaled)


class TestMehlerHeine:
    def test_value_at_origin_closed_form(self):
        # L_n^a(0) = Gamma(n+a+1)/(n! Gamma(a+1)); the whole residual at z = 0
        # must decay at second order
        a = 1.5
        for n in (50, 100, 200, 400):
            lhs = math.exp(
                math.lgamma(n + a + 1.0) - math.lgamma(n + 1.0) - math.lgamma(a + 1.0)
                - a * math.log(n + a)
            )
            correction = math.exp(-math.lgamma(a - 1.0)) / (2.0 * n)
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
        # past MAX_ORDER under the caller's name for n, not laguerre's
        with pytest.raises(DomainError, match=r"^order n must be an integer in \[1, 1000000\], "
                                              r"got 1000001$"):
            mehler_heine_residual(1.0, 10 ** 6 + 1, 3.0)
        # a <= -1 lies outside the weight domain, whatever n + a does
        for a, n in [(-1.5, 1), (-5.0, 2), (-1.5, 50), (-1.0, 50)]:
            with pytest.raises(DomainError):
                mehler_heine_residual(a, n, 3.0)


class TestKernelExpansionRate:
    @pytest.mark.parametrize("a,c,axis", [
        (1.0, 0.0, np.linspace(0.0, 8.0, 9)),
        (1.0, -1.0, np.linspace(0.0, 8.0, 5)),
        (2.5, 3.0, np.linspace(0.0, 20.0, 17)),
        (0.0, 0.0, np.linspace(0.0, 1.0, 4)),
        (-0.5, 0.7, [0.3, 2.0, 2.0 + 1e-9, 7.5]),  # a near-diagonal pair
    ])
    def test_matches_pointwise_max(self, a, c, axis):
        # one kernel_matrix per order gives the pointwise residuals bit for bit
        orders = (7, 50, 100, 1000)
        report = kernel_expansion_rate(a, orders, c, axis)
        expected = tuple(
            max(abs(kernel_expansion_residual(a, n, c, x, y)) for x in axis for y in axis)
            for n in orders
        )
        assert report.residuals == expected
        assert report.s == max(axis)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_slope_window(self, c):
        report = kernel_expansion_rate(1.0, ORDERS, c, np.linspace(0.0, 8.0, 5))
        assert SECOND_ORDER[0] <= report.fitted_slope <= SECOND_ORDER[1], (c, report)

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            kernel_expansion_rate(1.0, ORDERS, 0.0, [])
