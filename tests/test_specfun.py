import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from hardedge import (
    AccuracyError,
    DomainError,
    SingularPointError,
    bessel_entire,
    bessel_j_sqrt,
    laguerre,
    laguerre_pair,
    laguerre_phi,
    log_gamma,
    reg_upper_gamma,
)
from hardedge.quadrature import gauss_jacobi, scale_rule

LN_SQRT_PI = 0.5723649429247001  # ln Gamma(1/2) = ln sqrt(pi)


def bessel_series_oracle(a, z, terms=400, dps=60):
    """Independent high-precision summation of the defining series.

    The Gamma argument must be assembled in mpf arithmetic: a float-rounded
    a+k+1 perturbs Gamma by ~1e-14 relative, which the cancellation of the
    alternating series at large z amplifies to visible error.
    """
    with mp.workdps(dps):
        total = mp.mpf(0)
        for k in range(terms):
            v = mp.mpf(a) + k + 1
            if v <= 0 and v == int(v):
                continue
            total += (-1) ** k * mp.mpf(z) ** k / (mp.factorial(k) * mp.gamma(v))
        return float(total)


class TestLogGamma:
    def test_exact_anchors(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(LN_SQRT_PI, abs=1e-13)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_against_mpmath(self):
        with mp.workdps(30):
            for x in np.geomspace(1e-3, 1e6, 400):
                ref = float(mp.loggamma(x))
                assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref)), x

    def test_recurrence(self):
        for x in np.linspace(0.1, 100.0, 211):
            resid = log_gamma(x + 1.0) - log_gamma(x) - math.log(x)
            assert abs(resid) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestBesselEntire:
    def test_value_at_zero(self):
        for a in [-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 7.0]:
            assert bessel_entire(a, 0.0) == pytest.approx(
                math.exp(-log_gamma(a + 1.0)), rel=1e-14
            )

    def test_order_one_series_anchor(self):
        # sum (-1)^k / (k! (k+1)!) summed independently
        oracle = math.fsum(
            (-1) ** k / (math.factorial(k) * math.factorial(k + 1)) for k in range(64)
        )
        assert bessel_entire(1.0, 1.0) == pytest.approx(oracle, rel=1e-14)
        assert oracle == pytest.approx(0.5767248078, abs=1e-10)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.0, 2.5])
    def test_against_series_oracle(self, a):
        for z in np.linspace(0.0, 100.0, 41):
            ref = bessel_series_oracle(a, z)
            assert abs(bessel_entire(a, z) - ref) <= 1e-12 * max(1.0, abs(ref)), (a, z)

    def test_negative_orders_for_internal_use(self):
        # orders down to a-2 > -3 appear in the expansion studies
        for b in [-2.5, -2.0, -1.5, -1.0]:
            for z in [0.0, 0.7, 3.0, 25.0]:
                ref = bessel_series_oracle(b, z)
                assert abs(bessel_entire(b, z) - ref) <= 1e-12 * max(1.0, abs(ref)), (b, z)
        # the delegated large-argument branch must handle them as well
        for b in [-1.9, -1.5]:
            for z in [60.0, 250.0]:
                ref = bessel_series_oracle(b, z)
                assert abs(bessel_entire(b, z) - ref) <= 1e-12 * max(1.0, abs(ref)), (b, z)

    def test_negative_argument(self):
        # entire continuation: all series terms have one sign for z < 0
        for z in [-0.5, -10.0, -200.0]:
            ref = bessel_series_oracle(0.5, z)
            assert bessel_entire(0.5, z) == pytest.approx(ref, rel=1e-13)

    def test_half_integer_closed_form(self):
        # j_{1/2}(z) = sin(2 sqrt z) / (sqrt(pi) z^{3/4} ...) via J_{1/2}
        for z in [0.25, 1.0, 9.0, 50.0, 300.0]:
            w = 2.0 * math.sqrt(z)
            ref = math.sqrt(2.0 / (math.pi * w)) * math.sin(w) * z ** -0.25
            assert bessel_entire(0.5, z) == pytest.approx(ref, abs=1e-13, rel=1e-12)

    def test_branch_seam_consistent(self):
        # series route (used for z <= 25) against the Bessel-J route at one z
        z = 25.0
        series_route = bessel_entire(1.3, z)
        jv_route = float(sp.jv(1.3, 2.0 * math.sqrt(z))) * z ** (-0.65)
        assert abs(series_route - jv_route) <= 1e-13 * max(1.0, abs(series_route))

    def test_refuses_out_of_range(self):
        with pytest.raises(AccuracyError):
            bessel_entire(0.0, 400.5)
        with pytest.raises(AccuracyError):
            bessel_entire(0.0, -401.0)
        with pytest.raises(DomainError):
            bessel_entire(0.0, math.nan)

    @pytest.mark.parametrize("a", [-2.5, -1.0, -0.5, 0.0, 0.7, 2.5, 7.0, 20.0])
    def test_array_against_series_oracle(self, a):
        # one call over a mixed array: negative arguments and the origin take
        # the series, tiny to maximal positive ones the library route
        z = np.array([3.0, -50.0, 1e-12, 399.9, 0.0, 1e-6, -1.3, 0.3, 24.0, 60.0, 150.0, 400.0])
        values = bessel_entire(a, z)
        assert values.shape == z.shape
        for zi, value in zip(z, values):
            ref = bessel_series_oracle(a, zi)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (a, zi)
            # an array element is the value of the scalar call
            assert abs(value - bessel_entire(a, float(zi))) <= 1e-15 * max(1.0, abs(ref))

    @pytest.mark.parametrize("a,z", [
        (20.0, 1e-12), (30.0, 1e-18), (50.0, 1e-9), (50.0, 1e-3),
        (-2.9, 1e-230), (-2.5, 1e-260), (-2.0, 1e-200), (3.0, 1e-215),
    ])
    def test_relative_accuracy_near_origin(self, a, z):
        # where J_a(2 sqrt z) or z^{-a/2} leaves the double range the series
        # must take over; an absolute tolerance could not see that, since
        # j_a(z) is tiny at large orders
        ref = bessel_series_oracle(a, z)
        for value in (bessel_entire(a, z), bessel_entire(a, np.array([z, 1.0]))[0]):
            assert math.isfinite(value)
            assert abs(value - ref) <= 1e-12 * abs(ref), (a, z)

    def test_array_shapes(self):
        z = np.linspace(0.0, 30.0, 12).reshape(3, 4)
        values = bessel_entire(0.5, z)
        assert values.shape == (3, 4)
        assert values[2, 3] == bessel_entire(0.5, np.array([30.0]))[0]
        assert bessel_entire(0.5, np.array([])).shape == (0,)
        assert isinstance(bessel_entire(0.5, np.float64(2.0)), float)
        # the series route too: z <= 0, and the range corner near z = 0
        assert isinstance(bessel_entire(0.5, -3.0), float)
        assert isinstance(bessel_entire(50.0, 1e-9), float)

    def test_array_refusals(self):
        with pytest.raises(AccuracyError):
            bessel_entire(0.0, np.array([1.0, 400.5, 2.0]))
        with pytest.raises(AccuracyError):
            bessel_entire(1.5, np.array([-401.0, 0.0]))
        with pytest.raises(DomainError):
            bessel_entire(0.0, np.array([1.0, math.nan]))
        with pytest.raises(DomainError):
            bessel_entire(0.0, np.array([math.inf, 1.0]))
        with pytest.raises(DomainError):
            bessel_entire(math.nan, np.array([1.0]))


class TestBesselJSqrt:
    def test_at_zero(self):
        assert bessel_j_sqrt(0.0, 0.0) == 1.0
        assert bessel_j_sqrt(1.0, 0.0) == 0.0
        assert bessel_j_sqrt(2.5, 0.0) == 0.0
        with pytest.raises(SingularPointError):
            bessel_j_sqrt(-0.5, 0.0)

    def test_half_integer_zero_of_sine(self):
        # J_{1/2}(pi) = sqrt(2/pi^2) sin(pi) = 0
        assert abs(bessel_j_sqrt(0.5, math.pi ** 2)) < 1e-13

    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.0, 2.5])
    def test_against_scipy(self, a):
        for x in np.linspace(0.01, 400.0, 57):
            ref = float(sp.jv(a, math.sqrt(x)))
            assert bessel_j_sqrt(a, x) == pytest.approx(ref, abs=1e-12), (a, x)

    def test_squared_consistency_of_two_series_routes(self):
        # (x/4)^{a/2} j_a(x/4) against the direct series for J_a(sqrt x)
        for a in [-0.5, 0.0, 0.5, 1.0, 2.5]:
            for x in np.linspace(0.5, 400.0, 25):
                direct = bessel_series_oracle(a, x / 4.0) * (x / 4.0) ** (a / 2.0)
                ours = bessel_j_sqrt(a, x)
                assert abs(ours ** 2 - direct ** 2) <= 1e-12 * max(1.0, direct ** 2)


class TestLaguerre:
    def test_degree_zero_and_one(self):
        assert laguerre(0, 1.7, 5.0) == 1.0
        assert laguerre(1, 2.0, 3.0) == 0.0  # 1 + a - x at a=2, x=3

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(0, 60))
            a = float(rng.uniform(-0.9, 5.0))
            x = float(rng.uniform(0.0, 20.0))
            ref = float(sp.eval_genlaguerre(n, a, x))
            assert laguerre(n, a, x) == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_contiguous_relation(self):
        # L_n^{a-1} + L_{n-1}^a = L_n^a
        rng = np.random.default_rng(11)
        for _ in range(80):
            n = int(rng.integers(1, 51))
            a = float(rng.uniform(-0.9, 5.0))
            x = float(rng.uniform(0.0, 10.0))
            lhs = laguerre(n, a - 1.0, x) + laguerre(n - 1, a, x)
            rhs = laguerre(n, a, x)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_array_argument(self):
        x = np.linspace(0.0, 5.0, 11)
        vals = laguerre(3, 0.5, x)
        assert vals.shape == x.shape
        assert vals[0] == pytest.approx(laguerre(3, 0.5, 0.0))

    def test_pair_is_one_pass_of_the_recurrence(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(1, 120))
            a = float(rng.uniform(-0.9, 5.0))
            x = rng.uniform(0.0, 20.0, size=5)
            prev, curr = laguerre_pair(n, a, x)
            assert np.array_equal(prev, laguerre(n - 1, a, x))
            assert np.array_equal(curr, laguerre(n, a, x))
        assert laguerre_pair(0, 0.5, 2.0) == (0.0, 1.0)

    def test_scalar_equals_array_element(self):
        # the recurrence runs in float or ndarray arithmetic, with the same
        # operations in the same order, so batching cannot change a value
        x = np.linspace(0.0, 40.0, 9)
        for n in (1, 2, 7, 400):
            batch = laguerre(n, 1.3, x)
            assert [laguerre(n, 1.3, float(xi)) for xi in x] == batch.tolist()

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(2, 0.0, math.nan)


class TestLaguerrePhi:
    def test_ground_state(self):
        for x in [0.1, 1.0, 7.0]:
            assert laguerre_phi(0, 0.0, x) == pytest.approx(math.exp(-x / 2.0), rel=1e-13)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.5])
    def test_orthonormality(self, a):
        # integral_0^inf phi_j phi_k dx by x^a-weighted quadrature on (0, L);
        # the truncated tail is below e^{-L/2} poly, i.e. negligible
        degrees = [0, 1, 2, 5, 9]
        top = max(degrees)
        rule = scale_rule(gauss_jacobi(40 + 2 * top, a), 40.0 + 10.0 * top)
        x = rule.nodes
        decay = np.exp(-x)
        for j in degrees:
            for k in degrees:
                cjk = math.exp(
                    0.5 * (log_gamma(j + 1.0) - log_gamma(j + a + 1.0))
                    + 0.5 * (log_gamma(k + 1.0) - log_gamma(k + a + 1.0))
                )
                integrand = cjk * decay * laguerre(j, a, x) * laguerre(k, a, x)
                value = rule.integrate(integrand)
                assert value == pytest.approx(1.0 if j == k else 0.0, abs=1e-8), (j, k)

    def test_high_degree_finite(self):
        assert math.isfinite(laguerre_phi(10000, 1.5, 3.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre_phi(1, 0.5, 0.0)
        with pytest.raises(DomainError):
            laguerre_phi(1, 0.5, -1.0)


class TestRegUpperGamma:
    def test_anchors(self):
        assert reg_upper_gamma(1.7, 0.0) == 1.0
        for t in [0.1, 1.0, 5.0]:
            assert reg_upper_gamma(1.0, t) == pytest.approx(math.exp(-t), rel=1e-13)
        # Gamma(2, t) = (1 + t) e^{-t}
        assert reg_upper_gamma(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)
        assert reg_upper_gamma(2.0, 1.0) == pytest.approx(0.7357588823428847, rel=1e-12)

    def test_against_mpmath(self):
        # past t = 400, the largest argument of the order-one law Q(a+1, s/4)
        # on the accepted s <= 1600, and over large and small orders
        with mp.workdps(40):
            for p in [0.3, 1.0, 2.5, 7.0, 40.0, 150.0, 400.0]:
                for t in [0.0, 0.2, 1.0, 3.0, 10.0, 80.0, 150.0, 400.0, 420.0, 800.0, 1600.0]:
                    ref = float(mp.gammainc(p, t, regularized=True))
                    assert reg_upper_gamma(p, t) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_upper_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_upper_gamma(1.0, -0.1)
