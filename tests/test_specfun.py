import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from hardedge import (
    AccuracyError,
    DomainError,
    bessel_entire,
    bessel_pair,
    laguerre,
)
from hardedge.quadrature import gauss_jacobi, scale_rule
from hardedge.specfun import (_BLOCK_ROWS, _ZERO_ORDER, _binomials, _block_rows, _laguerre_pass,
                              _laguerre_weights, _recurrence_table, _rgamma, _step_table)


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


class TestBesselEntire:
    def test_value_at_zero(self):
        for a in [-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 7.0]:
            assert bessel_entire(a, 0.0) == pytest.approx(
                math.exp(-math.lgamma(a + 1.0)), rel=1e-14
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

    @pytest.mark.parametrize("n,z", [(171, 100.0), (172, 400.0), (500, 100.0)])
    def test_negative_integer_orders_past_the_factorial_range(self, n, z):
        # the series starts at (-z)^n / n!, one running product, where separate
        # z^k and k! products overflow from k = 171; the reference is
        # j_{-n}(z) = (-z)^n j_n(z), since the series oracle's 400 terms
        # cannot reach order -500
        with mp.workdps(50):
            x = mp.mpf(z)
            ref = float((-x) ** n * mp.besselj(n, 2 * mp.sqrt(x)) * x ** (-mp.mpf(n) / 2))
        for value in (bessel_entire(-n, z), bessel_entire(-n, np.array([z, 1.0]))[0]):
            assert abs(value - ref) <= 1e-13 * abs(ref), (n, z)

    @pytest.mark.parametrize("a,z", [(-1001.0, 1e-3), (-1e7, 1.0), (-1e300, 1.0)])
    def test_underflowed_start_gives_zero(self, a, z):
        # (-z)^n / n! underflows within a few hundred factors, so the value is
        # 0.0 however large n is
        assert bessel_entire(a, z) == 0.0
        assert bessel_entire(a, np.array([z, 2.0])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("a,z", [(-300.5, 1.0), (-190.5, 400.0), (-250.5, 0.01),
                                     (-1e7 + 0.5, 1.0), (-1e15 + 0.5, 1.0), (-172.5, -1.0),
                                     (-171.5, 400.0)])
    def test_orders_out_of_range_are_refused(self, a, z):
        # 1/Gamma(a+1) = j_a(0) leaves the double range below a = -172.09,
        # but near the integers, and at (-171.5, 400) the recurrence's pair
        # does: each is refused, as a float call and as an array call
        with pytest.raises(AccuracyError):
            bessel_pair(a, z)
        with pytest.raises(AccuracyError):
            bessel_pair(a, np.array([z, 2.0]))

    @pytest.mark.parametrize("a", [-171.9, -171.5, -170.5])
    def test_right_or_refused_at_the_range_edge(self, a):
        # at the edge of the accepted orders a value is right, or refused
        # where it, or a series term or a recurrence value before it, leaves
        # the double range
        for z in (-400.0, -100.0, 100.0, 400.0):
            for nu in (a, a + 1.0):
                try:
                    value = bessel_entire(nu, z)
                except AccuracyError:
                    continue
                with mp.workdps(40):
                    ref = mp.hyp0f1(mp.mpf(nu) + 1, -z) * mp.rgamma(mp.mpf(nu) + 1)
                assert abs(value - ref) <= 1e-13 * abs(ref), (nu, z)

    def test_every_order_is_finite_or_refused(self):
        # no pair is inf or nan, and none raises but AccuracyError, as float
        # calls, one-element arrays and one array of every z
        z = [-400.0, -1.0, 0.0, 1e-3, 1.0, 100.0, 400.0]
        for a in (-1e15 + 0.5, -1e300, -1e7, -2000.5, -1001.0, -500.0, -300.5, -190.5, -172.5,
                  -171.0, -170.5, -45.0, -20.0, -2.5):
            for argument in z + [np.array([zi]) for zi in z] + [np.array(z)]:
                try:
                    pair = bessel_pair(a, argument)
                except AccuracyError:
                    continue
                assert all(np.isfinite(value).all() for value in pair), (a, argument)

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

    @pytest.mark.parametrize("a,z", [(0.5, 3.0), (0.5, -3.0), (50.0, 1e-9), (2.5, 0.0)])
    def test_zero_dimensional_array_is_the_float_call(self, a, z):
        # the library route, the series, the range corner and the origin
        value = bessel_entire(a, np.array(z))
        assert isinstance(value, float) and value == bessel_entire(a, z)

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


def envelope_error(nu, z, value):
    """|J_nu(x) - z^{nu/2} value| / max(|J_nu(x)|, sqrt(2/(pi x))), x = 2 sqrt z,
    against 40-digit mpmath."""
    with mp.workdps(40):
        x = 2 * mp.sqrt(mp.mpf(z))
        exact = mp.besselj(nu, x)
        envelope = max(abs(exact), mp.sqrt(2 / (mp.pi * x)))
        return float(abs(mp.mpf(z) ** (mp.mpf(nu) / 2) * mp.mpf(value) - exact) / envelope)


# 300 points in (0, 400]: geometric from 1e-6, and uniform over the oscillations
PAIR_Z = np.concatenate([np.geomspace(1e-6, 400.0, 200), np.linspace(4.0, 396.0, 100)])


class TestBesselPair:
    """j_a and j_{a+1} from one backward recurrence."""

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 7.25, 20.0, 50.0])
    def test_against_40_digit_values(self, nu):
        # scipy.special.jv, which this replaces, errs by up to 6.1e-14 here
        lower, upper = bessel_pair(nu, PAIR_Z)
        worst = max(envelope_error(order, z, value)
                    for order, values in ((nu, lower), (nu + 1.0, upper))
                    for z, value in zip(PAIR_Z.tolist(), values.tolist()))
        assert worst <= 1e-14

    @pytest.mark.parametrize("nu", [20.0, 50.0, 100.0, 160.0])
    def test_relative_accuracy_past_the_turning_point(self, nu):
        # where J_nu is not oscillating (nu + 1 > x) the pair is accurate
        # relative to itself, and at nu = 160 the unnormalized values stay in
        # range over the whole recurrence
        z = np.geomspace(1e-6, min(400.0, 0.2 * nu * nu), 40)
        lower, upper = bessel_pair(nu, z)
        with mp.workdps(40):
            for order, values in ((nu, lower), (nu + 1.0, upper)):
                for zi, value in zip(z.tolist(), values.tolist()):
                    exact = mp.besselj(order, 2 * mp.sqrt(zi)) * mp.mpf(zi) ** (-order / 2)
                    assert abs(value - exact) <= 1e-14 * abs(exact), (order, zi)

    @pytest.mark.parametrize("a,z", [(-2.0, 0.3), (-5.0, 0.1), (-10.0, 1.0), (-10.0, 19.0),
                                     (-20.0, 20.0), (-20.0, 79.0)])
    def test_negative_integer_orders_below_the_turning_point(self, a, z):
        # j_{-n}(z) = (-z)^n j_n(z): continued below order 0 the recurrence
        # loses it to cancellation there (2e-6 relative at (-20, 20)), so the
        # series takes it
        for nu, value in zip((a, a + 1.0), bessel_pair(a, z)):
            ref = bessel_series_oracle(nu, z)
            assert abs(value - ref) <= 1e-13 * abs(ref), (nu, z)

    @pytest.mark.parametrize("a", [-2.0, -0.9, -0.5, 0.0, 0.5, 1.0, 3.0, 7.25, 50.0, 120.5, 177.0,
                                   177.99])
    def test_batching_does_not_change_a_bit(self, a):
        # an element of a mixed array, whose others start the recurrence
        # higher or lower or take the series, equals its lone float call;
        # the orders include long steps below the pair loop (7.25, 120.5,
        # 177 < _ZERO_ORDER), steps that cross offset 0 (a < 0), and the
        # highest start below _ZERO_ORDER (177.99 at z = 400), which reads
        # the last entry of its recurrence table
        z = np.array([3.0, 400.0, 1e-9, -2.0, 0.0, 0.7, 57.5, 1.0, 1e-300, 12.25, 399.0])
        for order in (z, z[::-1], z.reshape(11, 1)):
            pair = bessel_pair(a, order)
            for zi, lower, upper in zip(order.ravel().tolist(), pair[0].ravel().tolist(),
                                        pair[1].ravel().tolist()):
                assert (lower, upper) == bessel_pair(a, zi), (a, zi)
                assert lower == bessel_entire(a, zi)

    def test_one_table_per_fractional_order(self):
        # the recurrence's constants are cached by the fractional order
        # alone: float and array calls over many z and integer parts at
        # three fractional orders leave three tables
        _recurrence_table.cache_clear()
        z = np.geomspace(1e-6, 400.0, 60)
        for fraction in (0.0, 0.25, 0.5):
            for a in (fraction - 1.0, fraction + 3.0, fraction + 40.0):
                bessel_pair(a, z)
                for zi in z[::7].tolist():
                    bessel_pair(a, zi)
        assert _recurrence_table.cache_info().currsize == 3

    def test_one_recurrence_gives_both_orders(self):
        # j_{a+1} of the pair at a is j_a of the pair at a + 1, to rounding
        z = np.linspace(0.5, 400.0, 50)
        for a in (-0.5, 0.0, 1.5):
            assert np.allclose(bessel_pair(a, z)[1], bessel_pair(a + 1.0, z)[0],
                               rtol=0.0, atol=1e-15)

    def test_zero_past_the_underflow_order(self):
        # |j_a| <= 1/Gamma(a+1) < 2^-1075 from a = 177.48: both values round to 0
        for z in (1e-9, 1.0, 400.0, np.array([1e-9, 1.0, 400.0])):
            for order in (_ZERO_ORDER, 1000.0, 1e300):
                for value in bessel_pair(order, z):
                    assert np.all(value == 0.0)
        # below it they are subnormal, not flushed: 1/175! and 1/176! (to the
        # spacing of subnormals there, 8e-6 and 1.4e-3 relative)
        lower, upper = bessel_pair(175.0, 1e-9)
        assert lower == pytest.approx(math.exp(-math.lgamma(176.0)), rel=1e-4)
        assert upper == pytest.approx(math.exp(-math.lgamma(177.0)), rel=1e-2)

    def test_shapes(self):
        z = np.linspace(0.0, 30.0, 12).reshape(3, 4)
        lower, upper = bessel_pair(0.5, z)
        assert lower.shape == upper.shape == (3, 4)
        assert all(isinstance(value, float) for value in bessel_pair(0.5, np.float64(2.0)))
        assert [v.shape for v in bessel_pair(0.5, np.array([]))] == [(0,), (0,)]


class TestLaguerre:
    def test_degree_zero_and_one(self):
        assert laguerre(0, 1.7, 5.0) == 1.0
        assert laguerre(0, 0.5, 2.0) == 1.0
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

    def test_scalar_equals_array_element(self):
        # the recurrence runs in float or ndarray arithmetic, with the same
        # operations in the same order, so batching cannot change a value
        x = np.linspace(0.0, 40.0, 9)
        for n in (1, 2, 7, 400):
            batch = laguerre(n, 1.3, x)
            assert [laguerre(n, 1.3, float(xi)) for xi in x] == batch.tolist()

    def test_binomials_are_cached_read_only(self):
        # the cached product is the same running product, bit for bit
        k = np.arange(1.0, 401.0)
        fresh = np.concatenate(([1.0], np.cumprod((k + 1.3) / k)))
        binom = _binomials(400, 1.3)
        assert np.array_equal(binom, fresh)
        assert _binomials(400, 1.3) is binom
        assert not binom.flags.writeable

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_high_degree_against_mpmath(self, a):
        # n = 1000 on hard-edge arguments t = x/(4n), x on a 10-node rule for
        # (0, 40); scaled by the largest value
        n = 1000
        t = scale_rule(gauss_jacobi(10, a), 40.0).nodes / (4.0 * n)
        with mp.workdps(50):
            for degree in (n - 1, n):
                ours = laguerre(degree, a, t)
                ref = np.array([float(mp.laguerre(degree, a, mp.mpf(ti))) for ti in t])
                assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref)), degree

    def test_out_of_range_values_are_refused(self):
        # L_n^a(1) at n = 10^4, a = 200 is near binom(n+a, n) ~ e^{981}
        with pytest.raises(AccuracyError):
            laguerre(10000, 200.0, 1.0)
        with pytest.raises(AccuracyError):
            laguerre(10000, 200.0, np.array([0.5, 1.0]))
        # binom(n+a, n) is in range but L_n^a(-x) ~ x^n / n! is not
        with pytest.raises(AccuracyError):
            laguerre(200, 0.5, -1e4)
        # the normalized pass and binom(n+a, n) are in range, their product is not
        for x in (-100.0, np.array([-100.0, 1.0])):
            with pytest.raises(AccuracyError, match=r"L_n\^a leaves the double range"):
                laguerre(1000, 200.0, x)

    def test_orders_below_minus_one(self):
        # outside the weight's range a > -1, but the polynomial is defined;
        # the contiguous relation reaches orders down to -2
        rng = np.random.default_rng(17)
        for a in (-1.9, -1.5, -1.0001, -2.5, -3.7):
            for n in (1, 2, 7, 40):
                x = rng.uniform(0.0, 20.0, size=4)
                ref = np.array([float(mp.laguerre(n, a, xi)) for xi in x])
                assert np.max(np.abs(laguerre(n, a, x) - ref)) <= 1e-13 * max(
                    1.0, np.max(np.abs(ref))
                ), (a, n)

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
                    0.5 * (math.lgamma(j + 1.0) - math.lgamma(j + a + 1.0))
                    + 0.5 * (math.lgamma(k + 1.0) - math.lgamma(k + a + 1.0))
                )
                integrand = cjk * decay * laguerre(j, a, x) * laguerre(k, a, x)
                value = float(rule.weights @ integrand)
                assert value == pytest.approx(1.0 if j == k else 0.0, abs=1e-8), (j, k)

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(2, 0.0, math.nan)
        for n in (math.nan, math.inf, 2.5):
            with pytest.raises(DomainError):
                laguerre(n, 0.5, 1.0)
        # one past the largest degree, refused before the binomials are sized
        for n in (10**6 + 1, 10**21):
            with pytest.raises(DomainError, match=r"degree must be an integer in \[0, 1000000\]"):
                laguerre(n, 0.5, 1.0)
        # binom(k+a, k) vanishes at negative integer a, where the normalized
        # recurrence is undefined
        for a in (-1.0, -2.0, -5.0):
            with pytest.raises(DomainError):
                laguerre(3, a, 1.0)


def reference_pass(n, a, t, weights=None, rows=None):
    """The recurrence as one loop of fresh-array operations, its step
    coefficients formed in the loop; both branches of _laguerre_pass must
    equal it bit for bit."""
    one = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    p_prev, p, d, total = 0.0 * one, one, 0.0 * one, 0.0 * one
    if weights is not None:
        weights = weights[:n].tolist()  # Python floats keep the scalar loop fast
    for k in range(n):
        if weights is not None:
            total += weights[k] * p * p
        if rows is not None:
            rows[k] = p
        p_prev = p
        den = k + a + 1.0
        d = k / den * d - 1.0 / den * t * p  # alpha_k d_k - (beta_k t) p_k
        p = p + d
    return p_prev, p, d, total


class TestLaguerrePass:
    @pytest.mark.parametrize("shape", [(0,), (1,), (2,), (110,), (3, 50)])
    @pytest.mark.parametrize("mode", ["weights", "rows", "neither"])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 1 / 3, 2.0, 7.25])
    def test_branches_equal_the_reference_loop(self, a, shape, mode):
        # every output, (p_{n-1}, p_n, d_n, total, rows), of the blocked
        # in-place ndarray pass, and (p_{n-1}, p_n, d_n, total) of the float
        # pass at each element, which takes no rows, equals the reference
        # loop bit for bit, on both sides of a block boundary; at one node a
        # pairwise sum of the squares would not.  At a = 1/3 the denominator
        # (k + a) + 1 differs from k + (a + 1) (k = 2, 3, 7, ...), so the pass
        # must form it as the loop does
        t = np.random.default_rng(19).uniform(0.0, 4.0, shape)
        block = _block_rows(1000, t.size)

        def outputs(run, n, x):
            weights = _laguerre_weights(n, a) if mode == "weights" else None
            rows = np.empty((n,) + np.shape(x)) if mode == "rows" else None
            return (*run(n, a, x, weights, rows), rows)

        for n in sorted({0, 1, 2, block - 1, block, block + 1, 1000}):
            expected = outputs(reference_pass, n, t)
            batched = outputs(_laguerre_pass, n, t)
            for want, got in zip(expected, batched):
                if want is None:
                    assert got is None
                else:
                    assert got.shape == want.shape and np.array_equal(got, want), n
            weights = _laguerre_weights(n, a) if mode == "weights" else None
            for index in np.ndindex(shape):
                single = _laguerre_pass(n, a, float(t[index]), weights)
                for want, got in zip(expected[:4], single):
                    assert got == want[index], (n, index)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weights"])
    @pytest.mark.parametrize("a", [-0.5, 1 / 3, 7.25])
    @pytest.mark.parametrize("n", [3 * _BLOCK_ROWS + 5, 1000])
    def test_float_pass_across_step_tables(self, n, a, weighted):
        # the float pass reads (alpha_k, beta_k) from one table per block of
        # _BLOCK_ROWS degrees, the last one cut short; across all of them it
        # equals the reference loop bit for bit (at a = 1/3, a denominator
        # k + (a + 1) would not)
        weights = _laguerre_weights(n, a) if weighted else None
        for t in (0.3, 1.7, 4.0):
            assert _laguerre_pass(n, a, t, weights) == reference_pass(n, a, t, weights), t

    def test_step_tables_are_immutable_tuples(self):
        # one cached table serves every later pass at its a, so neither its
        # float pairs nor its arrays can be changed; each entry is
        # (alpha_k, beta_k) = (k / den_k, 1 / den_k), den_k = (k + a) + 1,
        # and the arrays hold the same doubles
        a, block = 1 / 3, 2
        pairs, alphas, betas = table = _step_table(a, block)
        assert _step_table(a, block) is table
        assert type(pairs) is tuple and len(pairs) == _BLOCK_ROWS
        assert all(type(entry) is tuple for entry in pairs)
        degrees = range(block * _BLOCK_ROWS, (block + 1) * _BLOCK_ROWS)
        assert pairs == tuple((k / (k + a + 1.0), 1.0 / (k + a + 1.0)) for k in degrees)
        assert all(type(value) is float for entry in pairs for value in entry)
        for column in (alphas, betas):
            assert column.shape == (_BLOCK_ROWS,) and not column.flags.writeable
        assert list(zip(alphas.tolist(), betas.tolist())) == list(pairs)

    def test_ufunc_operands_are_arrays(self, monkeypatch):
        # a degree of the array pass is three ufunc calls: one multiply of two
        # (2, nodes) arrays, (alpha_k, beta_k t) by (d_k, p_k), one subtract
        # and one add.  Every other call is made once per block (the beta_k t
        # fill and the squares), no divide is made, and every operand is an
        # array with at least one axis: numpy would convert a Python scalar or
        # wrap a 0-d operand again on every call
        calls = []

        class Recording:
            def __init__(self, name, ufunc):
                self.name, self.ufunc = name, ufunc

            def __call__(self, *args, **kwargs):
                calls.append((self.name, args))
                return self.ufunc(*args, **kwargs)

            def __getattr__(self, attribute):  # reduce and accumulate
                return getattr(self.ufunc, attribute)

        n, t = 300, np.linspace(0.1, 4.0, 110)
        weights = _laguerre_weights(n, 0.5)
        blocks = -(-n // _block_rows(n, t.size))
        _laguerre_pass(n, 0.5, t, weights)  # the step tables are built
        for name in ("multiply", "subtract", "add", "divide"):
            monkeypatch.setattr(np, name, Recording(name, getattr(np, name)))
        _laguerre_pass(n, 0.5, t, weights)
        stacked = [args for name, args in calls
                   if name == "multiply" and all(np.shape(x) == (2, t.size) for x in args)]
        names = [name for name, _ in calls]
        assert len(stacked) == n and all(len(args) == 3 for args in stacked)
        assert names.count("multiply") == n + 3 * blocks
        assert names.count("subtract") == names.count("add") == n
        assert names.count("divide") == 0
        assert all(isinstance(x, np.ndarray) and x.ndim for _, args in calls for x in args)

    @pytest.mark.parametrize("nodes,limit", [(60, 128), (110, 128), (248, 128), (1100, 1024),
                                             (3300, 1024)])
    def test_block_buffers_stay_small(self, nodes, limit):
        # up to 248 nodes (110 are those of a finite_cdf determinant) a block
        # buffer stays under glibc's 128 kB mmap threshold, and beyond them
        # under 1 MB; p_n is a row of the buffer
        _, p, _, _ = _laguerre_pass(1000, 0.5, np.linspace(0.1, 4.0, nodes))
        assert p.base.nbytes < limit * 1024

    def test_high_degree_finite(self):
        # 10^4 degrees run through many block boundaries; the float and the
        # one-node array pass stay finite and agree bit for bit
        weights = _laguerre_weights(10000, 1.5)
        single = _laguerre_pass(10000, 1.5, 3.0, weights)
        batched = _laguerre_pass(10000, 1.5, np.array([3.0]), weights)
        assert all(math.isfinite(value) for value in single)
        assert [float(value[0]) for value in batched] == list(single)

    @pytest.mark.parametrize("k,a,x", [(10000, 200.0, 1.0), (10000, 0.5, 1400.0),
                                       (10000, 0.5, 1420.0)])
    def test_high_degree_against_mpmath(self, k, a, x):
        # p_k = L_k^a / binom(k+a, k): binom(k+a, k) overflows at (10^4, 200),
        # and p_k(1400) is near e^{700}, yet the normalized pass stays in range;
        # p_k(1420) = 1.85e304 is in range too, where t p_k would not be (the
        # step forms (beta_k t) p_k), on the float and the one-node array branch
        with mp.workdps(40):
            ref = float(mp.laguerre(k, a, x) / mp.binomial(k + a, k))
        assert _laguerre_pass(k, a, x)[1] == pytest.approx(ref, rel=1e-12)
        assert _laguerre_pass(k, a, np.array([x]))[1][0] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("k,x", [(10000, 30000.0), (3000, 20000.0), (10000, 1440.0)])
    def test_recurrence_overflow_is_refused(self, k, x):
        # p_k(x) leaves the double range (p_10000(1440) is -5.5e308); no nan
        # is returned on either branch
        with pytest.raises(AccuracyError):
            _laguerre_pass(k, 0.5, x)
        with pytest.raises(AccuracyError):
            _laguerre_pass(k, 0.5, np.array([1.0, x]))

    def test_leaving_the_double_range_is_refused(self):
        # p_k grows like e^{t/2}; at t = 2000 it overflows long before
        # degree 1000, on either branch, with no RuntimeWarning
        for t in (2000.0, np.array([1.0, 2000.0])):
            with pytest.raises(AccuracyError):
                _laguerre_pass(1000, 0.5, t, _laguerre_weights(1000, 0.5))


class TestRgamma:
    """_rgamma against scipy.special.rgamma, which it replaces."""

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_readme_orders_bit_equal(self, a):
        # 1/Gamma(a+1) scales the Laguerre weights and heads the Bessel series
        assert _rgamma(a + 1.0) == sp.rgamma(a + 1.0)

    def test_within_16_ulp(self):
        x = np.linspace(-60.5, 171.6, 20001)
        x = x[x != np.floor(x)]  # the poles are tested below
        ours = np.array([_rgamma(value) for value in x.tolist()])
        reference = sp.rgamma(x)
        assert np.all(np.abs(ours - reference) <= 16.0 * np.spacing(np.abs(reference)))

    def test_zero_at_poles_and_past_overflow(self):
        for x in [0.0, -1.0, -2.0, -3.0, -50.0, -171.0, -200.0,
                  171.63, 172.0, 1000.0, math.inf]:
            assert _rgamma(x) == 0.0 == sp.rgamma(x), x

    def test_infinities(self):
        # Gamma(x) a signed zero (-180.5, -200.5, -183.5) or a subnormal (-171.5)
        for x in [-180.5, -200.5, -171.5, -183.5]:
            assert math.isinf(_rgamma(x)) and _rgamma(x) == sp.rgamma(x), x

    def test_tiny_argument(self):
        # Gamma overflows there, and 1/Gamma(x) = x to double precision
        assert _rgamma(1e-310) == 1e-310
