import math

import numpy as np
import pytest
from scipy import integrate as sint
from scipy import special as sp

from hardedge import (
    AccuracyError,
    DomainError,
    bessel_spec,
    finite_spec,
    gram_det,
    hat_bessel_j,
    kernel_matrix,
    log_derivative,
    nystrom_det,
    reg_upper_gamma,
    resolvent_quadratic_form,
)
from hardedge import NumericError, fredholm
from hardedge.quadrature import gauss_jacobi, scale_rule

E_INV = math.exp(-1.0)


class TestNystromDet:
    def test_vanishing_interval(self):
        result = nystrom_det(bessel_spec(1.0), 1e-12, 30)
        assert result.value == pytest.approx(1.0, abs=1e-10)

    def test_exponential_law_anchor(self):
        # at a = 0 the limit law is exactly e^{-s/4}
        result = nystrom_det(bessel_spec(0.0), 4.0, 50)
        assert result.value == pytest.approx(E_INV, abs=1e-12)
        assert result.error_estimate < 1e-13
        assert result.m == 50

    def test_monotone_decreasing_in_s(self):
        values = [nystrom_det(bessel_spec(0.5), s, 40).value for s in np.linspace(0.5, 12.0, 12)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("a", [-0.5, 0.0, 2.0])
    @pytest.mark.parametrize("s", [1.0, 10.0])
    def test_spectral_convergence(self, a, s):
        coarse = nystrom_det(bessel_spec(a), s, 20).value
        fine = nystrom_det(bessel_spec(a), s, 40).value
        assert abs(coarse - fine) < 1e-12

    def test_value_in_unit_interval(self):
        for s in [0.5, 5.0, 20.0, 40.0]:
            value = nystrom_det(bessel_spec(1.5), s, 40).value
            assert 0.0 < value <= 1.0 + 1e-12

    def test_range_checked_on_every_determinant(self, monkeypatch):
        # det(I + A) > 1 breaks the range invariant 0 < det <= 1; the
        # difference path, which reads bare determinants, must refuse it too
        def negated(spec, nodes, **kwargs):
            return -kernel_matrix(spec, nodes, **kwargs)

        monkeypatch.setattr(fredholm, "kernel_matrix", negated)
        with pytest.raises(NumericError):
            nystrom_det(bessel_spec(1.0), 4.0, 30)
        with pytest.raises(NumericError):
            log_derivative(bessel_spec(1.0), 4.0, 30, method="finite_difference")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nystrom_det(bessel_spec(0.0), 0.0, 30)
        with pytest.raises(DomainError):
            nystrom_det(bessel_spec(0.0), 4.0, 3)
        with pytest.raises(DomainError):
            nystrom_det(bessel_spec(0.0), 4.0, 495)


class TestGramOracle:
    def test_order_one_exponential(self):
        for t in [0.2, 1.0, 3.0]:
            assert gram_det(0.0, 1, t, 30) == pytest.approx(math.exp(-t), rel=1e-12)

    def test_order_one_incomplete_gamma(self):
        for a in [-0.5, 0.5, 2.0]:
            for t in [0.5, 2.0]:
                expected = reg_upper_gamma(a + 1.0, t)
                assert gram_det(a, 1, t, 40) == pytest.approx(expected, rel=1e-12)

    def test_tiny_interval(self):
        assert gram_det(1.0, 5, 1e-10, 40) == pytest.approx(1.0, abs=1e-9)

    def test_needs_enough_nodes(self):
        with pytest.raises(AccuracyError):
            gram_det(1.0, 30, 1.0, 45)

    @pytest.mark.parametrize("n", [2, 10, 25])
    @pytest.mark.parametrize("a", [-0.5, 0.5, 2.0])
    def test_measure_change_invariance(self, n, a):
        # the conjugated Nystrom determinant must reproduce the rank-n Gram
        # determinant of the unconjugated kernel; pick t so the value is
        # informative (well inside (0.1, 0.9))
        s = 8.0 if a == 2.0 else 4.0
        t = s / (4.0 * n)
        gram = gram_det(a, n, t, max(50, n + 25))
        nystrom = nystrom_det(finite_spec(a, n), s, 50).value
        assert 0.1 < gram < 0.9
        assert abs(nystrom - gram) < 1e-10

    def test_acceptance_style_pairs(self):
        for a, n, t in [(1.5, 10, 0.3), (-0.5, 25, 0.1)]:
            nystrom = nystrom_det(finite_spec(a, n), 4.0 * n * t, 50).value
            gram = gram_det(a, n, t, 60)
            assert abs(nystrom - gram) < 1e-10


class TestResolventQuadraticForm:
    def test_zero_kernel(self, monkeypatch):
        # with K = 0 the functional collapses to integral_0^s J_a(sqrt x)^2 dx;
        # the real assembly still runs, so the production hat_j_out fills b
        a, s = 0.5, 4.0

        def zero_kernel(spec, nodes, **kwargs):
            return np.zeros_like(kernel_matrix(spec, nodes, **kwargs))

        monkeypatch.setattr(fredholm, "kernel_matrix", zero_kernel)
        value = resolvent_quadratic_form(bessel_spec(a), s, 40)
        # substitute x = w^2 so the oracle integrand is smooth at the origin
        reference, err = sint.quad(
            lambda w: 2.0 * w * sp.jv(a, w) ** 2, 0.0, math.sqrt(s), limit=200
        )
        assert err < 1e-10
        assert value == pytest.approx(reference, abs=1e-9)

    def test_exponential_law_value(self):
        # a = 0: the quadratic form equals s itself
        for s in [1.0, 4.0, 10.0]:
            value = resolvent_quadratic_form(bessel_spec(0.0), s, 50)
            assert value == pytest.approx(s, abs=1e-8)

    def test_positivity(self):
        for s in [1.0, 4.0, 10.0]:
            assert resolvent_quadratic_form(bessel_spec(2.0), s, 40) > 0.0

    def test_limit_family_only(self):
        with pytest.raises(DomainError):
            resolvent_quadratic_form(finite_spec(1.0, 10), 2.0, 40)


class TestLogDerivative:
    def test_exponential_law_slope(self):
        for s in [1.0, 4.0, 10.0]:
            assert log_derivative(bessel_spec(0.0), s, 50) == pytest.approx(-0.25, abs=1e-9)

    @pytest.mark.parametrize("a,s", [(0.5, 2.0), (2.0, 6.0)])
    def test_resolvent_matches_finite_difference(self, a, s):
        spec = bessel_spec(a)
        smooth = log_derivative(spec, s, 50, method="resolvent")
        stepped = log_derivative(spec, s, 50, method="finite_difference")
        assert abs(smooth - stepped) < 1e-6

    def test_negative_and_finite_near_origin(self):
        value = log_derivative(bessel_spec(2.0), 1e-4, 40)
        assert math.isfinite(value)
        assert value < 0.0

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            log_derivative(bessel_spec(0.0), 1.0, 40, method="symbolic")


class TestRankOneFactorization:
    def test_determinant_identity(self):
        # det(I - A - tau b b^T) = det(I - A) (1 - tau <(I-A)^{-1} b, b>)
        a, n, s, m = 1.0, 100, 4.0, 50
        tau = a / (8.0 * n)
        rule = scale_rule(gauss_jacobi(m, a), s)
        sqrt_w = np.sqrt(rule.weights)
        sym = sqrt_w[:, None] * kernel_matrix(bessel_spec(a), rule.nodes) * sqrt_w[None, :]
        b = sqrt_w * np.array([hat_bessel_j(a, x) for x in rule.nodes])
        lhs = np.linalg.det(np.eye(m) - sym - tau * np.outer(b, b))
        base = np.linalg.det(np.eye(m) - sym)
        quad = float(b @ np.linalg.solve(np.eye(m) - sym, b))
        rhs = base * (1.0 - tau * quad)
        assert abs(lhs - rhs) < 1e-10
        # and the quadratic form agrees with the public functional
        assert quad == pytest.approx(resolvent_quadratic_form(bessel_spec(a), s, m), rel=1e-12)
