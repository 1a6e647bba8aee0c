"""Acceptance suite: every release-gating criterion at its pinned tolerance.

Run as `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import math
import time

import mpmath as mp
import numpy as np
from scipy.special import gammaincc

from hardedge import (
    bessel_entire,
    bessel_spec,
    conjecture_residual,
    finite_cdf,
    finite_spec,
    gram_det,
    kernel_expansion_rate,
    kernel_matrix,
    ks_validate,
    limit_cdf,
    log_derivative,
    mehler_heine_residual,
    nystrom_det,
    optimal_scaling_residual,
    rate_report,
    resolvent_quadratic_form,
    uncorrected_difference,
)
from hardedge.quadrature import gauss_jacobi, scale_rule

ORDERS = (50, 100, 200, 400)
SECOND_ORDER = (-2.3, -1.7)
FIRST_ORDER = (-1.3, -0.7)


def report(number, ok, detail):
    line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


def test_criterion_01_limit_law_closed_form():
    started = time.perf_counter()
    worst = max(
        abs(limit_cdf(0.0, s, 50).value - math.exp(-s / 4.0)) for s in (0.1, 1.0, 4.0, 10.0)
    )
    elapsed = time.perf_counter() - started
    report(1, worst <= 1e-10 and elapsed < 1.0,
           f"|F(s) - e^(-s/4)| max {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)")


def test_criterion_02_finite_order_exactness_at_a_zero():
    worst = max(
        abs(finite_cdf(0.0, n, 4.0, scaling="standard", m=50).value - math.exp(-1.0))
        for n in (1, 5, 50)
    )
    report(2, worst <= 1e-10, f"|F_n(4) - e^(-1)| max {worst:.2e} (tol 1e-10)")


def test_criterion_03_order_one_law():
    worst = max(
        abs(finite_cdf(a, 1, s, scaling="standard", m=50).value
            - gammaincc(a + 1.0, s / 4.0))
        for a in (0.5, 1.0, 2.0) for s in (1.0, 4.0)
    )
    report(3, worst <= 1e-10, f"order-1 law residual max {worst:.2e} (tol 1e-10)")


def test_criterion_04_cross_oracle_agreement():
    worst = max(
        abs(nystrom_det(finite_spec(a, n), 4.0 * n * t, 50).value - gram_det(a, n, t, 60))
        for a, n, t in ((1.5, 10, 0.3), (-0.5, 25, 0.1))
    )
    report(4, worst <= 1e-10, f"|nystrom - gram| max {worst:.2e} (tol 1e-10)")


def test_criterion_05_corrected_expansion_rate():
    started = time.perf_counter()
    corrected = rate_report(1.0, 4.0, ORDERS, lambda n: conjecture_residual(1.0, n, 4.0))
    plain = rate_report(1.0, 4.0, ORDERS, lambda n: uncorrected_difference(1.0, n, 4.0))
    elapsed = time.perf_counter() - started
    ok = (
        SECOND_ORDER[0] <= corrected.fitted_slope <= SECOND_ORDER[1]
        and FIRST_ORDER[0] <= plain.fitted_slope <= FIRST_ORDER[1]
        and elapsed < 120.0
    )
    report(5, ok,
           f"corrected slope {corrected.fitted_slope:.3f} in {SECOND_ORDER}, "
           f"uncorrected {plain.fitted_slope:.3f} in {FIRST_ORDER}, {elapsed:.1f}s (< 120s)")


def test_criterion_06_tuned_scaling_rate_and_gain():
    slopes = {}
    for a in (1.0, 2.0):
        rep = rate_report(a, 4.0, ORDERS, lambda n: optimal_scaling_residual(a, n, 4.0))
        slopes[a] = rep.fitted_slope
    ratio = optimal_scaling_residual(2.0, 100, 4.0) / uncorrected_difference(2.0, 100, 4.0)
    ok = all(SECOND_ORDER[0] <= sl <= SECOND_ORDER[1] for sl in slopes.values()) and ratio < 0.1
    report(6, ok,
           f"slopes a=1: {slopes[1.0]:.3f}, a=2: {slopes[2.0]:.3f} in {SECOND_ORDER}; "
           f"residual ratio at n=100: {ratio:.4f} (< 0.1)")


def test_criterion_07_scaled_laguerre_rate():
    rep = rate_report(1.5, 3.0, ORDERS, lambda n: mehler_heine_residual(1.5, n, 3.0))
    ok = SECOND_ORDER[0] <= rep.fitted_slope <= SECOND_ORDER[1]
    report(7, ok, f"scaled-Laguerre slope {rep.fitted_slope:.3f} in {SECOND_ORDER}")


def test_criterion_08_kernel_expansion_rate():
    slopes = {}
    for c in (0.0, -1.0):
        rep = kernel_expansion_rate(1.0, ORDERS, c, np.linspace(0.0, 8.0, 9))
        slopes[c] = rep.fitted_slope
    ok = all(SECOND_ORDER[0] <= sl <= SECOND_ORDER[1] for sl in slopes.values())
    report(8, ok,
           f"kernel slopes c=0: {slopes[0.0]:.3f}, c=-1: {slopes[-1.0]:.3f} in {SECOND_ORDER}")


def test_criterion_09_resolvent_identity():
    worst_resolvent = 0.0
    worst_fd = 0.0
    for a, s in ((0.5, 2.0), (2.0, 6.0)):
        spec = bessel_spec(a)
        lhs = -0.25 * resolvent_quadratic_form(spec, s, 50)
        worst_resolvent = max(
            worst_resolvent, abs(lhs - s * log_derivative(spec, s, 50, method="resolvent"))
        )
        worst_fd = max(
            worst_fd, abs(lhs - s * log_derivative(spec, s, 50, method="finite_difference"))
        )
    a_zero = max(
        abs(resolvent_quadratic_form(bessel_spec(0.0), s, 50) - s) for s in (2.0, 6.0)
    )
    ok = worst_resolvent <= 1e-8 and worst_fd <= 1e-5 and a_zero <= 1e-8
    report(9, ok,
           f"resolvent-path {worst_resolvent:.2e} (tol 1e-8), difference-path "
           f"{worst_fd:.2e} (tol 1e-5), a=0 anchor {a_zero:.2e} (tol 1e-8)")


def test_criterion_10_rank_one_factorization():
    a, n, s, m = 1.0, 100, 4.0, 50
    tau = a / (8.0 * n)
    rule = scale_rule(gauss_jacobi(m, a), s)
    sqrt_w = np.sqrt(rule.weights)
    sym = sqrt_w[:, None] * kernel_matrix(bessel_spec(a), rule.nodes) * sqrt_w[None, :]
    b = sqrt_w * np.array([2.0 ** -a * bessel_entire(a, 0.25 * x) for x in rule.nodes])
    lhs = np.linalg.det(np.eye(m) - sym - tau * np.outer(b, b))
    rhs = np.linalg.det(np.eye(m) - sym) * (
        1.0 - tau * float(b @ np.linalg.solve(np.eye(m) - sym, b))
    )
    residual = abs(lhs - rhs)
    report(10, residual <= 1e-10, f"factorization residual {residual:.2e} (tol 1e-10)")


def test_criterion_11_spectral_quadrature_convergence():
    worst = max(
        abs(limit_cdf(a, s, 20).value - limit_cdf(a, s, 40).value)
        for a in (-0.5, 0.0, 2.0) for s in (1.0, 4.0, 10.0)
    )
    report(11, worst < 1e-12, f"|F(m=20) - F(m=40)| max {worst:.2e} (tol 1e-12)")


def test_criterion_12_monte_carlo_agreement():
    started = time.perf_counter()
    statistic, passed = ks_validate(1, 20, 20000, seed=12345, m=50)
    elapsed = time.perf_counter() - started
    threshold = 1.63 / math.sqrt(20000)
    ok = passed and elapsed < 120.0
    report(12, ok,
           f"KS statistic {statistic:.5f} < {threshold:.5f} at 1% level, "
           f"{elapsed:.0f}s (< 120s)")


def forrester_hughes_gap(a, n, t):
    """P(lambda_min >= t) = e^{-nt} det[L_{n+j-k}^{(k-j)}(-t)]_{j,k<a} for
    integer a (Forrester-Hughes, J. Math. Phys. 35 (1994)), in 40-digit
    arithmetic, since the a x a determinant cancels."""
    with mp.workdps(40):
        tt = mp.mpf(t)
        matrix = mp.matrix(a, a)
        for j in range(a):
            for k in range(a):
                matrix[j, k] = mp.laguerre(n + j - k, k - j, -tt)
        return float(mp.exp(-n * tt) * mp.det(matrix))


def test_criterion_13_finite_law_against_forrester_hughes():
    started = time.perf_counter()
    worst = 0.0
    for a in (1, 2, 3):
        for n in (20, 100, 400, 1000):
            for s in (4.0, 40.0):
                for scaling, stretch in (("standard", 1.0), ("optimal", 1.0 - a / (2.0 * n))):
                    ref = forrester_hughes_gap(a, n, stretch * s / (4.0 * n))
                    value = finite_cdf(a, n, s, scaling=scaling, m=50).value
                    worst = max(worst, abs(value - ref) / ref)
    elapsed = time.perf_counter() - started
    report(13, worst <= 1e-11,
           f"finite_cdf vs Forrester-Hughes, 48 (a, n, s, scaling) cases, max relative "
           f"{worst:.2e} (tol 1e-11), {elapsed:.2f}s")
