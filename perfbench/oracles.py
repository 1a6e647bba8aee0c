"""Reference values the benchmark checks hardedge against.

Every special function here comes from scipy or mpmath, never from
hardedge, so a defect in hardedge's own special functions cannot hide
behind a check that shares them.  The closed forms are the integer-a
determinant formulas of Forrester (Nucl. Phys. B 402, 1993) and
Forrester-Hughes (J. Math. Phys. 35, 1994).
"""

import math

import mpmath
import numpy as np
from scipy import special

# Two-sided Kolmogorov-Smirnov coefficient at alpha = 1e-6,
# sqrt(ln(2/alpha)/2).  The 1% coefficient 1.63 that hardedge uses rejects
# one correct batch in a hundred, and a correctness gate must not fail on
# sampling luck; this one still rejects any wrong law by a wide margin.
KS_COEFF_STRICT = math.sqrt(math.log(2.0e6) / 2.0)


def limit_gap(a: int, s: float) -> float:
    """F(s) = e^{-s/4} det[I_{j-k}(sqrt s)]_{j,k=1..a} for integer a >= 0."""
    idx = np.arange(a)
    matrix = special.iv(idx[:, None] - idx[None, :], math.sqrt(s))
    return math.exp(-0.25 * s) * float(np.linalg.det(matrix))


def limit_gap_density(a: int, s: float) -> float:
    """dF/ds of limit_gap by a Richardson-extrapolated central difference."""
    h = min(1e-3, 0.5 * s)

    def central(step: float) -> float:
        return (limit_gap(a, s + step) - limit_gap(a, s - step)) / (2.0 * step)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def order_one_gap(a: float, t: float) -> float:
    """P(lambda_min >= t) at n = 1, where lambda ~ Gamma(a+1): Q(a+1, t)."""
    return float(special.gammaincc(a + 1.0, t))


def finite_gap(a: int, n: int, t: float) -> float:
    """P(lambda_min >= t) = e^{-nt} det[L^{(k-j)}_{n+j-k}(-t)]_{j,k=1..a}
    for integer a, in 40-digit arithmetic (the a x a determinant cancels)."""
    with mpmath.workdps(40):
        tt = mpmath.mpf(t)
        matrix = mpmath.matrix(a, a)
        for j in range(a):
            for k in range(a):
                matrix[j, k] = mpmath.laguerre(n + j - k, k - j, -tt)
        return float(mpmath.exp(-n * tt) * mpmath.det(matrix))


def smallest_cdf_a1(n: int, t) -> np.ndarray:
    """P(lambda_min < t) of the a = 1 ensemble: 1 - e^{-nt} L_n(-t)."""
    t = np.asarray(t, dtype=float)
    return 1.0 - np.exp(-n * t) * special.eval_laguerre(n, -t)


def ks_statistic(sorted_samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of sorted samples to a CDF."""
    count = sorted_samples.size
    ranks = np.arange(1, count + 1, dtype=float)
    return float(max(np.max(ranks / count - cdf_values),
                     np.max(cdf_values - (ranks - 1.0) / count)))


def log_log_slope(orders, residuals) -> float:
    """Least-squares slope of ln(residual) against ln(n)."""
    return float(np.polyfit(np.log(orders), np.log(residuals), 1)[0])
