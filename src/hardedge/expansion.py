"""Convergence-rate measurements for the finite-order corrections.

Each residual below is an exactly computable quantity that some expansion
claims is O(n^-2); the reports measure the decay empirically by fitting the
log-log slope over a list of orders n.  The slope of an honest second-order
residual lands near -2, while dropping the first-order correction degrades
it to near -1 -- which is precisely the distinction these measurements are
built to exhibit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _finite_value, _limit_point
from .errors import DomainError
from .fredholm import _det_and_log_derivative, _det_value
from .kernels import _require_n, kernel_expansion_residual
from .specfun import bessel_entire, laguerre, require_order

# Quadrature order for rate studies: determinant errors (~1e-14 at m=60)
# must stay far below the smallest residuals being measured (~1e-7).
STUDY_NODES = 60

DEFAULT_ORDERS = (50, 100, 200, 400)

# Residuals at or below this are solver noise (e.g. the a=0 cases, where the
# expansion is exact); reports flag them as degenerate instead of fitting.
DEGENERATE_FLOOR = 1e-12


@dataclass(frozen=True)
class ExpansionReport:
    """Residuals per order n plus the fitted log-log slope."""

    a: float
    s: float
    n_list: tuple[int, ...]
    residuals: tuple[float, ...]
    fitted_slope: float
    slope_stderr: float
    degenerate: bool = False


def fit_slope(pairs) -> tuple[float, float]:
    """Ordinary least squares slope of ln(residual) against ln(n).

    Returns (slope, standard error); needs >= 4 pairs with positive
    residuals.
    """
    pairs = [(float(n), float(r)) for n, r in pairs]
    if len(pairs) < 4:
        raise DomainError(f"slope fit needs at least 4 points, got {len(pairs)}")
    if any(r <= 0.0 for _, r in pairs):
        raise DomainError("slope fit needs strictly positive residuals")
    x = np.log([n for n, _ in pairs])
    y = np.log([r for _, r in pairs])
    x_centered = x - x.mean()
    sxx = float(x_centered @ x_centered)
    if sxx == 0.0:
        raise DomainError("slope fit needs at least two distinct orders")
    slope = float(x_centered @ y) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    ssr = float(np.sum((y - intercept - slope * x) ** 2))
    stderr = math.sqrt(max(ssr, 0.0) / (len(pairs) - 2) / sxx)
    return slope, stderr


def _check_orders(n_list) -> tuple[int, ...]:
    orders = tuple(_require_n(n) for n in n_list)
    if len(orders) < 4:
        raise DomainError("rate measurement needs at least 4 orders")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise DomainError("orders must be strictly increasing")
    if orders[-1] < 8 * orders[0]:
        raise DomainError("orders must span at least a factor of 8")
    return orders


def rate_report(a, s, n_list, residual_fn) -> ExpansionReport:
    """Evaluate a residual over the orders and fit the decay slope.

    Residuals at solver precision mark the report degenerate (slope nan)
    rather than fitting noise.
    """
    orders = _check_orders(n_list)
    residuals = tuple(float(residual_fn(n)) for n in orders)
    if min(residuals) <= DEGENERATE_FLOOR:
        return ExpansionReport(
            a=float(a), s=float(s), n_list=orders, residuals=residuals,
            fitted_slope=math.nan, slope_stderr=math.nan, degenerate=True,
        )
    slope, stderr = fit_slope(zip(orders, residuals))
    return ExpansionReport(
        a=float(a), s=float(s), n_list=orders, residuals=residuals,
        fitted_slope=slope, slope_stderr=stderr,
    )


def conjecture_residual(a, n, s, m=STUDY_NODES) -> float:
    """|F_n(s) - F(s) - (a/2n) s f(s)| under the plain hard-edge scaling.

    The second-order remainder of the corrected expansion; without the
    (a/2n) s f(s) term the difference |F_n - F| only decays like 1/n.
    """
    value_n = _finite_value(a, n, s, "standard", m)
    value, log_slope = _det_and_log_derivative(*_limit_point(a, s, m))
    return abs(value_n - value - (a / (2.0 * n)) * s * (value * log_slope))


def uncorrected_difference(a, n, s, m=STUDY_NODES) -> float:
    """|F_n(s) - F(s)|, the first-order benchmark for conjecture_residual."""
    value_n = _finite_value(a, n, s, "standard", m)
    return abs(value_n - _det_value(*_limit_point(a, s, m)))


def optimal_scaling_residual(a, n, s, m=STUDY_NODES) -> float:
    """|F_n under the optimally tuned scaling - F(s)|; decays like n^-2."""
    value_n = _finite_value(a, n, s, "optimal", m)
    return abs(value_n - _det_value(*_limit_point(a, s, m)))


def taylor_step_residual(a, n, s, m=STUDY_NODES) -> float:
    """|F((1 - a/2n)^{-1} s) - F(s) - (a/2n) s f(s)| for the limit law alone.

    Isolates the Taylor step that converts the tuned-scaling statement into
    the corrected expansion at the plain scaling; also O(n^-2).  Needs
    1 - a/2n > 0, so that the stretched endpoint is positive.
    """
    a, n = require_order(a), _require_n(n)
    shrink = 1.0 - a / (2.0 * n)
    if shrink <= 0.0:
        raise DomainError(f"taylor_step_residual needs 1 - a/(2n) > 0, got a={a!r}, n={n}")
    stretched = s / shrink
    value_stretched = _det_value(*_limit_point(a, stretched, m))
    value, log_slope = _det_and_log_derivative(*_limit_point(a, s, m))
    return abs(value_stretched - value - (a / (2.0 * n)) * s * (value * log_slope))


def mehler_heine_residual(a, n, z) -> float:
    """Second-order remainder of the scaled Laguerre polynomial expansion:

        |(n+a)^{-a} L_n^a(z/(n+a)) - j_a(z) + (1/2n) j_{a-2}(z)|,

    with the (n+a)^{-a} prefactor formed in the log domain.
    """
    z = float(z)
    if not 0.0 <= z <= 10.0:
        raise DomainError(f"mehler_heine_residual is validated for z in [0, 10], got {z!r}")
    n = _require_n(n)
    a = float(a)
    scaled = math.exp(-a * math.log(n + a)) * laguerre(n, a, z / (n + a))
    return abs(scaled - bessel_entire(a, z) + bessel_entire(a - 2.0, z) / (2.0 * n))


def make_grid(limit=8.0, count=9):
    """Evaluation grid for kernel_expansion_rate: all (x, y) pairs from a
    uniform mesh on [0, limit], diagonal included."""
    axis = np.linspace(0.0, float(limit), int(count))
    return [(float(x), float(y)) for x in axis for y in axis]


def kernel_expansion_rate(a, n_list, c, grid=None) -> ExpansionReport:
    """Worst-case pointwise kernel residual over a grid, per order, with the
    fitted decay slope (expected near -2)."""
    if grid is None:
        grid = make_grid()
    points = [(float(x), float(y)) for x, y in grid]
    if not points:
        raise DomainError("kernel_expansion_rate needs a non-empty grid")
    extent = max(max(x, y) for x, y in points)

    def worst(n: int) -> float:
        return max(abs(kernel_expansion_residual(a, n, c, x, y)) for x, y in points)

    return rate_report(a, extent, n_list, worst)
