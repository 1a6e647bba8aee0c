"""Convergence-rate measurements for the finite-order corrections.

Each residual below is an exactly computable quantity that some expansion
claims is O(n^-2); the reports measure the decay empirically by fitting the
log-log slope over a list of orders n.  The slope of an honest second-order
residual lands near -2, while dropping the first-order correction degrades
it to near -1 -- which is precisely the distinction these measurements are
built to exhibit.

A per-order residual takes one record of the finite law and one of the
limit law; it is the one-order case of a rate report, which shares one
limit record across all orders.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fredholm import _batch
from .kernels import _kernel_blocks, bessel_spec, finite_spec, kernel_matrix
from .specfun import MAX_ORDER, _require_integer, bessel_entire, laguerre, require_order

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

    Returns (slope, standard error); needs >= 4 pairs with finite, strictly
    positive orders and residuals.
    """
    pairs = [(float(n), float(r)) for n, r in pairs]
    if len(pairs) < 4:
        raise DomainError(f"slope fit needs at least 4 points, got {len(pairs)}")
    if not all(0.0 < n < math.inf and 0.0 < r < math.inf for n, r in pairs):
        raise DomainError("slope fit needs finite, strictly positive orders and residuals")
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
    # every order against the cap, before the first F_n
    orders = tuple(_require_integer(n, "order n", 1, MAX_ORDER) for n in n_list)
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
    rather than fitting noise; a negative or non-finite residual is refused.
    """
    orders = _check_orders(n_list)
    residuals = tuple(float(residual_fn(n)) for n in orders)
    if not all(0.0 <= r < math.inf for r in residuals):
        raise DomainError(f"residuals must be finite and >= 0, got {residuals!r}")
    degenerate = min(residuals) <= DEGENERATE_FLOOR
    slope, stderr = (math.nan, math.nan) if degenerate else fit_slope(zip(orders, residuals))
    return ExpansionReport(a=float(a), s=float(s), n_list=orders, residuals=residuals,
                           fitted_slope=slope, slope_stderr=stderr, degenerate=degenerate)


def _rate_values(a, s, orders, m, c=None, density=False):
    """{n: F_n(s)} at the scaling c over checked orders, and the limit record
    at s (with f if density), made right after the first F_n.  The one
    composition of every residual below: a per-order residual is the case
    orders = [n], so a report's values and refusals are its per-order
    residuals' by construction.  Keys are ints, the first one the validated
    order, since an order as given need not be hashable (a 0-d array)."""
    first, *rest = orders
    spec = finite_spec(a, first, c)
    values = {spec.n: _batch(spec, [s], m)[0].value}
    [limit] = _batch(bessel_spec(a), [s], m, resolvent=density)
    values.update((n, _batch(finite_spec(a, n, c), [s], m)[0].value) for n in rest)
    return values, limit


def _corrected(value_n, limit, a, n, s) -> float:
    """|value_n - F(s) - (a/2n) s f(s)|, with F and f from the limit record."""
    return abs(value_n - limit.value - (a / (2.0 * n)) * s * limit.density)


def conjecture_residual(a, n, s, m=STUDY_NODES) -> float:
    """|F_n(s) - F(s) - (a/2n) s f(s)| under the plain hard-edge scaling.

    The second-order remainder of the corrected expansion; without the
    (a/2n) s f(s) term the difference |F_n - F| only decays like 1/n.
    """
    values, limit = _rate_values(a, s, [n], m, density=True)
    return _corrected(values[int(n)], limit, a, n, s)


def uncorrected_difference(a, n, s, m=STUDY_NODES) -> float:
    """|F_n(s) - F(s)|, the first-order benchmark for conjecture_residual."""
    values, limit = _rate_values(a, s, [n], m)
    return abs(values[int(n)] - limit.value)


def optimal_scaling_residual(a, n, s, m=STUDY_NODES) -> float:
    """|F_n under the optimally tuned scaling - F(s)|; decays like n^-2."""
    values, limit = _rate_values(a, s, [n], m, c=0.0)
    return abs(values[int(n)] - limit.value)


def expansion_rate(a, s, n_list, m=STUDY_NODES) -> tuple[ExpansionReport, ExpansionReport]:
    """(corrected, uncorrected): rate_report over conjecture_residual and uncorrected_difference."""
    values, limit = _rate_values(a, s, _check_orders(n_list), m, density=True)
    return (rate_report(a, s, values, lambda n: _corrected(values[n], limit, a, n, s)),
            rate_report(a, s, values, lambda n: abs(values[n] - limit.value)))


def optimal_rate(a, s, n_list, m=STUDY_NODES) -> tuple[ExpansionReport, tuple[float, ...]]:
    """(rate_report over optimal_scaling_residual, uncorrected_difference at each order)."""
    values, limit = _rate_values(a, s, _check_orders(n_list), m, c=0.0)
    return (rate_report(a, s, values, lambda n: abs(values[n] - limit.value)),
            tuple(abs(_batch(finite_spec(a, n), [s], m)[0].value - limit.value) for n in values))


def mehler_heine_residual(a, n, z) -> float:
    """Second-order remainder of the scaled Laguerre polynomial expansion:

        |(n+a)^{-a} L_n^a(z/(n+a)) - j_a(z) + (1/2n) j_{a-2}(z)|,

    with the (n+a)^{-a} prefactor formed in the log domain.
    """
    z = float(z)
    if not 0.0 <= z <= 10.0:
        raise DomainError(f"mehler_heine_residual is validated for z in [0, 10], got {z!r}")
    n = _require_integer(n, "order n", 1, MAX_ORDER)
    a = require_order(a)
    scaled = math.exp(-a * math.log(n + a)) * laguerre(n, a, z / (n + a))
    return abs(scaled - bessel_entire(a, z) + bessel_entire(a - 2.0, z) / (2.0 * n))


def kernel_expansion_rate(a, n_list, c, axis) -> ExpansionReport:
    """Worst kernel_expansion_residual over all (x, y) pairs of a mesh axis
    (at most MAX_NODES points, as in kernel_matrix) per order, with the
    fitted decay slope (expected near -2): one kernel_matrix per order,
    against the limit kernel and hat_j_a assembled once on the axis."""
    c = float(c)
    axis = np.asarray(axis, dtype=float)
    spec, orders = bessel_spec(a), _check_orders(n_list)
    [(limit, hat_j)] = _kernel_blocks(spec, [axis[None]])
    limit, correction = limit[0], np.outer(hat_j[0], hat_j[0])

    def worst(n: int) -> float:
        residual = kernel_matrix(finite_spec(a, n, c), axis) - limit + (c / (8.0 * n)) * correction
        return float(np.max(np.abs(residual)))

    return rate_report(a, float(np.max(axis)), orders, worst)
