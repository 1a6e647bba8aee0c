"""Distribution functions of the scaled smallest eigenvalue.

F(s) here always denotes the gap probability P(lambda_min >= endpoint), a
survival-type function decreasing from 1 to 0, and f = dF/ds its (therefore
nonpositive) derivative.  The probability density of the scaled smallest
eigenvalue is -f; the CLI exposes a --pdf switch that negates.

Scalings of the finite-order law, all reported on the common s axis:

    standard    endpoint s/(4n)                 (plain hard-edge variables)
    optimal     endpoint (1 - a/(2n)) s/(4n)    (second-order accurate)
    custom(c)   endpoint (1 - (a+c)/(2n)) s/(4n)
"""

import math
from dataclasses import dataclass

from ._parallel import ordered_map
from .errors import DomainError, NumericError
from .fredholm import (
    DeterminantResult,
    _check_m,
    _det_and_log_derivative,
    _det_result,
    _det_value,
    nystrom_det,
)
from .kernels import bessel_spec, finite_spec
from .quadrature import DEFAULT_NODES
from .specfun import Z_MAX, _require_integer, require_order

SCALINGS = ("standard", "optimal", "custom")


@dataclass(frozen=True)
class TableRow:
    s: float
    F: float
    f: float | None
    F_err: float


@dataclass(frozen=True)
class DistributionTable:
    """(s, F, f) triples over a grid with evaluation metadata."""

    a: float
    n: int | None  # None for the limit law
    scaling: str
    m: int
    rows: tuple[TableRow, ...]

    def validate(self) -> None:
        """Check the range and monotonicity invariants; raise NumericError."""
        for row in self.rows:
            if not 0.0 < row.F <= 1.0 + 1e-8:
                raise NumericError(f"table value F={row.F!r} at s={row.s!r} escaped (0, 1]")
            if row.f is not None and row.f > 1e-12:
                raise NumericError(f"table derivative f={row.f!r} at s={row.s!r} is positive")
        for prev, curr in zip(self.rows, self.rows[1:]):
            if curr.s > prev.s and curr.F > prev.F + 1e-12:
                raise NumericError(
                    f"table is not non-increasing: F({prev.s!r})={prev.F!r} "
                    f"< F({curr.s!r})={curr.F!r}"
                )


def _check_s(s) -> float:
    s = float(s)
    if not math.isfinite(s) or s <= 0.0 or s > 4.0 * Z_MAX:
        raise DomainError(f"s must lie in (0, {4.0 * Z_MAX:g}], got {s!r}")
    return s


def limit_cdf(a, s, m=DEFAULT_NODES) -> DeterminantResult:
    """Gap probability F(s) of the hard-edge limit law."""
    return nystrom_det(*_limit_point(a, s, m))


def _finite_kernel_spec(a, n, scaling, c):
    if scaling not in SCALINGS:
        raise DomainError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
    if scaling == "custom":
        if c is None:
            raise DomainError("custom scaling requires the parameter c")
        return finite_spec(a, n, c=float(c))
    if c is not None:
        raise DomainError(f"parameter c is only meaningful with custom scaling, got c={c!r}")
    if scaling == "optimal":
        return finite_spec(a, n, c=0.0)
    return finite_spec(a, n, c=None)


def finite_cdf(a, n, s, scaling="standard", m=DEFAULT_NODES, c=None) -> DeterminantResult:
    """Gap probability of the order-n law at s, under the requested scaling."""
    a = require_order(a)
    s = _check_s(s)
    return nystrom_det(_finite_kernel_spec(a, n, scaling, c), s, m)


def _limit_point(a, s, m):
    """(kernel spec, s, m) of the limit law, after the public argument checks."""
    return bessel_spec(require_order(a)), _check_s(s), _check_m(m)


def _finite_value(a, n, s, scaling, m) -> float:
    """finite_cdf(a, n, s, scaling, m).value from the one assembly at m nodes,
    without the m+10 error estimate."""
    a = require_order(a)
    s = _check_s(s)
    return _det_value(_finite_kernel_spec(a, n, scaling, None), s, _check_m(m))


def limit_density(a, s, m=DEFAULT_NODES) -> float:
    """Derivative f(s) = dF/ds of the limit law (nonpositive).

    f = F * d/ds log F, with F and the log-derivative (the resolvent
    quadratic form) from one assembly of I - A at m nodes.
    """
    value, log_slope = _det_and_log_derivative(*_limit_point(a, s, m))
    return value * log_slope


def _limit_row(a, s, m, density) -> TableRow:
    """F with its m vs m+10 error estimate, and f = dF/ds if density, from
    the m and m+10 assemblies only: f shares the one at m with F."""
    spec, s, m = _limit_point(a, s, m)
    if density:
        value, log_slope = _det_and_log_derivative(spec, s, m)
        f = value * log_slope
    else:
        value, f = _det_value(spec, s, m), None
    det = _det_result(spec, s, m, value)
    return TableRow(s=s, F=det.value, f=f, F_err=det.error_estimate)


def limit_table(a, s_values, m=DEFAULT_NODES, density=False) -> DistributionTable:
    """Tabulate the limit law over a grid, one row per s value in input order.

    Each row takes F and its error estimate from the m and m+10 assemblies;
    with density, f = dF/ds (as limit_density) comes from the one at m too.
    """
    a, m = require_order(a), _check_m(m)
    rows = ordered_map(lambda s: _limit_row(a, s, m, density), s_values)
    table = DistributionTable(a=a, n=None, scaling="limit", m=m, rows=tuple(rows))
    table.validate()
    return table


def finite_table(a, n, s_values, scaling="standard", m=DEFAULT_NODES, c=None) -> DistributionTable:
    """Tabulate the order-n law over a grid under the requested scaling."""
    a, n, m = require_order(a), _require_integer(n, "order n", 1), _check_m(m)

    def one(s) -> TableRow:
        det = finite_cdf(a, n, s, scaling=scaling, m=m, c=c)
        return TableRow(s=float(s), F=det.value, f=None, F_err=det.error_estimate)

    rows = ordered_map(one, s_values)
    table = DistributionTable(a=a, n=n, scaling=scaling, m=m, rows=tuple(rows))
    table.validate()
    return table
