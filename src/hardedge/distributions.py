"""Distribution functions of the scaled smallest eigenvalue.

F(s) here always denotes the gap probability P(lambda_min >= endpoint), a
survival-type function decreasing from 1 to 0, and f = dF/ds its (therefore
nonpositive) derivative.  The probability density of the scaled smallest
eigenvalue is -f; the CLI exposes a --pdf switch that negates.

Scalings of the finite-order law, all reported on the common s axis:

    standard    endpoint s/(4n)                 (plain hard-edge variables; custom(-a))
    optimal     endpoint (1 - a/(2n)) s/(4n)    (second-order accurate; custom(0))
    custom(c)   endpoint (1 - (a+c)/(2n)) s/(4n)

limit_table and finite_table evaluate all their rows as one batch along
the s axis (see fredholm); every value equals its one-row value bit for
bit.
"""

from dataclasses import dataclass

from .errors import DomainError, NumericError
from .fredholm import DeterminantResult, _batch, _check_interval, _check_m, nystrom_det
from .kernels import bessel_spec, finite_spec
from .quadrature import DEFAULT_NODES

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


def limit_cdf(a, s, m=DEFAULT_NODES) -> DeterminantResult:
    """Gap probability F(s) of the hard-edge limit law."""
    return nystrom_det(bessel_spec(a), s, m)


def _finite_kernel_spec(a, n, scaling, c):
    if scaling not in SCALINGS:
        raise DomainError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
    if scaling == "custom" and c is None:
        raise DomainError("custom scaling requires the parameter c")
    if scaling != "custom" and c is not None:
        raise DomainError(f"parameter c is only meaningful with custom scaling, got c={c!r}")
    return finite_spec(a, n, c=0.0 if scaling == "optimal" else c)


def finite_cdf(a, n, s, scaling="standard", m=DEFAULT_NODES, c=None) -> DeterminantResult:
    """Gap probability of the order-n law at s, under the requested scaling."""
    return nystrom_det(_finite_kernel_spec(a, n, scaling, c), s, m)


def limit_density(a, s, m=DEFAULT_NODES) -> float:
    """Derivative f(s) = dF/ds of the limit law (nonpositive).

    f = F * d/ds log F, with F and the log-derivative (the resolvent
    quadratic form) from one factorization of I - A at m nodes.
    """
    return _batch(bessel_spec(a), [s], m, resolvent=True)[0].density


def _table(spec, scaling, s_values, m, density=False) -> DistributionTable:
    """One row per s value in input order: F with its m vs m+10 error
    estimate, as nystrom_det, and f = dF/ds if density (limit kernel); f
    shares the m-node system with F.  All rows come from one batched
    evaluation over both rules, equal to the one-row values bit for bit.
    Every s is checked before the first row is computed."""
    m = _check_m(m)
    s_values = [_check_interval(s) for s in s_values]
    rows = tuple(
        TableRow(s=record.s, F=record.value, f=record.density if density else None,
                 F_err=record.estimate.error_estimate)
        for record in _batch(spec, s_values, m, refine=True, resolvent=density)
    )
    table = DistributionTable(a=spec.a, n=spec.n, scaling=scaling, m=m, rows=rows)
    table.validate()
    return table


def limit_table(a, s_values, m=DEFAULT_NODES, density=False) -> DistributionTable:
    """Tabulate the limit law over a grid, one row per s value in input order.

    Each row takes F and its error estimate from one kernel evaluation over
    the m and m+10 rules; with density, f = dF/ds (as limit_density) comes
    from the m-node system too.
    """
    return _table(bessel_spec(a), "limit", s_values, m, density)


def finite_table(a, n, s_values, scaling="standard", m=DEFAULT_NODES, c=None) -> DistributionTable:
    """Tabulate the order-n law over a grid under the requested scaling."""
    return _table(_finite_kernel_spec(a, n, scaling, c), scaling, s_values, m)
