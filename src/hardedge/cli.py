"""Command-line front end: CSV tables and machine-readable check reports.

Every subcommand writes one metadata comment line (prefixed '#'), a CSV
header row, and data rows with full-precision (17 significant digit)
numeric cells.  The front end parses and prints; the library checks every
value.  Exit codes:

    0  success
    1  usage error (unknown flags, missing arguments, --a abc, an --output
       that cannot be written, checked before any computation)
    2  domain error: every refused value, including a number in --s,
       --s-grid or --n-list that does not parse
    3  numeric error (a computation failed internally)
    4  a *-check subcommand ran fine but the claim failed its tolerance
"""

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .distributions import SCALINGS, finite_table, limit_table
from .errors import DomainError, HardEdgeError, NumericError
from .expansion import (
    DEFAULT_ORDERS,
    STUDY_NODES,
    expansion_rate,
    kernel_expansion_rate,
    mehler_heine_residual,
    optimal_rate,
    rate_report,
)
from .fredholm import log_derivative, resolvent_quadratic_form
from .kernels import bessel_spec
from .montecarlo import KS_COEFF_1PCT, ks_validate
from .quadrature import DEFAULT_NODES, MAX_NODES

# Pass/fail tolerances for the *-check subcommands.
SECOND_ORDER_WINDOW = (-2.3, -1.7)
FIRST_ORDER_WINDOW = (-1.3, -0.7)
OPTIMAL_RATIO_MAX = 0.1
IDENTITY_TOL_RESOLVENT = 1e-8
IDENTITY_TOL_FD = 1e-5

# Largest --s-grid accepted; the grid is built only below it.
MAX_GRID_POINTS = 10 ** 5


class _Parser(argparse.ArgumentParser):
    # usage problems exit with 1, not argparse's default 2 (2 means domain error here)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _emit(args, meta: dict, header: list, rows: list) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in meta.items())
    lines = [f"# hardedge {__version__} {pairs}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as exc:  # a write can still fail after main's open (/dev/full)
            _cannot_write(args.output, exc)
    else:
        sys.stdout.write(text)


def _cannot_write(path, exc: OSError):
    print(f"hardedge: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    raise SystemExit(1) from None


def _claim_output(path) -> bool:
    """Open path for append and close it, so that an --output that cannot be
    written is refused (exit 1) before any computation; True if this made
    the file."""
    made = not os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        _cannot_write(path, exc)
    return made


def _meta(command, a="-", n="-", m="-", scaling="-", seed="-") -> dict:
    return {"command": command, "a": a, "n": n, "m": m, "scaling": scaling, "seed": seed}


def _number(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"{flag} expects numbers, got {text!r}") from None


def _parse_s_values(args) -> list:
    """The s values of --s or --s-grid; the tables check each s."""
    if args.s_grid is None:
        values = [_number(tok, "--s") for tok in args.s.split(",") if tok]
        if not values:
            raise DomainError("--s needs at least one value")
        return values
    parts = args.s_grid.split(":")
    if len(parts) != 3:
        raise DomainError(f"--s-grid expects start:stop:step, got {args.s_grid!r}")
    start, stop, step = (_number(p, "--s-grid") for p in parts)
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
        raise DomainError(f"--s-grid needs finite start <= stop and step > 0, got {args.s_grid!r}")
    steps = (stop - start) / step + 1e-9  # inf when step is tiny
    if not steps < MAX_GRID_POINTS:
        raise DomainError(f"--s-grid {args.s_grid!r} has more than {MAX_GRID_POINTS} points")
    return [start + k * step for k in range(int(steps) + 1)]


def _parse_orders(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise DomainError(f"--n-list expects comma-separated integers, got {text!r}") from None


def _slope_failures(what: str, report, window) -> list:
    """The failure line for a report whose fitted slope leaves the window;
    none for a degenerate report (residuals at solver precision)."""
    if report.degenerate or window[0] <= report.fitted_slope <= window[1]:
        return []
    return [f"{what} slope {report.fitted_slope:.3f} outside {window}"]


def _emit_cdf(args, table, command: str, **meta) -> list:
    _emit(args, _meta(command, a=_fmt(args.a), m=args.m, **meta), ["s", "F", "F_err"],
          [[row.s, row.F, row.F_err] for row in table.rows])
    return []


def _emit_rate(args, report, meta: dict, residual: str, what: str) -> list:
    rows = [[n, r, report.fitted_slope, report.slope_stderr]
            for n, r in zip(report.n_list, report.residuals)]
    _emit(args, meta, ["n", residual, "slope", "slope_stderr"], rows)
    return _slope_failures(what, report, SECOND_ORDER_WINDOW)


def _cmd_limit_cdf(args):
    table = limit_table(args.a, _parse_s_values(args), m=args.m)
    return _emit_cdf(args, table, "limit-cdf", scaling="limit")


def _cmd_finite_cdf(args):
    table = finite_table(args.a, args.n, _parse_s_values(args),
                         scaling=args.scaling, m=args.m, c=args.c)
    scaling = args.scaling if args.scaling != "custom" else f"custom({_fmt(args.c)})"
    return _emit_cdf(args, table, "finite-cdf", n=args.n, scaling=scaling)


def _cmd_density(args):
    table = limit_table(args.a, _parse_s_values(args), m=args.m, density=True)
    label = "pdf" if args.pdf else "f"
    rows = [[row.s, row.F, -row.f if args.pdf else row.f] for row in table.rows]
    _emit(args, _meta("density", a=_fmt(args.a), m=args.m, scaling="limit"),
          ["s", "F", label], rows)
    return []


def _cmd_expansion_check(args):
    a, m = args.a, args.m
    corrected, plain = expansion_rate(a, args.s, _parse_orders(args.n_list), m)
    rows = [[n, r, p, corrected.fitted_slope, corrected.slope_stderr, plain.fitted_slope]
            for n, r, p in zip(corrected.n_list, corrected.residuals, plain.residuals)]
    _emit(args, _meta("expansion-check", a=_fmt(a), n=args.n_list, m=m, scaling="standard"),
          ["n", "residual", "residual_uncorrected",
           "slope", "slope_stderr", "slope_uncorrected"], rows)
    if corrected.degenerate:
        return []  # expansion exact to solver precision (e.g. a = 0)
    return (_slope_failures("corrected-residual", corrected, SECOND_ORDER_WINDOW)
            + _slope_failures("uncorrected-difference", plain, FIRST_ORDER_WINDOW))


def _cmd_optimal_check(args):
    a, m = args.a, args.m
    tuned, plain = optimal_rate(a, args.s, _parse_orders(args.n_list), m)
    orders = tuned.n_list
    ratios = [t / p if p > 0.0 else math.nan for t, p in zip(tuned.residuals, plain)]
    rows = [[n, t, p, r, tuned.fitted_slope, tuned.slope_stderr]
            for n, t, p, r in zip(orders, tuned.residuals, plain, ratios)]
    _emit(args, _meta("optimal-check", a=_fmt(a), n=args.n_list, m=m, scaling="optimal"),
          ["n", "residual_optimal", "residual_standard", "ratio", "slope", "slope_stderr"], rows)
    if tuned.degenerate:
        return []
    failures = _slope_failures("optimal-scaling", tuned, SECOND_ORDER_WINDOW)
    pivot = orders.index(100) if 100 in orders else len(orders) - 1
    if not ratios[pivot] < OPTIMAL_RATIO_MAX:
        failures.append(
            f"optimal/standard residual ratio {ratios[pivot]:.4f} at n={orders[pivot]} "
            f"not below {OPTIMAL_RATIO_MAX}"
        )
    return failures


def _cmd_mehler_heine(args):
    a, z = args.a, args.z
    report = rate_report(a, z, _parse_orders(args.n_list), lambda n: mehler_heine_residual(a, n, z))
    return _emit_rate(args, report, _meta("mehler-heine", a=_fmt(a), n=args.n_list),
                      "residual", "scaled-Laguerre")


def _cmd_kernel_check(args):
    orders = _parse_orders(args.n_list)
    if args.grid_points < 1:
        raise DomainError(f"--grid-points must be >= 1, got {args.grid_points}")
    if args.grid_points > MAX_NODES:
        raise DomainError(f"--grid-points must be <= {MAX_NODES}, got {args.grid_points}")
    if not math.isfinite(args.grid_max):
        raise DomainError(f"--grid-max must be finite, got {args.grid_max}")
    axis = np.linspace(0.0, args.grid_max, args.grid_points)
    report = kernel_expansion_rate(args.a, orders, args.c, axis)
    meta = _meta("kernel-check", a=_fmt(args.a), n=args.n_list, scaling=f"c={_fmt(args.c)}")
    return _emit_rate(args, report, meta, "max_residual", "kernel-residual")


def _cmd_identity_check(args):
    s, m = args.s, args.m
    spec = bessel_spec(args.a)
    quad_form = resolvent_quadratic_form(spec, s, m)
    lhs = -0.25 * quad_form
    rhs_resolvent = s * log_derivative(spec, s, m, method="resolvent")
    rhs_fd = s * log_derivative(spec, s, m, method="finite_difference")
    residual_resolvent = abs(lhs - rhs_resolvent)
    residual_fd = abs(lhs - rhs_fd)
    _emit(args, _meta("identity-check", a=_fmt(args.a), m=m),
          ["s", "quadratic_form", "lhs", "rhs_resolvent", "rhs_fd",
           "residual_resolvent", "residual_fd"],
          [[s, quad_form, lhs, rhs_resolvent, rhs_fd, residual_resolvent, residual_fd]])
    failures = []
    if not residual_resolvent <= IDENTITY_TOL_RESOLVENT:
        failures.append(
            f"resolvent-path residual {residual_resolvent:.3e} above {IDENTITY_TOL_RESOLVENT}"
        )
    if not residual_fd <= IDENTITY_TOL_FD:
        failures.append(f"finite-difference residual {residual_fd:.3e} above {IDENTITY_TOL_FD}")
    return failures


def _cmd_mc_validate(args):
    statistic, passed = ks_validate(args.a, args.n, args.count, args.seed, m=args.m)
    threshold = KS_COEFF_1PCT / math.sqrt(args.count)
    _emit(args, _meta("mc-validate", a=args.a, n=args.n, m=args.m, seed=args.seed),
          ["count", "ks_statistic", "threshold", "passed"],
          [[args.count, statistic, threshold, passed]])
    if not passed:
        return [f"KS statistic {statistic:.5f} at or above the 1% threshold {threshold:.5f}"]
    return []


def _add_s_flags(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", help="endpoint value or comma-separated list")
    group.add_argument("--s-grid", help="endpoint grid start:stop:step (inclusive)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hardedge",
                     description="Hard-edge smallest-eigenvalue laws via Fredholm determinants")
    parser.add_argument("--version", action="version", version=f"hardedge {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    orders = ",".join(map(str, DEFAULT_ORDERS))

    def command(name, handler, help, a_help=None, a_type=float):
        sub = commands.add_parser(name, help=help)
        sub.add_argument("--a", type=a_type, required=True, help=a_help)
        sub.set_defaults(handler=handler)
        return sub

    sub = command("limit-cdf", _cmd_limit_cdf, "gap probability of the limit law",
                  a_help="weight exponent a > -1")
    _add_s_flags(sub)
    sub.add_argument("--m", type=int, default=DEFAULT_NODES, help="quadrature nodes")

    sub = command("finite-cdf", _cmd_finite_cdf, "gap probability of the order-n law")
    sub.add_argument("--n", type=int, required=True, help="matrix order n >= 1")
    _add_s_flags(sub)
    sub.add_argument("--scaling", choices=SCALINGS, default="standard")
    sub.add_argument("--c", type=float, default=None, help="parameter of the custom scaling")
    sub.add_argument("--m", type=int, default=DEFAULT_NODES)

    sub = command("density", _cmd_density, "limit law with its derivative f = dF/ds")
    _add_s_flags(sub)
    sub.add_argument("--m", type=int, default=DEFAULT_NODES)
    sub.add_argument("--pdf", action="store_true",
                     help="emit -f, the probability density, instead of f")

    for name, handler, help in (
        ("expansion-check", _cmd_expansion_check,
         "second-order decay of the corrected finite-order expansion"),
        ("optimal-check", _cmd_optimal_check,
         "second-order decay under the optimally tuned scaling"),
    ):
        sub = command(name, handler, help)
        sub.add_argument("--s", type=float, required=True)
        sub.add_argument("--n-list", default=orders)
        sub.add_argument("--m", type=int, default=STUDY_NODES)

    sub = command("mehler-heine", _cmd_mehler_heine,
                  "second-order decay of the scaled Laguerre expansion")
    sub.add_argument("--z", type=float, required=True, help="argument z in [0, 10]")
    sub.add_argument("--n-list", default=orders)

    sub = command("kernel-check", _cmd_kernel_check,
                  "second-order decay of the pointwise kernel expansion")
    sub.add_argument("--c", type=float, required=True, help="scaling-family parameter")
    sub.add_argument("--n-list", default=orders)
    sub.add_argument("--grid-max", type=float, default=8.0)
    sub.add_argument("--grid-points", type=int, default=9)

    sub = command("identity-check", _cmd_identity_check,
                  "resolvent quadratic form against the log-derivative: residual_fd, "
                  "against a finite difference of log det, tests the identity; "
                  "residual_resolvent compares -Q/4 with s (-Q/(4s)) from the same "
                  "factorization, so it measures rounding alone and cannot fail")
    sub.add_argument("--s", type=float, required=True)
    sub.add_argument("--m", type=int, default=DEFAULT_NODES)

    sub = command("mc-validate", _cmd_mc_validate,
                  "Kolmogorov-Smirnov test of sampled eigenvalues vs the law",
                  a_help="integer a >= 0", a_type=int)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--count", type=int, default=20000)
    sub.add_argument("--seed", type=int, default=12345)
    sub.add_argument("--m", type=int, default=DEFAULT_NODES)

    for sub in commands.choices.values():
        sub.add_argument("--output", "-o", default=None, help="write CSV here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    made = bool(args.output) and _claim_output(args.output)
    code = _run(args)
    if made and code in (2, 3):  # a refused run leaves no file behind
        os.remove(args.output)
    return code


def _run(args) -> int:
    try:
        failures = args.handler(args)
    except NumericError as exc:
        print(f"hardedge: numeric error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"hardedge: domain error: {exc}", file=sys.stderr)
        return 2
    except HardEdgeError as exc:  # AccuracyError and anything else package-level
        print(f"hardedge: {exc}", file=sys.stderr)
        return 2
    if failures:
        for failure in failures:
            print(f"hardedge: check failed: {failure}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
