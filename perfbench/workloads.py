"""The four benchmark workloads: seeded inputs, timed units, oracle checks.

A workload hands the runner one *pass* of inputs at a time.  Passes have a
fixed composition, so pass rates compare across passes, runs and commits.
Pass k draws its s values afresh from (seed, k), so no two passes repeat an
input and result caching cannot pass for speed.  Every input stays inside
the README's validated envelope: s <= 40, n <= 1000, integer a with n <= 200
for the sampler, and the optimal scaling only where 1 - a/(2n) > 0.

Oracle checks (``failures``) run after the timed region and use the closed
forms in ``oracles`` wherever one exists.
"""

import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import hardedge as he
from hardedge import expansion

import oracles

S_MAX = 40.0
F_TOL = 1e-10          # determinant values: the README's cross-oracle tolerance
DENSITY_TOL = 1e-8     # f = dF/ds against a difference quotient
ORACLE_NODES = 70      # "larger m" for the families without a closed form
SECOND_ORDER = (-2.3, -1.7)
FIRST_ORDER = (-1.3, -0.7)


@dataclass
class Outcome:
    """One unit of work: its input key, its result (None if it raised), when
    it started and how long it took."""

    key: tuple
    value: object
    start: float
    latency_s: float
    error: str | None = None


def timed_units(compute, keys, pause) -> list:
    """Run compute(key) for each key, timing each call on its own; pause()
    runs between calls, outside the timed intervals."""
    outcomes = []
    for key in keys:
        pause()
        start = time.perf_counter()
        try:
            value, error = compute(key), None
        except Exception as exc:  # a unit that raises counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(key, value, start, time.perf_counter() - start, error))
    return outcomes


def stratified_s(rng, count: int) -> list:
    """count values in (0, S_MAX], one uniform draw in each equal-width bin."""
    return [float(v) for v in S_MAX * (np.arange(count) + 1.0 - rng.random(count)) / count]


def nystrom_reference(spec, s: float) -> float:
    """det(I - A) of the Nystrom matrix at ORACLE_NODES, more than the default."""
    rule = he.scale_rule(he.gauss_jacobi(ORACLE_NODES, spec.a), s)
    sqrt_w = np.sqrt(rule.weights)
    a_mat = sqrt_w[:, None] * he.kernel_matrix(spec, rule.nodes) * sqrt_w[None, :]
    return float(np.linalg.det(np.eye(ORACLE_NODES) - a_mat))


def limit_reference(a: float, s: float) -> tuple:
    """(F, f) of the limit law: closed form for integer a, larger m otherwise."""
    if a == int(a):
        return oracles.limit_gap(int(a), s), oracles.limit_gap_density(int(a), s)
    spec = he.bessel_spec(a)
    value = nystrom_reference(spec, s)
    return value, -value * he.resolvent_quadratic_form(spec, s, ORACLE_NODES) / (4.0 * s)


def finite_reference(a: float, n: int, scaling: str, s: float) -> float:
    """F_n(s): incomplete gamma at n = 1, the rank-n Gram route while it fits
    in 500 nodes, the a x a Laguerre determinant for integer a, else larger m."""
    t = s / (4.0 * n)
    if scaling == "optimal":
        t *= 1.0 - a / (2.0 * n)
    if n == 1:
        return oracles.order_one_gap(a, t)
    if n + 20 <= 500:
        return he.gram_det(a, n, t, min(n + 40, 500))
    if a == int(a):
        return oracles.finite_gap(int(a), n, t)
    return nystrom_reference(he.finite_spec(a, n, c=0.0 if scaling == "optimal" else None), s)


def parse_csv(text: str) -> list:
    """Data rows of a hardedge CLI table as dicts of floats (true/false as 1/0)."""
    lines = text.strip().splitlines()
    if len(lines) < 3 or not lines[0].startswith("# hardedge "):
        raise ValueError("output is not a hardedge table")
    header = lines[1].split(",")
    return [
        {key: float(cell == "true") if cell in ("true", "false") else float(cell)
         for key, cell in zip(header, line.split(","))}
        for line in lines[2:]
    ]


def _within(value, reference, tol) -> bool:
    return value is not None and math.isfinite(value) and abs(value - reference) <= tol


def _in_window(slope, window) -> bool:
    return window[0] <= slope <= window[1]


class Workload:
    """Base class: per-unit timing and per-unit oracle checks."""

    name = ""
    cli = ()  # README commands as (argv, check(rows) -> bool)
    cli_repeats = 3  # fresh-process runs of each command; cli_s takes medians

    def pass_keys(self, seed: int, k: int) -> list:
        raise NotImplementedError

    def warmup_keys(self, seed: int) -> list:
        """One input per configuration, so every rule and lazy path gets built."""
        raise NotImplementedError

    def compute(self, key):
        raise NotImplementedError

    def verify(self, key, value) -> bool:
        raise NotImplementedError

    def run_pass(self, keys, pause) -> list:
        """Outcomes of one pass; pause() may run between units, untimed."""
        return timed_units(self.compute, keys, pause)

    def warm_up(self, seed: int) -> None:
        for key in self.warmup_keys(seed):
            self.compute(key)

    def failures(self, outcomes) -> list:
        """Per-outcome flags: True where the unit raised or missed its oracle."""
        return [o.error is not None or not self.verify(o.key, o.value) for o in outcomes]


# ----------------------------------------------------------------- limit-grid

def _check_exponential_table(rows) -> bool:
    return [r["s"] for r in rows] == [float(s) for s in range(1, 11)] and all(
        _within(r["F"], math.exp(-0.25 * r["s"]), F_TOL) for r in rows)


def _check_density_table(rows) -> bool:
    if [r["s"] for r in rows] != [0.5 * k for k in range(1, 21)]:
        return False
    refs = [limit_reference(0.5, r["s"]) for r in rows]
    return all(_within(r["F"], F, F_TOL) and _within(r["pdf"], -f, DENSITY_TOL)
               for r, (F, f) in zip(rows, refs))


class LimitGrid(Workload):
    name = "limit-grid"
    A_VALUES = (0.0, 1.0, 3.0, 0.5)
    S_PER_A = 4
    cli = (
        (["limit-cdf", "--a", "0", "--s-grid", "1:10:1", "--m", "50"], _check_exponential_table),
        (["density", "--a", "0.5", "--s-grid", "0.5:10:0.5", "--pdf"], _check_density_table),
    )

    def pass_keys(self, seed, k):
        rng = np.random.default_rng([seed, k])
        grids = [stratified_s(rng, self.S_PER_A) for _ in self.A_VALUES]
        return [(a, grid[i]) for i in range(self.S_PER_A) for a, grid in zip(self.A_VALUES, grids)]

    def warmup_keys(self, seed):
        return [(a, 0.5 * S_MAX) for a in self.A_VALUES]

    def compute(self, key):
        a, s = key
        return he.limit_cdf(a, s).value, he.limit_density(a, s)

    def verify(self, key, value):
        value_ref, density_ref = limit_reference(*key)
        return _within(value[0], value_ref, F_TOL) and _within(value[1], density_ref, DENSITY_TOL)


# ---------------------------------------------------------------- finite-grid

def _finite_table_check(a, n, scaling, s_values):
    def check(rows) -> bool:
        return [r["s"] for r in rows] == s_values and all(
            _within(r["F"], finite_reference(a, n, scaling, r["s"]), F_TOL) for r in rows)
    return check


class FiniteGrid(Workload):
    name = "finite-grid"
    COMBOS = tuple(
        (a, n, scaling)
        for a in (0.5, 2.0)
        for n in (1, 20, 100, 1000)
        for scaling in ("standard", "optimal")
        if scaling == "standard" or 1.0 - a / (2.0 * n) > 0.0
    )
    # s values per combination and pass.  The extra n = 1000 value keeps p50
    # inside the n = 100 band and p90 inside the n = 1000 band; with equal
    # counts p50 sat at the band's lower edge and spread 0.2 across runs.
    S_PER_N = {1: 2, 20: 2, 100: 2, 1000: 3}
    cli = (
        (["finite-cdf", "--a", "2", "--n", "1", "--s", "4"],
         _finite_table_check(2.0, 1, "standard", [4.0])),
        (["finite-cdf", "--a", "1", "--n", "100", "--s-grid", "1:8:0.5", "--scaling", "optimal"],
         _finite_table_check(1.0, 100, "optimal", [1.0 + 0.5 * k for k in range(15)])),
    )

    def pass_keys(self, seed, k):
        rng = np.random.default_rng([seed, k])
        return [combo + (s,) for combo in self.COMBOS
                for s in stratified_s(rng, self.S_PER_N[combo[1]])]

    def warmup_keys(self, seed):
        return [combo + (0.5 * S_MAX,) for combo in self.COMBOS]

    def compute(self, key):
        a, n, scaling, s = key
        return he.finite_cdf(a, n, s, scaling).value

    def verify(self, key, value):
        return _within(value, finite_reference(*key), F_TOL)


# ----------------------------------------------------------------- rate-study

RATE_S = 4.0
RATE_Z = 3.0
RATE_C = 0.0
RATE_NODES = 60
ORDERS = (50, 100, 200, 400)
KERNEL_AXIS = np.linspace(0.0, 8.0, 9)
KERNEL_GRID = [(float(x), float(y)) for x in KERNEL_AXIS for y in KERNEL_AXIS]
IDENTITY_TOL = {"identity-resolvent": 1e-8, "identity-fd": 1e-5}
# One residual series per computation the *-check commands make; like
# expansion-check and optimal-check, the series compute |F_n - F| twice.
SLOPE_WINDOWS = {
    "corrected": SECOND_ORDER,
    "uncorrected": FIRST_ORDER,
    "optimal": SECOND_ORDER,
    "optimal-plain": FIRST_ORDER,
    "mehler-heine": SECOND_ORDER,
    "kernel": SECOND_ORDER,
}


def _identity_residual(a, method):
    spec = he.bessel_spec(a)
    lhs = -0.25 * he.resolvent_quadratic_form(spec, RATE_S, RATE_NODES)
    return abs(lhs - RATE_S * he.log_derivative(spec, RATE_S, RATE_NODES, method=method))


RESIDUALS = {
    "corrected": lambda a, n: expansion.conjecture_residual(a, n, RATE_S, RATE_NODES),
    "uncorrected": lambda a, n: expansion.uncorrected_difference(a, n, RATE_S, RATE_NODES),
    "optimal": lambda a, n: expansion.optimal_scaling_residual(a, n, RATE_S, RATE_NODES),
    "optimal-plain": lambda a, n: expansion.uncorrected_difference(a, n, RATE_S, RATE_NODES),
    "mehler-heine": lambda a, n: expansion.mehler_heine_residual(a, n, RATE_Z),
    "kernel": lambda a, n: max(abs(he.kernel_expansion_residual(a, n, RATE_C, x, y))
                               for x, y in KERNEL_GRID),
    "identity-resolvent": lambda a, n: _identity_residual(a, "resolvent"),
    "identity-fd": lambda a, n: _identity_residual(a, "finite_difference"),
}


def _slope_check(column, window):
    def check(rows) -> bool:
        return _in_window(oracles.log_log_slope([r["n"] for r in rows], [r[column] for r in rows]),
                          window)
    return check


def _check_optimal_table(rows) -> bool:
    at_100 = [r for r in rows if r["n"] == 100.0]
    return (_slope_check("residual_optimal", SECOND_ORDER)(rows) and len(at_100) == 1
            and at_100[0]["residual_optimal"] < 0.1 * at_100[0]["residual_standard"])


def _check_identity_table(rows) -> bool:
    return (len(rows) == 1 and rows[0]["residual_resolvent"] <= IDENTITY_TOL["identity-resolvent"]
            and rows[0]["residual_fd"] <= IDENTITY_TOL["identity-fd"])


class RateStudy(Workload):
    name = "rate-study"
    A_VALUES = (0.5, 1.0, 2.0)
    cli = (
        (["expansion-check", "--a", "1", "--s", "4"],
         lambda rows: _slope_check("residual", SECOND_ORDER)(rows)
         and _slope_check("residual_uncorrected", FIRST_ORDER)(rows)),
        (["optimal-check", "--a", "2", "--s", "4"], _check_optimal_table),
        (["mehler-heine", "--a", "1.5", "--z", "3"], _slope_check("residual", SECOND_ORDER)),
        (["kernel-check", "--a", "1", "--c", "0"], _slope_check("max_residual", SECOND_ORDER)),
        (["identity-check", "--a", "0.5", "--s", "4"], _check_identity_table),
    )

    def pass_keys(self, seed, k):
        # The inputs are the README arguments; the seed does not enter.
        keys = [(k, kind, a, n) for a in self.A_VALUES for kind in SLOPE_WINDOWS for n in ORDERS]
        return keys + [(k, kind, a, None) for a in self.A_VALUES for kind in IDENTITY_TOL]

    def warmup_keys(self, seed):
        return [(0, kind, a, ORDERS[0]) for a in self.A_VALUES for kind in RESIDUALS]

    def compute(self, key):
        _, kind, a, n = key
        return RESIDUALS[kind](a, n)

    def failures(self, outcomes):
        """A slope series fails as a whole when any member raised, or when its
        fitted slope (or the optimal/standard ratio at n = 100) misses."""
        groups = defaultdict(list)
        for index, outcome in enumerate(outcomes):
            k, kind, a, _ = outcome.key
            groups[(k, kind, a)].append(index)
        failed = [o.error is not None for o in outcomes]
        for (k, kind, a), members in groups.items():
            if any(failed[i] for i in members):
                for i in members:
                    failed[i] = True
                continue
            if kind in IDENTITY_TOL:
                for i in members:
                    failed[i] = not outcomes[i].value <= IDENTITY_TOL[kind]
                continue
            orders = [outcomes[i].key[3] for i in members]
            residuals = [outcomes[i].value for i in members]
            ok = min(residuals) > 0.0 and _in_window(
                oracles.log_log_slope(orders, residuals), SLOPE_WINDOWS[kind])
            if ok and kind == "optimal":
                plain = [outcomes[i].value for i in groups.get((k, "optimal-plain", a), [])
                         if outcomes[i].key[3] == 100 and outcomes[i].error is None]
                ok = len(plain) == 1 and residuals[orders.index(100)] < 0.1 * plain[0]
            for i in members:
                failed[i] = not ok
        return failed


# --------------------------------------------------------------------- mc-ks

MC_A = 1
MC_N = 20
MC_BATCH = 1000
CDF_TOL = 1e-10
KS_STAT_TOL = 1e-9


def _check_mc_table(rows) -> bool:
    if len(rows) != 1 or rows[0]["count"] != 1000.0:
        return False
    row = rows[0]
    return (row["ks_statistic"] < oracles.KS_COEFF_STRICT / math.sqrt(1000.0)
            and bool(row["passed"]) == (row["ks_statistic"] < 1.63 / math.sqrt(1000.0)))


class MonteCarloKS(Workload):
    name = "mc-ks"
    # The README runs 20000 samples; 1000, the KS floor, fits a run's budget.
    # A single command gets more repeats: its median spread 0.24 over 3.
    cli_repeats = 5
    cli = (
        (["mc-validate", "--a", "1", "--n", "20", "--count", "1000", "--seed", "12345"],
         _check_mc_table),
    )

    def pass_keys(self, seed, k):
        # One batch per pass; batch k samples with sampler seed 1000 * seed + k.
        return [(k, 1000 * seed + k)]

    def warm_up(self, seed):
        batch = he.sample_smallest(MC_A, MC_N, 1, 1000 * seed)
        he.analytic_smallest_cdf(MC_A, MC_N)(batch.values[0])

    def run_pass(self, keys, pause):
        """Units are judged samples.  A sample's latency is its share of the
        sampling time plus the time ks_compare spent on its CDF value."""
        outcomes = []
        for k, sampler_seed in keys:
            records = []
            cdf = he.analytic_smallest_cdf(MC_A, MC_N)

            def recorded_cdf(t, cdf=cdf, records=records):
                start = time.perf_counter()
                p = cdf(t)
                records.append((float(t), p, start, time.perf_counter() - start))
                pause()
                return p

            start = time.perf_counter()
            try:
                batch = he.sample_smallest(MC_A, MC_N, MC_BATCH, sampler_seed)
                sampled = time.perf_counter()
                statistic, passed = he.ks_compare(batch, recorded_cdf)
            except Exception as exc:  # the whole batch fails
                share = (time.perf_counter() - start) / MC_BATCH
                error = f"{type(exc).__name__}: {exc}"
                outcomes += [Outcome((k, i), None, start, share, error) for i in range(MC_BATCH)]
                continue
            share = (sampled - start) / MC_BATCH
            outcomes += [Outcome((k, i), (t, p, statistic, passed), t0, share + dt)
                         for i, (t, p, t0, dt) in enumerate(records)]
        return outcomes

    def failures(self, outcomes):
        """A sample fails when its CDF value misses the closed form; its whole
        batch fails when the KS statistic or verdict is wrong, or the sampler's
        law misses the KS bound."""
        failed = [o.error is not None for o in outcomes]
        batches = defaultdict(list)
        for index, outcome in enumerate(outcomes):
            if outcome.error is None:
                batches[outcome.key[0]].append(index)
        for members in batches.values():
            members.sort(key=lambda i: outcomes[i].value[0])
            t = np.array([outcomes[i].value[0] for i in members])
            p = np.array([outcomes[i].value[1] for i in members])
            statistic, passed = outcomes[members[0]].value[2:]
            reference = oracles.smallest_cdf_a1(MC_N, t)
            count = len(members)
            batch_ok = (
                count == MC_BATCH
                and abs(statistic - oracles.ks_statistic(t, reference)) <= KS_STAT_TOL
                and statistic < oracles.KS_COEFF_STRICT / math.sqrt(count)
                and passed == (statistic < 1.63 / math.sqrt(count))
            )
            for i, p_i, ref_i in zip(members, p, reference):
                failed[i] = not (batch_ok and _within(p_i, ref_i, CDF_TOL))
        return failed


WORKLOADS = {w.name: w for w in (LimitGrid(), FiniteGrid(), RateStudy(), MonteCarloKS())}
