"""Benchmark of hardedge through its public library functions and its CLI.

Run from the repository root:

    python3 perfbench/run.py --workload limit-grid --seed 1 --seconds 10 --trace 0

The program is imported from ./src of the checkout; nothing is installed.
All load comes from this one process: the timed loop runs in it, and the
fresh interpreters behind setup_s and cli_s run one at a time.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics of a traced phase over a fixed number of passes, plus the tracing
overhead against an untraced phase of the same run.  The last stdout line
is the result JSON; the line before it is a report with the machine, the
sample counts and failed_frac.
"""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

WORKLOAD_NAMES = ("limit-grid", "finite-grid", "rate-study", "mc-ks")
MIN_UNITS = 100        # so that p90 has at least 10 samples beyond it
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
# Time of calibration_kernel() on the reference machine.  In-process times
# are reported in reference seconds: measured seconds times this over the
# kernel's time measured around them.  The machine this was written on
# changes speed by up to 2x over seconds to minutes (other tenants), and the
# kernel tracks that change.
REFERENCE_KERNEL_S = 0.002
# Bound before any tracing wraps numpy.linalg, so calibration stays untraced.
SLOGDET, SVD = np.linalg.slogdet, np.linalg.svd
SPEED_INTERVAL_S = 0.25
THREAD_VARS = ("HARDEDGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "units_per_s": "1/s", "unit_p50_ms": "ms",
              "unit_p90_ms": "ms", "cli_s": "s"}
PER_LAYER_RATIOS = ("quadrature.rule_hit_ratio", "kernels.assemblies_per_unit",
                    "fredholm.factorizations_per_unit", "expansion.limit_evals_per_residual",
                    "trace.overhead_frac")

# Fresh-interpreter set-up: import hardedge, then one value of every
# configuration the workload runs (which builds every Gauss-Jacobi rule it
# uses, cold).  Importing the benchmark's own modules is not counted.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import hardedge
imported = time.perf_counter()
import workloads
workload = workloads.WORKLOADS[sys.argv[1]]
begin = time.perf_counter()
workload.warm_up(int(sys.argv[2]))
print(repr(imported - start + time.perf_counter() - begin))
"""


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_RATIOS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def child_env(*paths) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths)
    return env


def run_child(argv, *paths):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(*paths),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


class Tally:
    """Attempted and failed operations, with the first few error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def calibration_kernel() -> float:
    """Fixed work in the mix hardedge runs: interpreter-bound arithmetic,
    small numpy operations and small LAPACK calls.  Uses nothing from
    hardedge.  (Interpreter-bound code alone tracks the speed of the
    LAPACK-heavy workloads poorly.)"""
    total = 0.0
    for i in range(1, 6000):
        total += math.sqrt(i) / (i + 1.0)
    x = np.arange(50.0)
    for _ in range(60):
        x = np.sqrt(x * x + 1.0) - 1.0
    axis = np.arange(50.0)
    square = 2.0 * np.eye(50) + np.sin(np.outer(axis, axis)) / 50.0
    wide = np.exp(1j * np.outer(axis[:20], axis[:21]))
    for _ in range(4):
        total += SLOGDET(square)[1] + SVD(wide, compute_uv=False)[-1]
    return total + float(x[0])


def speed() -> float:
    """Factor that turns seconds measured now into reference seconds: the
    kernel's reference time over the best of three timings of it now."""
    best = math.inf
    for _ in range(3):
        begin = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - begin)
    return REFERENCE_KERNEL_S / best


class Speedometer:
    """speed() readings over time, to convert measured seconds into reference
    seconds at the speed the machine had when they were measured."""

    def __init__(self, interval_s):
        self.interval_s = interval_s
        self.times, self.factors = [], []
        self.read()

    def read(self) -> float:
        begin = time.perf_counter()
        factor = speed()
        self.times.append(0.5 * (begin + time.perf_counter()))
        self.factors.append(factor)
        return factor

    def pause(self) -> None:
        """A reading, if the last one is older than the interval."""
        if time.perf_counter() - self.times[-1] >= self.interval_s:
            self.read()

    def convert(self, outcomes) -> float:
        """Convert latencies in place; returns their sum."""
        total = 0.0
        for outcome in outcomes:
            middle = outcome.start + 0.5 * outcome.latency_s
            outcome.latency_s *= float(np.interp(middle, self.times, self.factors))
            total += outcome.latency_s
        return total


def measure(workload, seed, seconds, min_units, first_pass=0, fixed=False, between=(),
            interval_s=SPEED_INTERVAL_S):
    """Run whole passes until `seconds` of pass time are spent and `min_units`
    units are done (if fixed, only the latter).

    Latencies are converted to reference seconds with speed() readings taken
    between units every `interval_s` (never, if None) and around every pass;
    a pass rate is its units over the sum of their converted latencies.  The
    `between` tasks run in the gaps, spread evenly over the pass time, so
    that every metric of a run samples the machine over the same stretch of
    time.  Returns the outcomes, the pass rates, the next pass index and the
    Speedometer."""
    outcomes, rates, pending = [], [], list(between)
    meter = Speedometer(interval_s or math.inf)
    k, busy = first_pass, 0.0
    while True:
        keys = workload.pass_keys(seed, k)
        begin = time.perf_counter()
        done = workload.run_pass(keys, meter.pause)
        busy += time.perf_counter() - begin
        meter.read()
        rates.append(len(done) / meter.convert(done))
        outcomes += done
        k += 1
        finished = len(outcomes) >= min_units and (fixed or busy >= seconds)
        while pending and (finished or
                           busy >= seconds * (1.0 - len(pending) / (len(between) + 1.0))):
            pending.pop(0)()
            meter.read()
        if finished:
            return outcomes, rates, k, meter


def judge(workload, outcomes, tally) -> None:
    reason = None
    try:
        flags = workload.failures(outcomes)
    except Exception as exc:  # a result the oracles cannot read fails them all
        flags, reason = [True] * len(outcomes), f"oracle check raised {type(exc).__name__}: {exc}"
    for outcome, failed in zip(outcomes, flags):
        tally.add(not failed,
                  outcome.error or reason or f"{workload.name} {outcome.key} missed its oracle")


def check_table(check, text) -> bool:
    from workloads import parse_csv

    try:
        return bool(check(parse_csv(text)))
    except (ValueError, KeyError, ZeroDivisionError):
        return False


# A fresh interpreter's time is reported in reference seconds too, but the
# in-process kernel does not track it: on the machine this was written on,
# fresh processes (interpreter start, imports, page faults) slow down in
# phases of their own, which the kernel, timed before, after or even during
# the child, misses.  So every probe runs right after a reference child, a
# fresh interpreter that imports what hardedge imports and does fixed work,
# and a probe's time is converted by REFERENCE_CHILD_S over that child's wall
# time.  The reference child uses nothing from hardedge.
REFERENCE_CHILD = """
import math
import numpy as np
from scipy import special
total = 0.0
for i in range(1, 100000):
    total += math.sqrt(i) / (i + 1.0)
axis = np.arange(60.0)
square = 2.0 * np.eye(60) + np.sin(np.outer(axis, axis)) / 60.0
for _ in range(100):
    total += np.linalg.slogdet(square)[1] + special.gammaincc(2.5, axis).sum()
print(repr(total))
"""
REFERENCE_CHILD_S = 0.45  # its wall time on the reference machine


def reference_factor() -> float:
    """REFERENCE_CHILD_S over the wall time of one reference child."""
    begin = time.perf_counter()
    proc = run_child(["-c", REFERENCE_CHILD])
    wall = time.perf_counter() - begin
    if proc.returncode != 0:
        raise RuntimeError(f"reference child exited {proc.returncode}: {proc.stderr[-300:]}")
    return REFERENCE_CHILD_S / wall


def setup_probe(workload, seed, samples, tally) -> None:
    """One fresh-interpreter set-up: (reference seconds, seconds)."""
    factor = reference_factor()
    proc = run_child(["-c", SETUP_PROBE, workload.name, str(seed)], SRC, HERE)
    tally.add(proc.returncode == 0, f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]}")
    if proc.returncode == 0:
        measured = float(proc.stdout.split()[-1])
        samples.append((measured * factor, measured))


def cli_probe(argv, check, walls, verdicts, tally) -> None:
    """One README command in a fresh process: (reference seconds, wall
    seconds), and its checked output."""
    factor = reference_factor()
    begin = time.perf_counter()
    proc = run_child(["-m", "hardedge.cli", *argv], SRC)
    wall = time.perf_counter() - begin
    walls.append((wall * factor, wall))
    if proc.stdout not in verdicts:
        verdicts[proc.stdout] = check_table(check, proc.stdout)
    tally.add(proc.returncode == 0 and verdicts[proc.stdout],
              f"hardedge {' '.join(argv)} exited {proc.returncode} or failed its check")


def traced_cli(workload, tally) -> float:
    """Self time of cli.main over the README commands, run in this process."""
    from hardedge import cli
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        for argv, check in workload.cli:
            buffer = io.StringIO()
            try:
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            tally.add(code == 0 and check_table(check, buffer.getvalue()),
                      f"in-process hardedge {' '.join(argv)} exited {code} or failed its check")
    return tracer.self_s["cli.main"]


def end_to_end(workload, seed, seconds, tally, min_units, setup_repeats, cli_repeats):
    try:
        workload.warm_up(seed)
    except Exception as exc:  # reported as a failed operation
        tally.add(False, f"warm-up raised {type(exc).__name__}: {exc}")
    setup, walls, verdicts, probes = [], {}, {}, []
    for round_ in range(max(setup_repeats, cli_repeats)):
        if round_ < setup_repeats:
            probes.append(functools.partial(setup_probe, workload, seed, setup, tally))
        if round_ < cli_repeats:
            for argv, check in workload.cli:
                command = walls.setdefault(" ".join(argv), [])
                probes.append(functools.partial(cli_probe, argv, check, command, verdicts, tally))
    outcomes, rates, passes, meter = measure(workload, seed, seconds, min_units,
                                             between=probes)
    judge(workload, outcomes, tally)
    latencies = [o.latency_s for o in outcomes]
    if not setup:
        raise RuntimeError("no set-up probe succeeded")
    cli = {command: statistics.median(s for s, _ in samples) for command, samples in walls.items()}
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "units_per_s": statistics.median(rates),
        "unit_p50_ms": 1e3 * statistics.median(latencies),
        "unit_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "cli_s": sum(cli.values()),
    }
    details = {"units": len(outcomes), "passes": passes, "latency_samples": len(latencies),
               "setup_samples": setup, "cli_samples": walls, "speed_factors": meter.factors}
    return {name: (metrics[name], END_TO_END[name]) for name in END_TO_END}, details


def per_layer(workload, seed, seconds, tally, min_units):
    from tracing import Tracer, layer_metrics, rule_cache_counts

    # Cold phase: this interpreter has built no rule yet.
    cold = Tracer()
    hits0, misses0 = rule_cache_counts()
    with cold:
        try:
            workload.warm_up(seed)
        except Exception as exc:  # reported as a failed operation
            tally.add(False, f"warm-up raised {type(exc).__name__}: {exc}")
    hits1, misses1 = rule_cache_counts()

    plain, plain_rates, next_pass, _ = measure(workload, seed, seconds, min_units)
    tracer = Tracer()
    hits2, misses2 = rule_cache_counts()
    with tracer:
        # No readings inside passes: they would land in the spans.
        traced, traced_rates, _, meter = measure(workload, seed, 0.0, min_units, next_pass,
                                                 fixed=True, interval_s=None)
    hits3, misses3 = rule_cache_counts()
    judge(workload, plain + traced, tally)

    hits = hits1 - hits0 + hits3 - hits2
    attempts = hits + misses1 - misses0 + misses3 - misses2
    # Layer times in reference seconds, at the traced phase's mean speed.
    factor = statistics.fmean(meter.factors)
    metrics = layer_metrics(tracer, len(traced), factor)
    metrics["quadrature.rule_hit_ratio"] = hits / attempts if attempts else 0.0
    metrics["quadrature.cold_build_s"] = cold.total_s["quadrature.gauss_jacobi"] * factor
    metrics["cli.main.self_s"] = traced_cli(workload, tally) * factor
    metrics["trace.overhead_frac"] = (statistics.median(plain_rates)
                                      / statistics.median(traced_rates) - 1.0)
    details = {"units": len(plain) + len(traced), "traced_units": len(traced),
               "traced_passes": len(traced_rates)}
    return {name: (value, per_layer_unit(name)) for name, value in metrics.items()}, details


def run(name, seed, seconds, trace, min_units=MIN_UNITS, setup_repeats=SETUP_REPEATS,
        cli_repeats=None):
    """One benchmark run; returns (report, result) as JSON-ready dicts.
    cli_repeats defaults to the workload's own."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    cli_repeats = cli_repeats or workload.cli_repeats
    tally = Tally()
    if trace:
        metrics, details = per_layer(workload, seed, seconds, tally, min_units)
    else:
        metrics, details = end_to_end(workload, seed, seconds, tally, min_units,
                                      setup_repeats, cli_repeats)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), **details,
              "failed_frac": tally.failed / tally.attempted, "errors": tally.errors}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return report, result


def load_program() -> None:
    """Put ./src first on the path and import hardedge from there."""
    if not (SRC / "hardedge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hardedge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hardedge

    if SRC not in Path(hardedge.__file__).resolve().parents:
        raise SystemExit(f"perfbench: hardedge was imported from {hardedge.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 53 or args.seconds <= 0:
        parser.error("--seed must lie in [0, 2**53) and --seconds must be positive")
    # The benchmark measures the default single-threaded configuration.
    os.environ.pop("HARDEDGE_THREADS", None)
    load_program()
    report, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
