"""Per-layer tracing of hardedge from outside the package.

``Tracer.install`` wraps every public function of the hardedge modules and
rebinds each wrapper in every ``hardedge.*`` namespace that holds the
original (``kernels`` and ``expansion``, for instance, import
``bessel_entire`` by name).  It also wraps ``numpy.linalg`` ``slogdet``,
``solve`` and ``svd`` to count factorizations; all of it is undone by
``uninstall``, so untraced runs execute the unmodified program.

A span is [name, start, end, parent index, counted].  Spans stay in memory
until the outermost traced call returns; then each span's self time is its
duration minus the durations of its direct children, and the totals are
folded into per-name counters.
"""

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("specfun", "quadrature", "kernels", "fredholm", "distributions",
           "expansion", "montecarlo", "_parallel", "cli")
LINALG = ("slogdet", "solve", "svd")

POINTWISE = ("kernels.bessel_kernel_entire", "kernels.laguerre_kernel_entire",
             "kernels.kernel_value", "kernels.hat_bessel_j", "kernels.correction_kernel",
             "kernels.kernel_expansion_residual")
RESIDUALS = ("expansion.conjecture_residual", "expansion.uncorrected_difference",
             "expansion.optimal_scaling_residual", "expansion.taylor_step_residual",
             "expansion.mehler_heine_residual")
LIMIT_EVALS = ("distributions.limit_cdf", "distributions.limit_density")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.edges = Counter()    # (parent name, child name) -> calls
        self.counts = Counter()   # values counted at a boundary, e.g. matrix entries
        self._restore = []

    # ------------------------------------------------------------ spans
    def _fold(self):
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, parent, counted), inner in zip(spans, child_s):
            if counted:
                self.calls[name] += 1
                self.total_s[name] += end - start
                if parent >= 0:
                    self.edges[(spans[parent][0], name)] += 1
            self.self_s[name] += end - start - inner
        spans.clear()

    def traced(self, name, fn, counted=True):
        """fn wrapped so that every call records a span named `name`."""
        spans, stack, clock, fold = self.spans, self.stack, time.perf_counter, self._fold

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, counted]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if not stack:
                    fold()

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------- special layers
    def _special(self, name, fn):
        plain = self.traced(name, fn)
        if name == "kernels.kernel_matrix":
            def kernel_matrix(*args, **kwargs):
                matrix = plain(*args, **kwargs)
                self.counts["kernels.kernel_matrix.entries"] += matrix.size
                return matrix
            return kernel_matrix
        if name == "montecarlo.analytic_smallest_cdf":
            return lambda *args, **kwargs: self.traced("montecarlo.cdf", plain(*args, **kwargs))
        if name == "_parallel.ordered_map":
            # Item work belongs to the layer that called ordered_map, so only
            # the map's own overhead is charged to _parallel.
            def ordered_map(fn, items):
                items = list(items)
                self.counts["_parallel.ordered_map.items"] += len(items)
                owner = self.spans[self.stack[-1]][0] if self.stack else "_parallel.item"
                return plain(self.traced(owner, fn, counted=False), items)
            return ordered_map
        return plain

    # --------------------------------------------------- install/remove
    def install(self):
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"hardedge.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._special(f"{short}.{attr}", obj))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "hardedge" or n.startswith("hardedge.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._rebind(module, attr, wrapper)
        for attr in LINALG:
            self._rebind(np.linalg, attr, self.traced(f"numpy.{attr}", getattr(np.linalg, attr)))
        return self

    def _rebind(self, module, attr, value):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def rule_cache_counts() -> tuple:
    """(hits, misses) of the Gauss-Jacobi reference-rule cache, or (0, 0)
    when the program keeps no such cache."""
    from hardedge import quadrature

    info = getattr(getattr(quadrature, "_reference_rule", None), "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


def layer_metrics(tracer: Tracer, units: int, factor: float) -> dict:
    """The per-layer metrics of one traced phase that did `units` units, with
    times multiplied by `factor` (reference seconds per measured second)."""
    calls = tracer.calls
    self_s = defaultdict(float, {k: v * factor for k, v in tracer.self_s.items()})
    total_s = defaultdict(float, {k: v * factor for k, v in tracer.total_s.items()})

    def prefixed(prefix):
        return sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)

    factorizations = calls["numpy.slogdet"] + calls["numpy.solve"]
    residual_calls = sum(calls[name] for name in RESIDUALS)
    limit_evals = sum(tracer.edges[(r, l)] for r in RESIDUALS for l in LIMIT_EVALS)
    limit_evals_per_residual = limit_evals / residual_calls if residual_calls else 0.0
    per_unit = 1.0 / units if units else 0.0
    return {
        "specfun.bessel_entire.calls": calls["specfun.bessel_entire"],
        "specfun.bessel_entire.self_s": self_s["specfun.bessel_entire"],
        "specfun.laguerre.calls": calls["specfun.laguerre"],
        "specfun.laguerre.self_s": self_s["specfun.laguerre"],
        "specfun.log_gamma.calls": calls["specfun.log_gamma"],
        "quadrature.gauss_jacobi.calls": calls["quadrature.gauss_jacobi"],
        "quadrature.gauss_jacobi.self_s": self_s["quadrature.gauss_jacobi"],
        "kernels.kernel_matrix.calls": calls["kernels.kernel_matrix"],
        "kernels.kernel_matrix.self_s": self_s["kernels.kernel_matrix"],
        "kernels.kernel_matrix.entries": tracer.counts["kernels.kernel_matrix.entries"],
        "kernels.pointwise.calls": sum(calls[name] for name in POINTWISE),
        "kernels.pointwise.self_s": sum((self_s[name] for name in POINTWISE), 0.0),
        "kernels.assemblies_per_unit": calls["kernels.kernel_matrix"] * per_unit,
        "fredholm.nystrom_det.calls": calls["fredholm.nystrom_det"],
        "fredholm.nystrom_det.self_s": self_s["fredholm.nystrom_det"],
        "fredholm.resolvent.calls": calls["fredholm.resolvent_quadratic_form"],
        "fredholm.resolvent.self_s": self_s["fredholm.resolvent_quadratic_form"],
        "fredholm.factorizations": factorizations,
        "fredholm.factor_s": total_s["numpy.slogdet"] + total_s["numpy.solve"],
        "fredholm.factorizations_per_unit": factorizations * per_unit,
        "distributions.limit_cdf.calls": calls["distributions.limit_cdf"],
        "distributions.finite_cdf.calls": calls["distributions.finite_cdf"],
        "distributions.limit_density.calls": calls["distributions.limit_density"],
        "distributions.self_s": prefixed("distributions."),
        "expansion.residual.calls": residual_calls,
        "expansion.self_s": prefixed("expansion."),
        "expansion.limit_evals_per_residual": limit_evals_per_residual,
        "montecarlo.sample_smallest.self_s": self_s["montecarlo.sample_smallest"],
        "montecarlo.svd.calls": calls["numpy.svd"],
        "montecarlo.svd_s": total_s["numpy.svd"],
        "montecarlo.ks_compare.self_s": self_s["montecarlo.ks_compare"],
        "montecarlo.cdf.calls": calls["montecarlo.cdf"],
        "montecarlo.cdf_s": total_s["montecarlo.cdf"],
        "parallel.ordered_map.items": tracer.counts["_parallel.ordered_map.items"],
        "parallel.ordered_map.self_s": self_s["_parallel.ordered_map"],
    }
