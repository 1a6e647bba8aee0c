"""Monte Carlo cross-check against the determinant-based law.

Samples the smallest eigenvalue of W = X X* where X is an n x (n+a) matrix
of independent standard complex Gaussians (real and imaginary parts each
with variance 1/2), i.e. the integer-a ensemble whose eigenvalue density
the determinants describe.  Each sample draws from its own counter-based
stream keyed by (seed, sample index), so sample i is the same whatever the
batch size.

Restricted to integer a on purpose: the Gaussian-matrix construction is the
only sampler whose law is beyond doubt, and an oracle must never be less
trustworthy than the code it judges.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import ordered_map
from .distributions import _finite_value
from .errors import DomainError, NumericError
from .specfun import Z_MAX

MAX_SAMPLER_ORDER = 200
MIN_KS_COUNT = 1000

# Asymptotic two-sided Kolmogorov-Smirnov critical coefficient at alpha = 0.01.
KS_COEFF_1PCT = 1.63


@dataclass(frozen=True)
class SampleBatch:
    """Smallest-eigenvalue samples (unscaled) with their generation recipe."""

    a: int
    n: int
    count: int
    seed: int
    values: np.ndarray


def _one_sample(a: int, n: int, seed: int, index: int) -> float:
    bits = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    rng = np.random.Generator(bits)
    shape = (n, n + a)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)
    try:
        singular_values = np.linalg.svd(x, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        # fail loudly; resampling would bias the batch
        raise NumericError(f"SVD failed for sample {index} (a={a}, n={n}, seed={seed})") from exc
    return float(singular_values[-1] ** 2)


def sample_smallest(a, n, count, seed) -> SampleBatch:
    """Draw `count` independent smallest eigenvalues of the (n, a) ensemble."""
    if a != int(a) or a < 0:
        raise DomainError(f"sampler requires integer a >= 0, got {a!r}")
    if n != int(n) or not 1 <= int(n) <= MAX_SAMPLER_ORDER:
        raise DomainError(f"sampler requires 1 <= n <= {MAX_SAMPLER_ORDER}, got {n!r}")
    if count != int(count) or count < 1:
        raise DomainError(f"count must be a positive integer, got {count!r}")
    if seed != int(seed) or not 0 <= int(seed) < 2 ** 64:
        raise DomainError(f"seed must be a 64-bit nonnegative integer, got {seed!r}")
    a, n, count, seed = int(a), int(n), int(count), int(seed)
    values = np.array(ordered_map(lambda i: _one_sample(a, n, seed, i), range(count)))
    if np.any(values <= 0.0):
        raise NumericError("sampler produced a non-positive eigenvalue")
    return SampleBatch(a=a, n=n, count=count, seed=seed, values=values)


def ks_compare(batch: SampleBatch, cdf) -> tuple[float, bool]:
    """Two-sided Kolmogorov-Smirnov statistic of the batch against a CDF.

    cdf maps an eigenvalue t to P(lambda_min < t).  Passes (second return
    value) iff the statistic is below 1.63/sqrt(count), the asymptotic 1%
    critical value.
    """
    if batch.count < MIN_KS_COUNT:
        raise DomainError(f"KS comparison needs count >= {MIN_KS_COUNT}, got {batch.count}")
    ordered = np.sort(batch.values)
    probs = np.array(ordered_map(cdf, ordered), dtype=float)
    if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
        raise DomainError("cdf callable returned values outside [0, 1]")
    ranks = np.arange(1, batch.count + 1, dtype=float)
    d_plus = float(np.max(ranks / batch.count - probs))
    d_minus = float(np.max(probs - (ranks - 1.0) / batch.count))
    statistic = max(d_plus, d_minus)
    return statistic, statistic < KS_COEFF_1PCT / math.sqrt(batch.count)


def analytic_smallest_cdf(a, n, m=50):
    """P(lambda_min < t) of the (n, a) ensemble from the determinant route.

    Returns a callable suitable for ks_compare.  Unscaled eigenvalues t map
    to the hard-edge axis via s = 4 n t; beyond the kernels' validated axis
    the survival probability is below 1e-170 (it decays like e^{-n t}), so
    the CDF is clamped to 1 there.  Each value is the determinant at m
    nodes alone, without the m+10 error estimate.
    """

    def cdf(t: float) -> float:
        s = 4.0 * n * float(t)
        if s <= 0.0:
            return 0.0
        if s > 4.0 * Z_MAX:
            return 1.0
        return 1.0 - _finite_value(a, n, s, "standard", m)

    return cdf
