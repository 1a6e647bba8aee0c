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
from .errors import AccuracyError, DomainError, NumericError
from .fredholm import _det_value
from .kernels import finite_spec
from .specfun import S_MAX, _require_integer, reg_upper_gamma

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
    a = _require_integer(a, "sampler order a", 0)
    n = _require_integer(n, "sampler order n", 1, MAX_SAMPLER_ORDER)
    count = _require_integer(count, "count", 1)
    seed = _require_integer(seed, "seed", 0, 2 ** 64 - 1)
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
    # written so that nan fails the range test too
    if not np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12)):
        raise DomainError("cdf callable returned values outside [0, 1]")
    ranks = np.arange(1, batch.count + 1, dtype=float)
    d_plus = float(np.max(ranks / batch.count - probs))
    d_minus = float(np.max(probs - (ranks - 1.0) / batch.count))
    statistic = max(d_plus, d_minus)
    return statistic, statistic < KS_COEFF_1PCT / math.sqrt(batch.count)


def _survival_bound(a: float, n: int, t: float) -> float:
    """Upper bound prod_{k<n} Q(a+2k+1, t) on P(lambda_min >= t), any real a > -1.

    In the bidiagonal model of the ensemble (Dumitriu and Edelman 2002),
    lambda_min is the smallest eigenvalue of B^T B, B lower bidiagonal with
    independent entries whose squares are Gamma(a+1), ..., Gamma(a+n) on the
    diagonal (from the bottom up) and Gamma(1), ..., Gamma(n-1) below it.
    The diagonal entries of B^T B are then independent Gamma(a+2k+1) for
    k = 0, ..., n-1, and each bounds lambda_min from above.
    """
    return math.prod(reg_upper_gamma(a + 2.0 * k + 1.0, t) for k in range(n))


def analytic_smallest_cdf(a, n, m=50):
    """P(lambda_min < t) of the (n, a) ensemble from the determinant route.

    Returns a callable suitable for ks_compare.  Unscaled eigenvalues t map
    to the hard-edge axis via s = 4 n t.  Beyond the kernels' validated
    axis, s > 1600, the CDF is clamped to 1 where the survival probability
    is provably below 2^-54 (see _survival_bound) and refused with
    AccuracyError elsewhere; t = inf gives 1.  The bound falls below 2^-54
    near t = 13 at a = 0 whatever n (t = 28 at a = 10), while the survival
    decays like e^{-n t}, so at larger n the t between 400/n and there are
    refused although the CDF rounds to 1: at (a, n) = (0, 200) and t = 3
    the bound is 0.017 and the survival e^{-600}.  Each value is the
    determinant at m nodes alone, without the m+10 error estimate.  a and n
    are checked here, when the CDF is made; m at each evaluation.
    """
    spec = finite_spec(a, n)

    def cdf(t: float) -> float:
        t = float(t)
        if t == math.inf:
            return 1.0
        s = 4.0 * spec.n * t
        if s <= 0.0:
            return 0.0
        if s > S_MAX:
            survival_bound = _survival_bound(spec.a, spec.n, t)
            if survival_bound < 2.0 ** -54:
                return 1.0
            raise AccuracyError(
                f"s = 4 n t = {s!r} lies beyond {S_MAX:g}, and the survival bound "
                f"{survival_bound!r} does not round the CDF to 1"
            )
        return 1.0 - _det_value(spec, s, m)

    return cdf
