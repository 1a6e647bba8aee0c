"""Monte Carlo cross-check against the determinant-based law.

Samples the smallest eigenvalue of W = X X* where X is an n x (n+a) matrix
of independent standard complex Gaussians (real and imaginary parts each
with variance 1/2), i.e. the integer-a ensemble whose eigenvalue density
the determinants describe.  Each sample draws from its own counter-based
Philox stream keyed by (seed, sample index).  The samples are drawn in
blocks of at most BLOCK_ENTRIES complex matrix entries: one Philox,
re-keyed at counter 0 for each sample, and one stacked SVD per block.  So
sample i is the same whatever the count or the block size.

Restricted to integer a on purpose: the Gaussian-matrix construction is the
only sampler whose law is beyond doubt, and an oracle must never be less
trustworthy than the code it judges.

ks_validate runs the whole check: it refuses a count below MIN_KS_COUNT
before the first draw, then evaluates the analytic CDF on the sorted
sample in one call, with values equal bit for bit to ks_compare's one call
per sample.  At integer a that CDF is one Chebyshev interpolant of 1 - det
on [0, L], and exactly 1 past L, which each callable builds at its first
finite t > 0; at non-integer a, or where the build is refused, every value
is a determinant, batched along the s axis (see fredholm).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import ordered_map
from .errors import AccuracyError, DomainError, HardEdgeError, NumericError
from .fredholm import _batch, _check_m
from .kernels import finite_spec
from .specfun import S_MAX, _require_integer, reg_upper_gamma

MAX_SAMPLER_ORDER = 200
MIN_KS_COUNT = 1000

# Complex matrix entries that one block of samples draws and decomposes at
# once: 1 MB per (B, n, n+a) complex array, and one matrix per block from
# n = 182 at a = 0.
BLOCK_ENTRIES = 2 ** 16

# Asymptotic two-sided Kolmogorov-Smirnov critical coefficient at alpha = 0.01.
KS_COEFF_1PCT = 1.63

# Absolute bound on each of the last four Chebyshev coefficients of an
# accepted interpolant of the CDF, about a hundred times their rounding
# noise at m = 50.  Accepted interpolants have stayed within 7.3e-15 of the
# determinants on [0, L], and within 4.4e-15 of the closed forms at a = 0
# and a = 1.
CHEBYSHEV_TAIL = 1e-14

# A survival below this rounds the CDF 1 - survival to 1: half the spacing
# of doubles just below 1 is 2^-54.
NEGLIGIBLE_SURVIVAL = 2.0 ** -54


@dataclass(frozen=True)
class SampleBatch:
    """Smallest-eigenvalue samples (unscaled) with their generation recipe."""

    a: int
    n: int
    count: int
    seed: int
    values: np.ndarray


def _singular_values(x: np.ndarray, a: int, n: int, seed: int, start: int) -> np.ndarray:
    """Singular values of the stacked matrices x of samples start, start + 1,
    ...; a failed SVD names the first sample whose matrix fails alone."""
    try:
        return np.linalg.svd(x, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        if len(x) == 1:
            # fail loudly; resampling would bias the batch
            raise NumericError(
                f"SVD failed for sample {start} (a={a}, n={n}, seed={seed})"
            ) from exc
    # replayed one matrix at a time, as fredholm._batch replays a refused chunk
    return np.concatenate([_singular_values(x[k:k + 1], a, n, seed, start + k)
                           for k in range(len(x))])


def _sample_block(a: int, n: int, seed: int, start: int, stop: int) -> list:
    """Smallest eigenvalues of samples start, ..., stop - 1.

    Sample i fills its (2, n, n+a) slice, the real then the imaginary
    parts, with one draw from the Philox stream keyed by (seed, i) at
    counter 0, which is the stream of a new Philox with that key.
    """
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    zero = np.zeros(4, dtype=np.uint64)
    draws = np.empty((stop - start, 2, n, n + a))
    for index, out in zip(range(start, stop), draws):
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": zero, "key": np.array([seed, index], dtype=np.uint64)},
            "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        rng.standard_normal(out=out)
    x = np.empty((stop - start, n, n + a), dtype=complex)
    x.real = draws[:, 0]
    x.imag = draws[:, 1]
    x *= math.sqrt(0.5)
    smallest = _singular_values(x, a, n, seed, start)[:, -1]
    # squared one Python float at a time, by the C library's pow: numpy's
    # array square, a plain product, differs from it in the last bit for
    # about one value in a thousand
    return [value ** 2 for value in smallest.tolist()]


def sample_smallest(a, n, count, seed) -> SampleBatch:
    """Draw `count` independent smallest eigenvalues of the (n, a) ensemble."""
    a = _require_integer(a, "sampler order a", 0)
    n = _require_integer(n, "sampler order n", 1, MAX_SAMPLER_ORDER)
    count = _require_integer(count, "count", 1)
    seed = _require_integer(seed, "seed", 0, 2 ** 64 - 1)
    block = max(1, BLOCK_ENTRIES // (n * (n + a)))
    values = []
    for start in range(0, count, block):
        values += _sample_block(a, n, seed, start, min(start + block, count))
    values = np.array(values)
    if np.any(values <= 0.0):
        raise NumericError("sampler produced a non-positive eigenvalue")
    return SampleBatch(a=a, n=n, count=count, seed=seed, values=values)


def _check_ks_count(count) -> None:
    if not count >= MIN_KS_COUNT:
        raise DomainError(f"KS comparison needs count >= {MIN_KS_COUNT}, got {count}")


def _ks_statistic(probs: np.ndarray, count: int) -> tuple[float, bool]:
    """(statistic, passed) of CDF values at the sorted sample of `count` draws."""
    # written so that nan fails the range test too
    if not np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12)):
        raise DomainError("cdf callable returned values outside [0, 1]")
    ranks = np.arange(1, count + 1, dtype=float)
    d_plus = float(np.max(ranks / count - probs))
    d_minus = float(np.max(probs - (ranks - 1.0) / count))
    statistic = max(d_plus, d_minus)
    return statistic, statistic < KS_COEFF_1PCT / math.sqrt(count)


def ks_compare(batch: SampleBatch, cdf) -> tuple[float, bool]:
    """Two-sided Kolmogorov-Smirnov statistic of the batch against a CDF.

    cdf maps an eigenvalue t to P(lambda_min < t); it is called once per
    sample, in ascending order.  Passes (second return value) iff the
    statistic is below 1.63/sqrt(count), the asymptotic 1% critical value.
    """
    _check_ks_count(batch.count)
    ordered = np.sort(batch.values)
    return _ks_statistic(np.array(ordered_map(cdf, ordered), dtype=float), batch.count)


def ks_validate(a, n, count, seed, m=50) -> tuple[float, bool]:
    """ks_compare of sample_smallest(a, n, count, seed) against
    analytic_smallest_cdf(a, n, m), bit for bit, with the CDF evaluated on
    the whole sorted sample in one call: one interpolant build at integer a,
    else one batch of determinants.  count and m are checked before the
    first draw."""
    _check_ks_count(count)
    _check_m(m)
    batch = sample_smallest(a, n, count, seed)
    cdf = analytic_smallest_cdf(a, n, m)
    return _ks_statistic(cdf(np.sort(batch.values)), batch.count)


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


@dataclass(frozen=True)
class _Chebyshev:
    """The CDF at s > 0 from c_0 + sum_{k>=1} c_k T_k(2 s / length - 1), with
    c_0 already halved, clamped to [0, 1] on (0, length] and 1 beyond; tail
    holds c_N, ..., c_1, in the order Clenshaw's recurrence takes them."""

    length: float
    c0: float
    tail: tuple

    def __call__(self, s: float) -> float:
        # the survival is non-increasing in s and below NEGLIGIBLE_SURVIVAL at length
        if s > self.length:
            return 1.0
        # Clenshaw's recurrence in Python floats, one body for every call,
        # so that a value does not depend on the batch that asked for it
        x = 2.0 * s / self.length - 1.0
        two_x = 2.0 * x
        b1 = b2 = 0.0
        for c in self.tail:
            b1, b2 = c + two_x * b1 - b2, b1
        # a probability: rounding leaves [0, 1] by about 1e-15 near either end
        return min(max(self.c0 + x * b1 - b2, 0.0), 1.0)


def _chebyshev_fit(spec, m: int) -> _Chebyshev | None:
    """The interpolant of s -> 1 - det(I - A) on [0, L] at integer a, else
    None.

    At integer a the gap probability is e^{-s/4} times a polynomial in s
    (Forrester, Log-gases and Random Matrices, 2010, ch. 8), so it is
    entire and Chebyshev interpolation converges faster than geometrically
    (Trefethen, Approximation Theory and Approximation Practice, 2013,
    ch. 8).  L is the first of 16, 32, ... (at most S_MAX) at which the
    m-node survival falls below NEGLIGIBLE_SURVIVAL, so that the CDF is 1
    past L; the fit takes 32 first-kind points on [0, L] in one batch, and
    doubles them up to 128 until the last four coefficients fall below
    CHEBYSHEV_TAIL.  The bound is absolute, as is the accuracy of the
    determinants (Bornemann, Math. Comp. 79 (2010) 871).  A refused
    survival or node, or a tail that stays above the bound, gives None, and
    so does a non-integer a, where the law has a branch point at s = 0.
    """
    if not spec.a.is_integer():
        return None
    length = 16.0
    try:
        while _batch(spec, [length], m)[0].value >= NEGLIGIBLE_SURVIVAL:
            length *= 2.0
            if length > S_MAX:
                return None
        for count in (32, 64, 128):
            angles = math.pi * (np.arange(count) + 0.5) / count
            nodes = 0.5 * length * (1.0 + np.cos(angles))
            values = [1.0 - record.value for record in _batch(spec, nodes.tolist(), m)]
            # k (2j + 1) reduced mod 4 count: unreduced, the rounding of cosine
            # arguments up to 2 count pi raised the coefficients' noise tenfold
            phases = np.outer(np.arange(count), 2 * np.arange(count) + 1) % (4 * count)
            coefficients = np.cos(phases * (math.pi / (2 * count))) @ values * (2.0 / count)
            if np.all(np.abs(coefficients[-4:]) < CHEBYSHEV_TAIL):
                coefficients = coefficients.tolist()
                return _Chebyshev(length, 0.5 * coefficients[0], tuple(coefficients[:0:-1]))
    except HardEdgeError:
        pass
    return None


def analytic_smallest_cdf(a, n, m=50):
    """P(lambda_min < t) of the (n, a) ensemble from the determinant route.

    Returns a callable suitable for ks_compare.  It takes an ndarray of t
    elementwise, or a float t as the array of that t alone.  Unscaled
    eigenvalues t map to the hard-edge axis via s = 4 n t; t <= 0 gives 0
    and t = inf gives 1.  At integer a the callable's first finite t > 0
    builds one Chebyshev interpolant of 1 - det on [0, L] at m nodes (see
    _chebyshev_fit), and once built it is the CDF's only route: every s in
    (0, L] takes its value, clamped to [0, 1] and accurate to about 1e-14
    absolute, and every s > L takes exactly 1, since the survival is
    non-increasing in s and below 2^-54 at L.

    Without an interpolant (non-integer a, or a refused build), every s in
    (0, S_MAX] takes the determinant at m nodes alone, without the m+10
    error estimate, and an array takes those as one batch along the s
    axis.  Beyond the kernels' validated axis, s > S_MAX, the CDF is then
    clamped to 1 where the survival probability is provably below 2^-54
    (see _survival_bound) and refused with AccuracyError elsewhere.  The
    bound falls below 2^-54 near t = 14 at a = 0.5 whatever n > 1, while
    the survival decays like e^{-n t}, so at larger n the t between 400/n
    and there are refused although the CDF rounds to 1: at (a, n) =
    (0.5, 1000) and t = 0.5 the bound is 0.80.

    Values are equal bit for bit to the float calls, and an array raises
    the refusal of its first t, in input order, that is refused alone.  a
    and n are checked here, when the CDF is made; m at each evaluation.
    """
    spec = finite_spec(a, n)
    built, fit = False, None  # the interpolant, built at the first finite t > 0

    def cdf(t):
        nonlocal built, fit
        array = isinstance(t, np.ndarray)
        flat = np.ravel(t).tolist() if array else [float(t)]
        values, direct, refusal = [], [], None
        for t_k in flat:
            s = 4.0 * spec.n * t_k
            if t_k == math.inf or s <= 0.0:
                values.append(1.0 if s > 0.0 else 0.0)
                continue
            if not built:
                built, fit = True, _chebyshev_fit(spec, _check_m(m))
            if fit is not None and not math.isnan(s):
                values.append(fit(s))
            elif s > S_MAX:
                survival_bound = _survival_bound(spec.a, spec.n, t_k)
                if not survival_bound < NEGLIGIBLE_SURVIVAL:
                    # raised after the determinants of the t before it, which come first
                    refusal = AccuracyError(
                        f"s = 4 n t = {s!r} lies beyond {S_MAX:g}, and the survival bound "
                        f"{survival_bound!r} does not round the CDF to 1"
                    )
                    break
                values.append(1.0)
            else:
                # a nan s too, which the determinants' s gate refuses
                direct.append((len(values), s))
                values.append(None)
        # also where no s is direct: this checks m at every evaluation
        records = _batch(spec, [s for _, s in direct], m)
        for (k, _), record in zip(direct, records):
            values[k] = 1.0 - record.value
        if refusal is not None:
            raise refusal
        return np.array(values, dtype=float).reshape(t.shape) if array else values[0]

    return cdf
