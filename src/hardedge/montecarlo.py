"""Monte Carlo cross-check against the determinant-based law.

Samples the smallest eigenvalue of W = X X* where X is an n x (n+a) matrix
of independent standard complex Gaussians (real and imaginary parts each
with variance 1/2), i.e. the integer-a ensemble whose eigenvalue density
the determinants describe.  It draws the beta = 2 bidiagonal model of
Dumitriu and Edelman (J. Math. Phys. 43 (2002) 5830), which is that
construction with its Householder reduction done in closed form.
Reflections from alternate sides, and a unitary diagonal scaling, take X
to a real bidiagonal matrix with the singular values of X.  Each
reflection leaves of the Gaussian vector it acts on only its norm, whose
square is Gamma distributed and independent of the entries still to be
reduced.  So the upper bidiagonal B, the transpose of that matrix, has
independent entries whose squares are Gamma(a+n), ..., Gamma(a+1) down the
diagonal and Gamma(n-1), ..., Gamma(1) above it, and lambda_min has the
law of the Gaussian construction exactly, from 2n - 1 variates in place of
2n(n+a) normals.  It is the smallest eigenvalue of B^T B, which the
stationary qd transform (Fernando and Parlett, Numer. Math. 67 (1994) 191)
and Newton's method take from the squares, without forming a matrix (see
_smallest_eigenvalues).  The transform is mixed relatively stable, so the
value keeps high relative accuracy however small it is: against 40-digit
bisection on the same squares, over seeds 0-19, it was within 4 units of
2^-52 at n <= 50 and 17 at n = 200, where LAPACK's SVD of B was within 9
and 22 (see the tests).  At n = 1 lambda_min is the one drawn square, which
the sampler returns as drawn, so it is exact.

The Gaussian construction stays in the tests as the reference this
sampler is judged against: a two-sample Kolmogorov-Smirnov gate at
alpha = 1e-6 between the two, beside the one-sample tests against the
determinants and the closed forms.  Restricted to integer a, where that
reference exists; the model itself holds at every real a > -1.

The samples of one call draw from one counter-based Philox stream (Salmon
et al., SC11), keyed by (seed, 0) at counter 0 and read in C order: 2n - 1
Gamma variates a sample, the diagonal top down then the entries above it.
They are drawn in blocks of at most BLOCK_VARIATES variates, one
standard_gamma call and one stacked solve per block, in which each sample
stops on its own.  standard_gamma reads the stream in order, so sample i
is the same whatever the count or the block size, and a shorter sample is
a prefix of a longer one.

sample_smallest refuses a count above MAX_SAMPLE_COUNT before the first
draw.  ks_validate runs the whole check: it refuses a count below
MIN_KS_COUNT or above MAX_SAMPLE_COUNT before the CDF is made and the
first draw, then evaluates the analytic CDF on the sorted
sample in one call, with values equal bit for bit to ks_compare's one call
per sample.  At integer a that CDF is one Chebyshev interpolant of 1 - det
on [0, L], and exactly 1 past L.  A process holds one interpolant per
(a, n, m): making the first callable at that key builds it, and every
later callable shares it, a refused build included.  At non-integer a,
or where the build is refused, every value is a determinant, batched
along the s axis, and every s = 4 n t past S_MAX is refused by the
determinants' s gate (see fredholm).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, HardEdgeError, NumericError
from .fredholm import _batch, _check_m
from .kernels import finite_spec
from .quadrature import DEFAULT_NODES
from .specfun import S_MAX, _require_integer

MAX_SAMPLER_ORDER = 200
MIN_KS_COUNT = 1000

# Largest sample drawn: ks_validate(1, 20, ...) peaked at 80 bytes a
# sample at 2 * 10^5 and at 10^6 samples (tracemalloc), so at about 0.8 GB
# here.  The sorted sample and its CDF values set the peak, not the draw.
MAX_SAMPLE_COUNT = 10 ** 7

# Variates that one block of samples draws and solves at once, which bounds
# memory and the width of the solve, not the stream: 512 kB per (B, 2n - 1)
# array of their squares; 1680 samples at n = 20, 164 at n = MAX_SAMPLER_ORDER.
# Below a few hundred samples each numpy call of the solve costs about as
# much as at 1000, so a block should be wide.
BLOCK_VARIATES = 2 ** 16

# A Newton step below this fraction of x ends a sample's solve.  Newton
# converges quadratically here, so the error left after a step h is about
# h^2 (n - 1) / (lambda_2 - lambda_min): under a unit of rounding unless
# lambda_2 - lambda_min is below 2^-28 (n - 1) lambda_min.
_NEWTON_TOL = 2.0 ** -40

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
    """Smallest-eigenvalue samples (unscaled) with their generation recipe:
    values are the first samples of the (a, n) model on the one stream that
    seed keys (see the module docstring)."""

    a: int
    n: int
    seed: int
    values: np.ndarray


def _smallest_eigenvalues(squares: np.ndarray) -> np.ndarray:
    """lambda_min(B^T B) of each row of squares, the squared entries of an
    n x n upper bidiagonal B, the diagonal top down then the entries above it.

    With q the diagonal squares and e those above it, the stationary qd
    transform gives the LDL^T pivots of B^T B - x I,

        t_1 = -x,  D_k = q_k + t_k,  t_{k+1} = e_k t_k / D_k - x,

    all positive exactly when x < lambda_min.  Their x-derivatives -u_k
    (u_1 = 1, u_{k+1} = 1 + e_k q_k u_k / D_k^2) give the trace
    sum_k u_k / D_k of (B^T B - x I)^-1, and Newton's method on
    det(B^T B - x I) = prod_k D_k takes x += 1 / trace.  From x = 0 it
    rises monotonically to lambda_min.  Each row stops on its own and is
    dropped from the stack: at the first x with a pivot that is not
    positive, with that x, past lambda_min by rounding only (0 where a
    diagonal square is 0 or any square nan), or else at a step of at most
    _NEWTON_TOL x, with the step taken.  Rows share no arithmetic, so a
    row's value does not depend on the others.  At n = 1, lambda_min is the
    one square q, returned as drawn where q > 0 and as 0 elsewhere, nan
    included: a Newton step would round it to 1 / (1 / q).
    """
    if squares.shape[1] == 1:
        return np.where(squares[:, 0] > 0.0, squares[:, 0], 0.0)
    n = (squares.shape[1] + 1) // 2
    q, e = squares[:, :n].T.copy(), squares[:, n:].T.copy()
    values = np.empty(len(squares))
    rows = np.arange(len(squares))
    x = np.zeros(len(squares))
    # a pivot at or near 0 makes infinities and nan, which end the row's solve
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while len(rows):
            pivots = np.empty_like(q)
            t, u, trace = -x, np.ones_like(x), np.zeros_like(x)
            v, w = np.empty_like(x), np.empty_like(x)
            for k in range(n):
                pivot = np.add(q[k], t, out=pivots[k])
                trace += np.divide(u, pivot, out=v)
                if k < n - 1:
                    np.divide(e[k], pivot, out=w)
                    t *= w
                    t -= x
                    v *= w
                    v *= q[k]
                    np.add(v, 1.0, out=u)
            step = 1.0 / trace
            below = pivots.min(axis=0) > 0.0
            going = below & (step > _NEWTON_TOL * x)
            new = x + step
            if not going.all():
                done = ~going
                values[rows[done]] = np.where(below, new, x)[done]
                rows, q, e, new = rows[going], q[:, going], e[:, going], new[going]
            x = new
    return values


# rng is not annotated: np.random in a signature would import numpy.random
# with the package, not at the first draw
def _sample_block(rng, shapes: np.ndarray, rows: int) -> np.ndarray:
    """Smallest eigenvalues of the next `rows` samples on rng's stream: one
    standard_gamma call draws the squares of their bidiagonal entries, at
    shapes, a row each."""
    return _smallest_eigenvalues(rng.standard_gamma(shapes, size=(rows, shapes.size)))


def _sampler_arguments(a, n, count, seed) -> tuple:
    """(a, n, count, seed) as the ints sample_smallest draws with, each checked
    in that order; count in [1, MAX_SAMPLE_COUNT]."""
    return (_require_integer(a, "sampler order a", 0),
            _require_integer(n, "sampler order n", 1, MAX_SAMPLER_ORDER),
            _require_integer(count, "count", 1, MAX_SAMPLE_COUNT),
            _require_integer(seed, "seed", 0, 2 ** 64 - 1))


def sample_smallest(a, n, count, seed) -> SampleBatch:
    """Draw `count` independent smallest eigenvalues of the (n, a) ensemble."""
    a, n, count, seed = _sampler_arguments(a, n, count, seed)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    shapes = np.concatenate([np.arange(a + n, a, -1), np.arange(n - 1, 0, -1)], dtype=float)
    block = BLOCK_VARIATES // shapes.size
    values = np.concatenate([_sample_block(rng, shapes, min(block, count - start))
                             for start in range(0, count, block)])
    positive = values > 0.0  # and not nan
    if not positive.all():
        index = int(np.argmin(positive))
        raise NumericError(f"sampler produced eigenvalue {values[index]} for sample {index} "
                           f"(a={a}, n={n}, seed={seed})")
    return SampleBatch(a=a, n=n, seed=seed, values=values)


def _check_ks_count(count) -> None:
    if not count >= MIN_KS_COUNT:
        raise DomainError(f"KS comparison needs count >= {MIN_KS_COUNT}, got {count}")


def _ks_statistic(probs: np.ndarray) -> tuple[float, bool]:
    """(statistic, passed) of CDF values at the sorted sample, one per draw."""
    # written so that nan fails the range test too
    if not np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12)):
        raise DomainError("cdf callable returned values outside [0, 1]")
    ranks = np.arange(1, probs.size + 1, dtype=float)
    d_plus = float(np.max(ranks / probs.size - probs))
    d_minus = float(np.max(probs - (ranks - 1.0) / probs.size))
    statistic = max(d_plus, d_minus)
    return statistic, statistic < KS_COEFF_1PCT / math.sqrt(probs.size)


def ks_compare(batch: SampleBatch, cdf) -> tuple[float, bool]:
    """Two-sided Kolmogorov-Smirnov statistic of the batch against a CDF.

    cdf maps an eigenvalue t to P(lambda_min < t); it is called once per
    sample, in ascending order.  Passes (second return value) iff the
    statistic is below 1.63/sqrt(count), the asymptotic 1% critical value,
    with count the number of values in the batch.
    """
    ordered = np.sort(batch.values)
    _check_ks_count(ordered.size)
    return _ks_statistic(np.array([cdf(t) for t in ordered], dtype=float))


def ks_validate(a, n, count, seed, m=DEFAULT_NODES) -> tuple[float, bool]:
    """ks_compare of sample_smallest(a, n, count, seed) against
    analytic_smallest_cdf(a, n, m), bit for bit, with the CDF evaluated on
    the whole sorted sample in one call: at integer a the one interpolant
    at (a, n, m), built when the process makes its first CDF at that key,
    else one batch of determinants.  Every argument is checked before the
    first draw: count against the KS floor, then the sampler's arguments,
    count against MAX_SAMPLE_COUNT among them, then m, when the CDF is
    made."""
    _check_ks_count(count)
    arguments = _sampler_arguments(a, n, count, seed)
    cdf = analytic_smallest_cdf(a, n, m)
    return _ks_statistic(cdf(np.sort(sample_smallest(*arguments).values)))


def _survival_bound(a: float, n: int, t: float) -> float:
    """Upper bound prod_{k<n} Q(a+2k+1, t) on P(lambda_min >= t), at an
    integer a >= 0 and 0 <= t <= 700.

    In the bidiagonal model that the sampler draws (see the module
    docstring), lambda_min is the smallest eigenvalue of T = B B^T.  Each
    diagonal entry of T is the sum of the squares of a row of B, so they
    are independent Gamma(a+2k+1) for k = 0, ..., n-1, from the bottom up,
    and each bounds lambda_min from above.  At an integer p, and t <= 700
    where e^{-t} is a normal double, the regularized incomplete gamma is
    the finite sum Q(p, t) = e^{-t} sum_{j<p} t^j / j!, stopped once its
    terms fall below the rounding of the sum.
    """
    bound = 1.0
    for k in range(n):
        term = total = 1.0
        for j in range(1, int(a) + 2 * k + 1):
            term *= t / j
            total += term
            if term < 1e-17 * total and j > t:
                break
        bound *= math.exp(-t) * total
    return bound


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


@lru_cache(maxsize=128)
def _chebyshev_fit(spec, m: int) -> _Chebyshev | None:
    """The interpolant of s -> 1 - det(I - A) on [0, L] at integer a, else
    None.

    At integer a the gap probability is e^{-s/4} times a polynomial in s
    (Forrester, Log-gases and Random Matrices, 2010, ch. 8), so it is
    entire and Chebyshev interpolation converges faster than geometrically
    (Trefethen, Approximation Theory and Approximation Practice, 2013,
    ch. 8).  L is the first of 16, 32, ... (at most S_MAX) at which the
    survival falls below NEGLIGIBLE_SURVIVAL, so that the CDF is 1 past L:
    by the rigorous _survival_bound at t = L/(4n), tested first, or else by
    the m-node determinant.  The fit takes 32 first-kind points on [0, L]
    in one batch, and doubles them up to 128 until the last four
    coefficients fall below CHEBYSHEV_TAIL, which is absolute, as is the
    accuracy of the determinants (Bornemann, Math. Comp. 79 (2010) 871).  A
    refused survival or node, or a tail that stays above CHEBYSHEV_TAIL,
    gives None, and so does a non-integer a, where the law has a branch
    point at s = 0.

    Memoized per (spec, m), None included, so that a process builds, or
    refuses, each interpolant once, when analytic_smallest_cdf makes its
    first callable at that key: every caller shares the object, which is
    frozen, with its coefficients in a tuple.
    """
    if not spec.a.is_integer():
        return None
    length = 16.0
    try:
        while (_survival_bound(spec.a, spec.n, length / (4.0 * spec.n)) >= NEGLIGIBLE_SURVIVAL
               and _batch(spec, [length], m)[0].value >= NEGLIGIBLE_SURVIVAL):
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


def analytic_smallest_cdf(a, n, m=DEFAULT_NODES):
    """P(lambda_min < t) of the (n, a) ensemble from the determinant route.

    Returns a callable suitable for ks_compare.  It takes an ndarray of t
    elementwise, or a float t as the array of that t alone.  Unscaled
    eigenvalues t map to the hard-edge axis via s = 4 n t; t <= 0 gives 0
    and t = inf gives 1.  At integer a the callable is made with the
    process's one Chebyshev interpolant of 1 - det on [0, L] at m nodes for
    (a, n, m) (see _chebyshev_fit): making the first callable at that key
    builds it, and every later one shares it, or shares the refusal of its
    build.  The interpolant is then the CDF's only route: every s in (0, L]
    takes its value, clamped to [0, 1] and accurate to about 1e-14
    absolute, and every s > L takes exactly 1, since the survival is
    non-increasing in s and below 2^-54 at L.

    Without an interpolant (non-integer a, or a refused build), every s
    takes the determinant at m nodes alone, without the m+10 error
    estimate, and an array takes those as one batch along the s axis, so
    the determinants' s gate refuses s > S_MAX with DomainError.

    Values are equal bit for bit to the float calls, and an array raises
    the refusal of its first t, in input order, that is refused alone.  a,
    n and m are checked here, when the CDF is made.
    """
    spec, m = finite_spec(a, n), _check_m(m)
    fit = _chebyshev_fit(spec, m)

    def cdf(t):
        array = isinstance(t, np.ndarray)
        flat = np.ravel(t).tolist() if array else [float(t)]
        values, direct = [], {}  # direct: index -> s of each value that is a determinant
        for t_k in flat:
            s = 4.0 * spec.n * t_k
            if t_k == math.inf or s <= 0.0:
                values.append(1.0 if s > 0.0 else 0.0)
                continue
            if fit is not None and not math.isnan(s):
                values.append(fit(s))
            else:
                # a nan s too, and s > S_MAX: the determinants' s gate refuses both
                direct[len(values)] = s
                values.append(None)
        if direct:
            for k, record in zip(direct, _batch(spec, list(direct.values()), m)):
                values[k] = 1.0 - record.value
        return np.array(values, dtype=float).reshape(t.shape) if array else values[0]

    return cdf
