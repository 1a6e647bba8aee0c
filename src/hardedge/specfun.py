"""Special functions used by every kernel evaluation.

The central object is ``bessel_entire``: the power series

    j_a(z) = sum_{k>=0} (-1)^k z^k / (k! Gamma(a+k+1)),

which equals z^{-a/2} J_a(2 sqrt(z)) for z > 0 but is an entire function of
z, defined for any real order.  Writing kernels in terms of j_a removes all
fractional powers of the arguments, which is what makes spectrally accurate
quadrature possible for non-integer weight exponents.

``bessel_pair`` gives j_a and j_{a+1} together, on a scalar or an array of
arguments, from one backward (Miller) recurrence in this entire form,

    j_{nu-1}(z) = nu j_nu(z) - z j_{nu+1}(z),

run from a start order above a + 1 and above the turning point 2 sqrt(z)
down to nu0 = a - floor(a), where the Neumann series (Watson, A Treatise on
the Theory of Bessel Functions, 1944, ch. 5)

    sum_{k>=0} (nu0+2k) Gamma(nu0+k)/k! z^k j_{nu0+2k}(z) = 1

normalizes it; below nu0 (a < 0) the recurrence continues.  No square root
of z and no power z^{-a/2} is formed.  Downward, the recurrence follows the
minimal solution J_nu and damps the rest (Gautschi, SIAM Rev. 9 (1967) 24).
Routes, by argument:

    z <= 0                                  the series (all terms one sign)
    z < a^2/5 at an integer order a <= -2   the series (the recurrence cancels)
    a >= 178                                0.0 (|j_a| < 2^-1075)
    otherwise                               the recurrence

Each element starts at an order chosen from a and its own z, so an
element of an array is bit-equal to the float call at its z, however it
was batched.  The recurrence has one body (_miller) for a float and for an
array: only its pair loop above the orders a + 1 and nu0 forks, into a
Python loop on a float and in-place ufunc calls on an array, and the steps
below, the capture of j_a and j_{a+1} and the normalization are written
once.  Its factors and normalization coefficients come from one cached
table per fractional order nu0, long enough for every accepted a and z;
the array loop loads each pair's factors into reusable 0-d operands.
Against 40-digit values the pair errs by at most 2.8e-15 relative to the
envelope max(|J_nu(x)|, sqrt(2/(pi x))), x = 2 sqrt(z), at orders -0.9
to 50 over z in (0, 400], and by 2e-15 relative to itself past the
turning point.

Laguerre polynomials come from one recurrence, in the normalized
forward-difference form of scipy.special.eval_genlaguerre.  It carries
p_k = L_k^a(t) / binom(k+a, k) and d_k = p_k - p_{k-1}, with the step
coefficients alpha_k = k / den_k and beta_k = 1 / den_k, den_k = k+a+1:

    p_0 = 1,  d_0 = 0,  d_{k+1} = alpha_k d_k - (beta_k t) p_k,  p_{k+1} = p_k + d_{k+1}.

Scaling t by beta_k first keeps the step in range wherever p_{k+1} is:
p_10000(1420) = 1.85e304 at a = 1/2, where t p_k would overflow.

One pass yields L_{n-1}^a and L_n^a, and also what the order-n kernel needs:
L_n^{a-1} = binom(n+a, n) (a/(n+a) p_{n-1} + d_n), without the cancelling
difference L_n^a - L_{n-1}^a, and the sum of squares sum_{k<n} w_k p_k^2 with
w_k = binom(k+a, k) / Gamma(a+1), so that k!/Gamma(k+a+1) L_k^a(t)^2 = w_k p_k^2.

Both branches read (alpha_k, beta_k) from one cached step table per order
a and block of 128 degrees, formed from the int k, so no int becomes a
float in a loop; 128 tables (about 2 MB) are cached.  On a float the pass
is a plain Python loop, kept for the pair residual of the kernels: five
float operations a degree and no test, in one loop without weights and
one with them.  At n = 50 it takes about 3.5 us, where the array branch
on one node takes about 130 us, and at n = 400 about 26 us against
1.2 ms: a ufunc call per operation costs more than the arithmetic
(medians of 31 rounds, Intel Xeon, Python 3.11, numpy 2.4).  On an
array, which is where a Nystrom assembly spends its time, it runs in
place: (d_k, p_k) are the two rows of one buffer row per degree, and
(alpha_k, beta_k t) the two rows of a coefficient row filled once per
block of degrees, so that a degree is three ufunc calls, one multiply of
the two stacked rows, one subtract and one add, every operand an array.
The squares w_k p_k^2 are formed once per block, and the block is added
to the running total by one reduction that visits the degrees in order
k = 0, 1, 2, ..., so both branches round identically and every value is
bit-equal to the plain loop.  numpy keeps that order only while a row has
more than one entry; at a single node it would sum pairwise, so a
one-node pass accumulates its column instead.  A pass that leaves the
double range is refused with AccuracyError.

1/Gamma comes from math.gamma (_rgamma), so the library runs on numpy alone
and loads no scipy.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, NumericError

# Largest |z| accepted by bessel_entire.
Z_MAX = 400.0

# Largest kernel argument, and so the one bound on the interval end s: the
# limit kernel evaluates bessel_entire at x/4 <= Z_MAX.
S_MAX = 4.0 * Z_MAX

# Largest finite-kernel order n and Laguerre degree: each order costs a pass
# over arrays of n + 1 doubles (binomials, weights), so an order near 10^8
# asks for about a gigabyte.  finite_cdf takes about 1.4 s at n = 10^6.
MAX_ORDER = 10 ** 6

# |j_a(z)| <= 1/Gamma(a+1) for z >= 0 and a >= -1/2, and 1/Gamma(a+1) lies
# below half the least subnormal, 2^-1075, from a = 177.48 on: both values of
# the pair round to 0.
_ZERO_ORDER = 178.0

# The recurrence's start value.  From it the unnormalized values grow by at
# most 2^1220 (z = 400 below _ZERO_ORDER; 2^383 at orders below 2), so they
# stay normal doubles and no rescaling is needed.
_SEED = 2.0 ** -600


def require_order(a) -> float:
    """Validate the weight/order parameter a > -1 shared by the whole library."""
    a = float(a)
    if not math.isfinite(a) or a <= -1.0:
        raise DomainError(f"order parameter must be a finite real > -1, got {a!r}")
    return a


def _require_integer(x, what: str, low: int, high=None) -> int:
    """Validate an integer in [low, high] (high None: unbounded); integral floats
    such as 100.0 pass as ints.  The chained comparison refuses nan and +-inf
    and, unlike math.isfinite, takes ints beyond the float range."""
    if not -math.inf < x < math.inf or x != int(x) or x < low or (high is not None and x > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise DomainError(f"{what} must be an integer {bounds}, got {x!r}")
    return int(x)


def bessel_entire(a, z):
    """The entire function j_a(z) = sum_k (-1)^k z^k / (k! Gamma(a+k+1)).

    Equals z^{-a/2} J_a(2 sqrt(z)) for z > 0 and is defined for all real z
    and all real orders a (series terms sitting on Gamma poles vanish).
    z may be a scalar (a float is returned) or an array (an array of the
    same shape is returned).  Refuses |z| > Z_MAX, elementwise, rather than
    return silently degraded values.  The first value of bessel_pair.
    """
    return bessel_pair(a, z)[0]


def bessel_pair(a, z):
    """(j_a(z), j_{a+1}(z)) from one backward recurrence (module docstring).

    z may be a scalar (floats are returned) or an array (two arrays of its
    shape are returned), refused as bessel_entire refuses it.  A value does
    not depend on how its z was batched: each is bit-equal to the float
    call at that z.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"bessel_entire requires a finite order, got a={a!r}")
    if not isinstance(z, float):
        z = np.asarray(z, dtype=float)
        if z.ndim:
            return _bessel_pair_array(a, z)
        z = float(z)
    _check_bessel_arguments(a, z, abs(z))
    if z <= 0.0 or z < _series_bound(a):
        return _bessel_series(a, z), _bessel_series(a + 1.0, z)
    if a >= _ZERO_ORDER:
        return 0.0, 0.0
    return _miller(a, z)


def _bessel_pair_array(a: float, z: np.ndarray) -> tuple:
    _check_bessel_arguments(a, z, np.max(np.abs(z), initial=0.0))
    flat = z.ravel()
    bound = _series_bound(a)
    series = flat < bound if bound else flat <= 0.0
    pair = np.zeros(flat.size), np.zeros(flat.size)
    if a < _ZERO_ORDER and not series.all():
        if series.any():
            taken = np.flatnonzero(~series)
            pair[0][taken], pair[1][taken] = _miller(a, flat[taken])
        else:  # a kernel assembly: every z > 0
            pair = _miller(a, flat)
    for index in np.flatnonzero(series).tolist():  # each by its float call
        pair[0][index], pair[1][index] = bessel_pair(a, float(flat[index]))
    return pair[0].reshape(z.shape), pair[1].reshape(z.shape)


def _check_bessel_arguments(a: float, z, largest: float) -> None:
    """largest is max |z|: nan or inf if any z is."""
    if not math.isfinite(largest):
        raise DomainError(f"bessel_entire requires finite arguments, got a={a!r}, z={z!r}")
    if largest > Z_MAX:
        raise AccuracyError(
            f"bessel_entire is validated only for |z| <= {Z_MAX:g}, got |z| up to {largest!r}"
        )


def _series_bound(a: float) -> float:
    """The z below which bessel_pair takes the series at z > 0.

    At a negative integer order a = -n <= -2, j_{-n}(z) = (-z)^n j_n(z),
    which below the turning point, 2 sqrt(z) < n, is the solution that the
    recurrence continued below order 0 loses to cancellation: relative
    errors of 4e-7 at (n, z) = (10, 1) and 2e-6 at (20, 20).  Up to
    z = n^2/5 the series is accurate to 1e-15 for n <= 20 (its terms
    cancel like e^{2 sqrt(z)}), and from there on the recurrence is, to
    6e-15.  Elsewhere the bound is 0.
    """
    return 0.2 * a * a if a <= -2.0 and a.is_integer() else 0.0


def _start_offset(a: float, z):
    """The odd offset i at which the recurrence for order a starts (order
    nu0 + i), at a float z > 0 or elementwise on an array.

    Below order 2, the pair is within 5e-15 of 40-digit values, relative to
    the envelope max(|J_nu|, sqrt(2/(pi x))), from offset 4.0 + 10.4 z^{1/4}
    + 1.2 z^{1/2} on (least squares over 80 z in [1e-8, 400]); this adds
    about two steps to it: 77 at z = 400, 19 at z = 1, 7 as z -> 0.  (An
    intercept of 5 instead of 6.5 already gave 5e-14.)  Past the turning
    point, j_a and j_{a+1} are accurate relative to themselves from a third
    of that beyond a + 3.  Only sqrt and the four basic operations enter,
    each correctly rounded in numpy and in math, so an element of an array
    starts where its float call does.
    """
    if isinstance(z, float):
        root = math.sqrt(z)
        low_orders = 6.5 + 10.5 * math.sqrt(root) + 1.2 * root
        return int(max(low_orders, a + 3.0 + low_orders / 3.0)) | 1
    root = np.sqrt(z)
    low_orders = 6.5 + 10.5 * np.sqrt(root) + 1.2 * root
    return np.maximum(low_orders, a + 3.0 + low_orders / 3.0).astype(int) | 1


# Pairs in a recurrence table: every accepted call starts at an offset no
# higher than _start_offset(_ZERO_ORDER, Z_MAX) (207), since a >= _ZERO_ORDER
# takes the zero route and |z| <= Z_MAX is checked first.
_MILLER_PAIRS = _start_offset(_ZERO_ORDER, Z_MAX) // 2 + 1


@lru_cache(maxsize=128)  # about 14 kB a table
def _recurrence_table(nu0: float) -> tuple:
    """(nu0 + 2k + 1, q_k, nu0 + 2k) for k < _MILLER_PAIRS: the recurrence's
    factors at offsets 2k + 1 and 2k, and q_k = c_{k+1} / (z c_k) for the
    normalization's coefficients c_k = (nu0+2k) Gamma(nu0+k)/k! z^k, with
    c_0 = Gamma(nu0+1).  One table per fractional order nu0 serves every a
    and z: _start_offset grows with both, and below _ZERO_ORDER and up to
    Z_MAX it stays at or below 2 _MILLER_PAIRS - 1."""
    return tuple(
        (nu0 + (2 * k + 1), nu0 + 2.0 if k == 0 else
         (nu0 + (2 * k + 2)) * (nu0 + k) / ((nu0 + 2 * k) * (k + 1.0)), nu0 + 2 * k)
        for k in range(_MILLER_PAIRS)
    )


def _miller(a: float, z) -> tuple:
    """(j_a(z), j_{a+1}(z)) at a float z > 0, or elementwise on a flat
    ndarray of them: the one body of the recurrence.

    f runs down the offsets i of the orders nu0 + i, from the start offset
    (f = _SEED, and 0 above it), by f_{i-1} = (nu0+i) f_i - z f_{i+1}.  At
    every even offset 2k, total = f_{2k} + q_k (z total) adds the
    normalization sum in Horner form, so that at offset 0,
    sum_k c_k f_{2k} = Gamma(nu0+1) total.  Orders below nu0 (a < 0) take
    their steps after that.  The factors come from the one table of nu0,
    fetched once for both branches.  Above the offsets of a + 1 and 0
    (offset tail) the steps go by pairs, odd then even, with no test in the
    loop; only that loop forks, an ndarray going to _miller_pairs.  The
    steps below tail are plain arithmetic on either, in the same operations
    and order as the pair loops, so an element is bit-equal to its float
    call.
    """
    low = math.floor(a)
    nu0 = a - low
    tail = max(low + 1, 0) | 1
    table = _recurrence_table(nu0)
    if isinstance(z, float):
        top = _start_offset(a, z)
        f_next, f, total = 0.0, _SEED, 0.0
        for nu_odd, q, nu_even in table[top // 2:tail // 2:-1]:
            f, f_next = nu_odd * f - z * f_next, f
            total = f + q * (z * total)
            f, f_next = nu_even * f - z * f_next, f
    else:
        f, f_next, total = _miller_pairs(table, tail, z, _start_offset(a, z))
    stop = min(low, 0)
    for i in range(tail, stop - 1, -1):
        if i >= 0 and not i & 1:
            total = f + table[i >> 1][1] * (z * total)
        if i == low + 1:
            upper = f
        elif i == low:
            lower = f
        if i == stop:
            break
        f, f_next = (nu0 + i) * f - z * f_next, f
    norm = math.gamma(nu0 + 1.0) * total
    return lower / norm, upper / norm


def _miller_pairs(table: tuple, tail: int, z: np.ndarray, tops: np.ndarray) -> tuple:
    """_miller's pair loop on a flat ndarray z > 0 whose elements start at
    offsets tops, with the factors of table (_recurrence_table): (f, f_next,
    total) at offset tail, elementwise as the float loop leaves them.

    Every element runs down from the largest start offset.  Above its own
    it stays exactly 0 (0 nu - z 0 = 0), and there it takes _SEED, so it
    starts with the values its float call starts with.  A step is three
    ufunc calls and a Horner step three more, each in the float loop's
    order of operations.  The pairs of steps alternate two buffers, so none
    is copied.
    """
    # starts[i]: how many elements start at offset i
    starts = np.bincount(tops).tolist()
    fs, nexts, totals, products = (np.zeros(z.size) for _ in range(4))
    multiply, subtract, add = np.multiply, np.subtract, np.add
    # a pair's three factors enter as 0-d arrays, set exactly each pair: a
    # ufunc would convert a Python scalar operand again on every call
    nu_odd, q, nu_even = np.empty(()), np.empty(()), np.empty(())
    for k in range((len(starts) - 1) // 2, tail // 2, -1):
        if starts[2 * k + 1]:
            fs[tops == 2 * k + 1] = _SEED
        nu_odd[()], q[()], nu_even[()] = table[k]
        multiply(z, nexts, nexts)
        multiply(fs, nu_odd, products)
        subtract(products, nexts, nexts)
        multiply(z, totals, totals)
        multiply(totals, q, totals)
        add(nexts, totals, totals)
        multiply(z, fs, fs)
        multiply(nexts, nu_even, products)
        subtract(products, fs, fs)
    return fs, nexts, totals


def _rgamma(x: float) -> float:
    """1/Gamma(x) from math.gamma, with the values of scipy.special.rgamma
    where Gamma(x) has a pole or leaves the double range: 0 at x = 0, -1,
    -2, ... and at x > 171.62, x itself at |x| < 5.6e-309 (1/Gamma(x) =
    x + O(x^2)), and a signed infinity where Gamma(x) is subnormal or zero
    (x < -171).

    On [2, 6), Gamma(x) = (x-1) Gamma(x-1) first brings x into [1, 2), where
    math.gamma is most accurate: against 30-digit values at 4000 random x
    per interval, the mean error on [2, 6) falls from 1.1-1.3 ulp to
    0.95-1.0 and the largest from 7 to 6, and 1/Gamma(a+1) comes out
    correctly rounded at a = 1.5, 2.5 (not beyond 6: the rounding of the
    product outgrows the gain).
    """
    scale = 1.0
    while 2.0 <= x < 6.0:
        x -= 1.0
        scale *= x
    try:
        gamma = math.gamma(x)
    except ValueError:
        return 0.0
    except OverflowError:
        return x if abs(x) < 1.0 else 0.0
    if gamma == 0.0:
        return math.copysign(math.inf, gamma)
    return 1.0 / (scale * gamma)


def _bessel_series(a: float, z: float) -> float:
    # First index from which the term recurrence is pole-free (a + k + 1 >= 1).
    k0 = max(0, int(math.ceil(-a)) + 1)
    total = 0.0
    zk = 1.0
    factorial = 1.0
    sign = 1.0
    for k in range(k0):
        # 1/Gamma vanishes at the poles a + k + 1 = 0, -1, -2, ...
        total += sign * zk * _rgamma(a + k + 1.0) / factorial
        zk *= z
        factorial *= k + 1.0
        sign = -sign
    term = sign * zk * _rgamma(a + k0 + 1.0) / factorial
    k = k0
    consecutive_small = 0
    while True:
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1e-300):
            consecutive_small += 1
            if consecutive_small >= 3:
                return total
        else:
            consecutive_small = 0
        # Gamma(a+k+2) = (a+k+1) Gamma(a+k+1); k0 keeps a+k+1 >= 1 here
        term *= -z / ((k + 1.0) * (a + k + 1.0))
        k += 1
        if k > 1000:
            raise NumericError(f"bessel_entire series stalled at a={a!r}, z={z!r}")


@lru_cache(maxsize=128)
def _binomials(n: int, a: float) -> np.ndarray:
    """binom(k+a, k) for k = 0..n, as the running product of (k+a)/k.

    scipy.special.binom takes a non-integer a through a log-gamma
    difference, which loses about 1e-12 relative at n = 1000; the product
    stays near 1e-14.  (n, a) repeats across calls, so the array is cached
    and write-protected.  A product that leaves the double range (large a
    and n, such as n = 10^4 at a = 200) is refused with AccuracyError: once
    infinite, every later entry stays infinite, so the last one decides.
    """
    k = np.arange(1.0, n + 1.0)
    with np.errstate(over="ignore"):
        binom = np.concatenate(([1.0], np.cumprod((k + a) / k)))
    if not math.isfinite(binom[-1]):
        raise AccuracyError(f"binom(n+a, n) leaves the double range at n={n}, a={a!r}")
    binom.setflags(write=False)
    return binom


def _laguerre_weights(n: int, a: float) -> np.ndarray:
    """w_k = binom(k+a, k) / Gamma(a+1) = k!/Gamma(k+a+1) binom(k+a, k)^2, k = 0..n."""
    return _binomials(n, a) * _rgamma(a + 1.0)


# Degrees per step table, and the most per block of the ndarray pass.  A
# block of that pass holds (d_k, p_k) and (alpha_k, beta_k t) for each of
# its degrees; _block_rows sizes it by the doubles its buffers may hold.
_BLOCK_ROWS = 128
_BLOCK_ENTRIES = 1 << 14
_MIN_ROWS = 32
_MAX_ENTRIES = 1 << 17


@lru_cache(maxsize=128)  # about 16 kB a block
def _step_table(a: float, block: int) -> tuple:
    """The step coefficients (alpha_k, beta_k) = (k / den_k, 1 / den_k),
    den_k = (k + a) + 1.0, for the degrees k of one block of _BLOCK_ROWS,
    block * _BLOCK_ROWS on: (pairs, alphas, betas), a tuple of float pairs
    for the float pass and two read-only arrays of the same doubles for
    the ndarray pass.  den_k is formed from the int k, as the reference
    loop of the tests forms it (at a = 1/3, k + (a + 1.0) would differ)."""
    k = np.arange(block * _BLOCK_ROWS, (block + 1) * _BLOCK_ROWS)
    den = k + a + 1.0
    alphas, betas = k / den, 1.0 / den
    alphas.setflags(write=False)
    betas.setflags(write=False)
    return tuple(zip(alphas.tolist(), betas.tolist())), alphas, betas


def _laguerre_pass(n: int, a: float, t, weights=None, rows=None):
    """One pass of the normalized recurrence (module docstring) to degree n.

    t is a float or an ndarray.  Returns (p_{n-1}, p_n, d_n, total), where
    total = sum_{k<n} weights[k] p_k^2 for an ndarray of weights (zero when
    weights is None, and then no squares are formed); rows, if given for an
    ndarray t only, receives p_k in rows[k] for k < n.  Arguments are not
    validated here (see laguerre).  A pass that leaves the double range
    is refused with AccuracyError: a non-finite p_k stays non-finite in
    every later degree, so p_n and the total decide.

    Both branches round identically, so a value does not depend on how its
    argument was batched: each degree forms d_{k+1} = alpha_k d_k - (beta_k t) p_k
    and p_{k+1} = p_k + d_{k+1}, and total = ((0 + w_0 p_0 p_0) + w_1 p_1 p_1) + ...
    On a float that is a loop with weights or one without, each reading
    (alpha_k, beta_k) from the _step_table blocks of its a: five float
    operations a degree and no test (about 26 us at n = 400 without
    weights, 59 us with them).  On an ndarray it is _laguerre_blocks, three
    in-place ufunc calls a degree.
    """
    if not isinstance(t, np.ndarray):
        p_prev, p, d, total = 0.0, 1.0, 0.0, 0.0
        if weights is not None:
            weights = iter(weights[:n].tolist())  # Python floats keep the loop fast
        for start in range(0, n, _BLOCK_ROWS):
            table = _step_table(a, start // _BLOCK_ROWS)[0][:n - start]
            if weights is None:
                for alpha, beta in table:
                    p_prev = p
                    d = alpha * d - beta * t * p
                    p = p + d
            else:
                for (alpha, beta), w in zip(table, weights):
                    total += w * p * p
                    p_prev = p
                    d = alpha * d - beta * t * p
                    p = p + d
        finite = math.isfinite(p) and math.isfinite(total)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            p_prev, p, d, total = _laguerre_blocks(n, a, t, weights, rows)
        finite = np.isfinite(p).all() and np.isfinite(total).all()
    if not finite:
        raise AccuracyError(
            f"the Laguerre recurrence to degree {n} at a={a!r} leaves the double range"
        )
    return p_prev, p, d, total


def _block_rows(n: int, size: int) -> int:
    """Degrees per block of the ndarray pass to degree n over size nodes.

    A power of two, so that a block lies within one step table: the most
    rows, up to _BLOCK_ROWS, whose (rows + 1, 2, size) buffer holds at
    most _BLOCK_ENTRIES doubles (128 kB); where that is fewer than
    _MIN_ROWS, _MIN_ROWS or as many as _MAX_ENTRIES doubles (1 MB) hold;
    never more than n, and at least 1.  Under 128 kB, glibc serves a
    buffer from the heap, where it is reused from pass to pass; above it,
    a pass may map fresh pages and fault on them (blocks of 128 degrees,
    227 kB at 110 nodes, took 78 minor faults per finite_cdf(0.5, 1000, s)
    call, against none).  So the 110 nodes of a finite_cdf determinant (m
    and m + 10) get blocks of 64 degrees, and up to 63 nodes get 128.  The
    fill of a block and its squares cost a few ufunc calls whatever its
    length, which a block of fewer than 32 degrees no longer amortizes:
    from 249 nodes on, blocks keep 32 degrees in buffers over 128 kB, and
    from 1986 on, fewer in buffers of at most 1 MB.
    """
    row = 2 * max(size, 1)
    rows = _BLOCK_ENTRIES // row - 1
    if rows < _MIN_ROWS:
        rows = min(_MIN_ROWS, _MAX_ENTRIES // row - 1)
    return max(1, min(n, _BLOCK_ROWS, 1 << (max(rows, 1).bit_length() - 1)))


def _laguerre_blocks(n: int, a: float, t: np.ndarray, weights, rows):
    """The ndarray branch of _laguerre_pass; every buffer row has t's shape.

    steps[i] holds (d_k, p_k) for the degree k = start + i of a block and
    coefficients[i] holds (alpha_k, beta_k t), filled once per block from
    the step table, so a degree is one multiply of those two (2, ...) rows
    into steps[i + 1], giving (alpha_k d_k, (beta_k t) p_k), one subtract
    into d_{k+1} and one add into p_{k+1}: three ufunc calls, every operand
    a row view built once per pass.  Per block, two array operations form
    the squares (w_k p_k) p_k in the coefficient buffer and one reduction
    adds them to the running total, which heads the block, so the degrees
    are summed in order.  numpy reduces that axis row by row only while a
    row has more than one entry (a single entry would be summed pairwise),
    so a one-node pass accumulates its column instead.
    """
    block = _block_rows(n, t.size)
    across = (None,) * t.ndim  # a block's coefficient column, broadcast over t
    steps = np.empty((block + 1, 2) + t.shape)
    coefficients = np.empty((block, 2) + t.shape)
    step_rows, coefficient_rows = list(steps), list(coefficients)  # views, built once
    halves = list(steps.reshape((2 * block + 2,) + t.shape))
    d_rows, p_rows = halves[0::2], halves[1::2]
    d_rows[0].fill(0.0)
    p_rows[0].fill(1.0)
    total = np.zeros(t.shape)
    if weights is not None:
        weights = weights[(slice(n),) + across]
        # a block's squares go where its coefficients were
        squares = coefficients.reshape((2 * block,) + t.shape)
    multiply, subtract, add = np.multiply, np.subtract, np.add
    count = 0
    for start in range(0, n, block):
        if start:
            steps[0] = steps[count]  # (d_start, p_start), the previous block's last row
        count = min(block, n - start)
        _, alphas, betas = _step_table(a, start // _BLOCK_ROWS)
        degrees = (slice(start % _BLOCK_ROWS, start % _BLOCK_ROWS + count),) + across
        coefficients[:count, 0] = alphas[degrees]
        multiply(betas[degrees], t, coefficients[:count, 1])
        for coefficient, step, step_next, d_next, p, p_next in zip(
                coefficient_rows[:count], step_rows, step_rows[1:], d_rows[1:], p_rows, p_rows[1:]):
            multiply(coefficient, step, step_next)  # (alpha_k d_k, (beta_k t) p_k)
            subtract(d_next, p_next, d_next)
            add(p, d_next, p_next)
        block_rows = steps[:count, 1]
        if weights is not None:
            running = squares[:count + 1]
            running[0] = total
            block_squares = running[1:]
            multiply(weights[start:start + count], block_rows, block_squares)
            multiply(block_squares, block_rows, block_squares)
            if t.size > 1:
                add.reduce(running, axis=0, out=total)
            else:
                add.accumulate(running, axis=0, out=running)
                total[...] = running[-1]
        if rows is not None:
            rows[start:start + count] = block_rows
    return (p_rows[count - 1] if n else np.zeros(t.shape)), p_rows[count], d_rows[count], total


def laguerre(n, a, x):
    """Generalized Laguerre polynomial L_n^a(x) from one pass of the recurrence.

    x may be a scalar (a float is returned) or an ndarray.  Orders a at a
    negative integer are refused: binom(k+a, k) vanishes there, so the
    normalized recurrence is undefined.  Values outside the double range
    are refused with AccuracyError, and so is every x once binom(n+a, n)
    is (large n and a: L_n^a(0) = binom(n+a, n)).
    """
    n = _require_integer(n, "laguerre degree", 0, MAX_ORDER)
    a = float(a)
    arr = np.asarray(x, dtype=float)
    if not (math.isfinite(a) and np.all(np.isfinite(arr))):
        raise DomainError("laguerre requires finite arguments")
    if a < 0.0 and a == math.floor(a):
        raise DomainError(f"laguerre requires an order a that is not a negative integer, got {a!r}")
    _, p, _, _ = _laguerre_pass(n, a, float(arr) if arr.ndim == 0 else arr)
    with np.errstate(over="ignore"):
        value = float(_binomials(n, a)[n]) * p
    if not np.isfinite(value).all():
        raise AccuracyError(f"L_n^a leaves the double range at n={n}, a={a!r}")
    return value
