"""Special functions used by every kernel evaluation.

The central object is ``bessel_entire``: the power series

    j_a(z) = sum_{k>=0} (-1)^k z^k / (k! Gamma(a+k+1)),

which equals z^{-a/2} J_a(2 sqrt(z)) for z > 0 but is an entire function of
z, defined for any real order.  Writing kernels in terms of j_a removes all
fractional powers of the arguments, which is what makes spectrally accurate
quadrature possible for non-integer weight exponents.

``bessel_entire`` takes a scalar or an array of arguments.  For z > 0 it
evaluates the library Bessel function, J_a(2 sqrt(z)) exp(-(a/2) log z),
one vectorized call per argument array.  The in-house series remains for
what that route cannot do: z <= 0, and the corner near z = 0 where
J_a(2 sqrt(z)) or z^{-a/2} leaves the normal double range (large orders, or
negative orders at tiny z); there the series has no cancellation.

Laguerre polynomials come from one recurrence, in the normalized
forward-difference form of scipy.special.eval_genlaguerre.  It carries
p_k = L_k^a(t) / binom(k+a, k) and d_k = p_k - p_{k-1}:

    p_0 = 1,  d_0 = 0,  d_{k+1} = (k d_k - t p_k) / (k+a+1),  p_{k+1} = p_k + d_{k+1}.

One pass yields L_{n-1}^a and L_n^a, and also what the order-n kernel needs:
L_n^{a-1} = binom(n+a, n) (a/(n+a) p_{n-1} + d_n), without the cancelling
difference L_n^a - L_{n-1}^a, and the sum of squares sum_{k<n} w_k p_k^2 with
w_k = binom(k+a, k) / Gamma(a+1), so that k!/Gamma(k+a+1) L_k^a(t)^2 = w_k p_k^2.

On a float the pass is a plain Python loop, kept for the pair residual of
the kernels: at n = 50 it takes about 7 us, where the array branch on one
node takes about 200 us, and at n = 400 about 50 us against 1.3 ms (a
ufunc call per operation costs more than the arithmetic; medians of 31
alternated rounds, Intel Xeon, numpy 2.4).  On an array, which is where a
Nystrom assembly spends its time, it runs in place: five ufunc calls per
degree into preallocated buffers, every operand an array (k and k+a+1 as
0-d arrays), with p_k written into the rows of a block of degrees.  The
squares w_k p_k^2 are formed once per block, and the block is added to the
running total by one reduction that visits the degrees in order
k = 0, 1, 2, ..., so both branches round identically and every value is
bit-equal to the plain loop.  numpy keeps that order only while a row has
more than one entry; at a single node it would sum pairwise, so a one-node
pass accumulates its column instead.  A pass that leaves the double range
is refused with AccuracyError.

1/Gamma comes from math.gamma (_rgamma), so the finite law runs on numpy
alone and importing this package loads no scipy.  scipy.special supplies
two functions, each imported on its first call: jv, for the library route
of bessel_entire (the limit kernel and every limit-law value), and
gammaincc, for reg_upper_gamma (the Monte Carlo survival bound).
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

# The library route forms J_a(2 sqrt(z)) and z^{-a/2} separately, so both must
# stay inside the normal double range.  Near z = 0, J_a(2 sqrt(z)) follows its
# leading term z^{nu/2} / Gamma(nu+1) (nu = |a| at negative integer orders,
# where J_{-n} = (-1)^n J_n).  Scanned against a 60-digit series over orders
# -2.9..50 and z in [1e-300, 400], the route failed only where the log of
# that term or of z^{-a/2} had left [-660, 660] (subnormal results, or
# overflow); this bound keeps a margin of e^60 inside.
_LOG_RANGE = 600.0


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
    return silently degraded values.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"bessel_entire requires a finite order, got a={a!r}")
    if not isinstance(z, float):
        z = np.asarray(z, dtype=float)
        if z.ndim:
            return _bessel_entire_array(a, z)
        z = float(z)
    _check_bessel_arguments(a, z, math.isfinite(z), abs(z))
    if z > 0.0:
        log_z = np.log(z)
        if _library_route_safe(a, log_z):
            return float(_library_route(a, z, log_z))
    return _bessel_series(a, z)


def _bessel_entire_array(a: float, z: np.ndarray) -> np.ndarray:
    _check_bessel_arguments(a, z, np.all(np.isfinite(z)), np.max(np.abs(z), initial=0.0))
    positive = z > 0.0
    log_z = np.log(z, out=np.zeros_like(z), where=positive)
    library = positive & _library_route_safe(a, log_z)
    values = np.empty_like(z)
    values[library] = _library_route(a, z[library], log_z[library])
    for index in zip(*np.nonzero(~library)):
        values[index] = _bessel_series(a, float(z[index]))
    return values


def _check_bessel_arguments(a: float, z, finite: bool, largest: float) -> None:
    if not finite:
        raise DomainError(f"bessel_entire requires finite arguments, got a={a!r}, z={z!r}")
    if largest > Z_MAX:
        raise AccuracyError(
            f"bessel_entire is validated only for |z| <= {Z_MAX:g}, got |z| up to {largest!r}"
        )


def _library_route_safe(a: float, log_z):
    """Where J_a(2 sqrt(z)) and z^{-a/2} both stay far inside the double range."""
    nu = -a if a < 0.0 and a == math.floor(a) else a
    leading = 0.5 * nu * log_z - math.lgamma(nu + 1.0)
    return (abs(leading) <= _LOG_RANGE) & (abs(0.5 * a * log_z) <= _LOG_RANGE)


def _library_route(a: float, z, log_z):
    """j_a(z) = J_a(2 sqrt(z)) exp(-(a/2) log z) for z > 0, scalar or array."""
    return _jv(a, 2.0 * np.sqrt(z)) * np.exp(-0.5 * a * log_z)


def _jv(a, x):
    """scipy.special.jv.  The first call imports it and rebinds this name to
    it, so a process that never takes the library route never imports
    scipy, and later calls pay no import statement."""
    global _jv
    from scipy.special import jv as _jv
    return _jv(a, x)


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


# The ndarray pass writes p_k into the rows of a block buffer of at most
# _BLOCK_ROWS degrees and _BLOCK_ENTRIES entries (a few hundred kB, so the
# squares of a block are formed while its rows are still in cache).
_BLOCK_ROWS = 128
_BLOCK_ENTRIES = 1 << 15


def _laguerre_pass(n: int, a: float, t, weights=None, rows=None):
    """One pass of the normalized recurrence (module docstring) to degree n.

    t is a float or an ndarray.  Returns (p_{n-1}, p_n, d_n, total), where
    total = sum_{k<n} weights[k] p_k^2 for an ndarray of weights (zero when
    weights is None, and then no squares are formed); rows, if given for an
    ndarray t only, receives p_k in rows[k] for k < n.  Arguments are not
    validated here (see laguerre_pair).  A pass that leaves the double range
    is refused with AccuracyError: a non-finite p_k stays non-finite in
    every later degree, so p_n and the total decide.

    Both branches round identically, so a value does not depend on how its
    argument was batched: each degree forms d_{k+1} = (k d_k - t p_k)/(k+a+1)
    and p_{k+1} = p_k + d_{k+1}, and total = ((0 + w_0 p_0 p_0) + w_1 p_1 p_1) + ...
    On an ndarray that is five in-place ufunc calls per degree, p_k going
    into row k of a block buffer.  Per block, two array operations form the
    squares (w_k p_k) p_k and one reduction adds them to the running total,
    which heads the block, so the degrees are summed in order.  numpy
    reduces that axis row by row only while a row has more than one entry
    (a single entry would be summed pairwise), so a one-node pass
    accumulates its column instead.
    """
    if not isinstance(t, np.ndarray):
        p_prev, p, d, total = 0.0, 1.0, 0.0, 0.0
        if weights is not None:
            weights = weights[:n].tolist()  # Python floats keep the scalar loop fast
        for k in range(n):
            if weights is not None:
                total += weights[k] * p * p
            p_prev = p
            d = (k * d - t * p) / (k + a + 1.0)
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


def _laguerre_blocks(n: int, a: float, t: np.ndarray, weights, rows):
    """The ndarray branch of _laguerre_pass; every buffer row has t's shape."""
    block = max(1, min(n, _BLOCK_ROWS, _BLOCK_ENTRIES // max(t.size, 1)))
    ps = np.empty((block + 1,) + t.shape)
    ps[0] = 1.0
    p_rows = list(ps)  # row views, built once
    d = np.zeros(t.shape)
    tp = np.empty(t.shape)
    total = np.zeros(t.shape)
    if weights is not None:
        weights = weights[:n].reshape((n,) + (1,) * t.ndim)
        squares = np.empty_like(ps)
    multiply, subtract, divide, add = np.multiply, np.subtract, np.divide, np.add
    # k and k+a+1 enter as 0-d arrays, set exactly each degree: a ufunc
    # would convert a Python scalar operand again on every call
    k_op, den_op = np.empty(()), np.empty(())
    count = 0
    for start in range(0, n, block):
        if start:
            ps[0] = ps[count]  # p_start, the previous block's last row
        count = min(block, n - start)
        for k, p, p_next in zip(range(start, start + count), p_rows, p_rows[1:]):
            k_op[()] = k
            den_op[()] = k + a + 1.0
            multiply(d, k_op, d)
            multiply(t, p, tp)
            subtract(d, tp, d)
            divide(d, den_op, d)
            add(p, d, p_next)
        block_rows = ps[:count]
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
    return (ps[count - 1] if n else np.zeros(t.shape)), ps[count], d, total


def laguerre_pair(n, a, x):
    """(L_{n-1}^a(x), L_n^a(x)) from one pass of the recurrence (L_{-1} = 0).

    x may be a scalar (floats are returned) or an ndarray.  Orders a at a
    negative integer are refused: binom(k+a, k) vanishes there, so the
    normalized recurrence is undefined.  Values outside the double range
    are refused with AccuracyError, and so is every x once binom(n+a, n)
    is (large n and a: L_n^a(0) = binom(n+a, n)).
    """
    n = _require_integer(n, "laguerre degree", 0)
    a = float(a)
    arr = np.asarray(x, dtype=float)
    if not (math.isfinite(a) and np.all(np.isfinite(arr))):
        raise DomainError("laguerre requires finite arguments")
    if a < 0.0 and a == math.floor(a):
        raise DomainError(f"laguerre requires an order a that is not a negative integer, got {a!r}")
    t = float(arr) if arr.ndim == 0 else arr
    binom = _binomials(n, a)
    p_prev, p, _, _ = _laguerre_pass(n, a, t)
    with np.errstate(over="ignore"):
        pair = float(binom[max(n - 1, 0)]) * p_prev, float(binom[n]) * p
    if not all(np.isfinite(value).all() for value in pair):
        raise AccuracyError(f"L_n^a leaves the double range at n={n}, a={a!r}")
    return pair


def laguerre(n, a, x):
    """Generalized Laguerre polynomial L_n^a(x); x may be a scalar or ndarray."""
    return laguerre_pair(n, a, x)[1]


def reg_upper_gamma(p, t) -> float:
    """Regularized upper incomplete gamma Q(p, t) = Gamma(p, t) / Gamma(p)."""
    p = float(p)
    t = float(t)
    if not (math.isfinite(p) and math.isfinite(t)) or p <= 0.0 or t < 0.0:
        raise DomainError(f"reg_upper_gamma requires p > 0 and t >= 0, got p={p!r}, t={t!r}")
    return float(_gammaincc(p, t))


def _gammaincc(p, t):
    """scipy.special.gammaincc, imported on first use like _jv."""
    global _gammaincc
    from scipy.special import gammaincc as _gammaincc
    return _gammaincc(p, t)
