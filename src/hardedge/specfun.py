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

The remaining routines are standard numerics: the generalized Laguerre
recurrence (one pass yields L_{n-1}^a and L_n^a) and the orthonormal
Laguerre functions with log-domain normalization.  Log-gamma, 1/Gamma and
the regularized upper incomplete gamma are the library functions behind
argument checks.
"""

import math

import numpy as np
from scipy import special as _sp

from .errors import AccuracyError, DomainError, NumericError, SingularPointError

# Largest |z| accepted by bessel_entire; kernel arguments x = 4z stay <= 1600.
Z_MAX = 400.0

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


def log_gamma(x) -> float:
    """ln Gamma(x) for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


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
    return _sp.jv(a, 2.0 * np.sqrt(z)) * np.exp(-0.5 * a * log_z)


def _bessel_series(a: float, z: float) -> float:
    # First index from which the term recurrence is pole-free (a + k + 1 >= 1).
    k0 = max(0, int(math.ceil(-a)) + 1)
    total = 0.0
    zk = 1.0
    factorial = 1.0
    sign = 1.0
    for k in range(k0):
        # 1/Gamma vanishes at the poles a + k + 1 = 0, -1, -2, ...
        total += sign * zk * float(_sp.rgamma(a + k + 1.0)) / factorial
        zk *= z
        factorial *= k + 1.0
        sign = -sign
    term = sign * zk * float(_sp.rgamma(a + k0 + 1.0)) / factorial
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


def bessel_j_sqrt(a, x) -> float:
    """J_a(sqrt(x)) for x >= 0, evaluated as (x/4)^{a/2} j_a(x/4)."""
    a = float(a)
    x = float(x)
    if not (math.isfinite(a) and math.isfinite(x)) or x < 0.0:
        raise DomainError(f"bessel_j_sqrt requires finite x >= 0, got a={a!r}, x={x!r}")
    if x == 0.0:
        if a > 0.0:
            return 0.0
        if a == 0.0:
            return 1.0
        raise SingularPointError(
            f"J_a(sqrt(x)) diverges at x = 0 for negative order a={a!r}"
        )
    u = 0.25 * x
    return math.exp(0.5 * a * math.log(u)) * bessel_entire(a, u)


def _laguerre_terms(n, a, t):
    """Yield L_0^a(t), ..., L_n^a(t) by the ascending three-term recurrence.

    t is a float or an ndarray; the same arithmetic runs on either, so a
    value does not depend on how its argument was batched.  Arguments are
    not validated here (see laguerre_pair).
    """
    prev = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    yield prev
    if n == 0:
        return
    curr = 1.0 + a - t
    yield curr
    for k in range(1, n):
        prev, curr = curr, ((2.0 * k + 1.0 + a - t) * curr - (k + a) * prev) / (k + 1.0)
        yield curr


def laguerre_pair(n, a, x):
    """(L_{n-1}^a(x), L_n^a(x)) from one pass of the recurrence (L_{-1} = 0).

    x may be a scalar (floats are returned) or an ndarray.
    """
    if n != int(n) or n < 0:
        raise DomainError(f"laguerre degree must be a nonnegative integer, got {n!r}")
    n = int(n)
    a = float(a)
    arr = np.asarray(x, dtype=float)
    if not (math.isfinite(a) and np.all(np.isfinite(arr))):
        raise DomainError("laguerre requires finite arguments")
    t = float(arr) if arr.ndim == 0 else arr
    prev = curr = np.zeros_like(t) if arr.ndim else 0.0
    for value in _laguerre_terms(n, a, t):
        prev, curr = curr, value
    return prev, curr


def laguerre(n, a, x):
    """Generalized Laguerre polynomial L_n^a(x); x may be a scalar or ndarray."""
    return laguerre_pair(n, a, x)[1]


def laguerre_phi(k, a, x):
    """Orthonormal Laguerre function

        phi_k(x) = sqrt(k! / Gamma(k+a+1)) e^{-x/2} x^{a/2} L_k^a(x),

    with the normalization assembled in the log domain so that degrees up to
    10^4 evaluate without overflow.  Requires x > 0 (the x^{a/2} factor is
    singular at 0 for non-integer a); x may be a scalar or ndarray.
    """
    if k != int(k) or k < 0:
        raise DomainError(f"laguerre_phi degree must be a nonnegative integer, got {k!r}")
    k = int(k)
    a = require_order(a)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("laguerre_phi requires finite x > 0")
    log_norm = 0.5 * (log_gamma(k + 1.0) - log_gamma(k + a + 1.0))
    vals = np.exp(log_norm - 0.5 * arr + 0.5 * a * np.log(arr)) * laguerre(k, a, arr)
    return float(vals[0]) if scalar else vals


def reg_upper_gamma(p, t) -> float:
    """Regularized upper incomplete gamma Q(p, t) = Gamma(p, t) / Gamma(p)."""
    p = float(p)
    t = float(t)
    if not (math.isfinite(p) and math.isfinite(t)) or p <= 0.0 or t < 0.0:
        raise DomainError(f"reg_upper_gamma requires p > 0 and t >= 0, got p={p!r}, t={t!r}")
    return float(_sp.gammaincc(p, t))
