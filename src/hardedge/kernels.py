"""Projection kernels in pre-multiplied entire form.

Every kernel here carries the conjugating factor (xy)^{-a/2} already worked
into the formula, so no fractional power of x or y is ever evaluated and all
expressions extend to entire functions of both arguments.  Determinants of
these kernels must therefore be taken on L^2((0,s); x^a dx), which is what
the fredholm module does with the Gauss-Jacobi rules.

Limit kernel (with u = x/4, v = y/4 and j the entire Bessel-type series):

    Khat(x, y) = 4^{-a-1} [j_a(u) j_{a-1}(v) - j_{a-1}(u) j_a(v)] / (u - v)

whose confluent (diagonal) value follows from d/du j_a(u) = -j_{a+1}(u):

    Khat(x, x) = 4^{-a-1} [j_a(u)^2 - j_{a-1}(u) j_{a+1}(u)].

Order-n kernel under the hard-edge change of variables X = rho * x:

    Khat_n(x, y) = n!/Gamma(n+a) * rho^a e^{-rho(x+y)/2}
                   [L_n^a(rho x) L_n^{a-1}(rho y) - L_n^{a-1}(rho x) L_n^a(rho y)] / (x - y)

with L_n^{a-1} = L_n^a - L_{n-1}^a, and the diagonal evaluated through the
exact sum of squares rho^{a+1} e^{-rho x} sum_{k<n} k!/Gamma(k+a+1) L_k^a(rho x)^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import Z_MAX, _laguerre_terms, bessel_entire, laguerre_pair, log_gamma, require_order

# Relative |x - y| below which the confluent branch replaces the divided
# difference (the closed forms lose roughly |x-y|^{-1} digits there).  The
# branch evaluates the diagonal formula at the pair midpoint, which is
# accurate to O(|x-y|^2) by symmetry.
NEAR_DIAGONAL_RTOL = 1e-6

_FAMILIES = ("bessel", "finite")


@dataclass(frozen=True)
class KernelSpec:
    """Identifies one kernel: the limit family, or an order-n family member.

    For the finite family the hard-edge change of variables is X = rho * x
    with rho = scale:

      * c is None  -> rho = 1/(4n), the plain hard-edge scaling;
      * c given    -> rho = (1 - (a+c)/(2n)) / (4n), the modified family
                      (c = 0 is the optimally tuned member, c = -a matches
                      the plain scaling up to second order).
    """

    a: float
    family: str
    n: int | None = None
    c: float | None = None

    def __post_init__(self):
        require_order(self.a)
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if self.family == "finite":
            if self.n is None or self.n != int(self.n) or self.n < 1:
                raise DomainError(f"finite kernel needs integer order n >= 1, got {self.n!r}")
            if self.c is not None and not math.isfinite(self.c):
                raise DomainError(f"scaling parameter c must be finite, got {self.c!r}")
            if self.scale <= 0.0:
                raise DomainError(
                    f"scaling (1 - (a+c)/(2n))/(4n) must stay positive, got a={self.a!r}, "
                    f"n={self.n!r}, c={self.c!r}"
                )
        elif self.n is not None or self.c is not None:
            raise DomainError("limit kernel takes neither n nor c")

    @property
    def scale(self) -> float:
        """dX/dx of the change of variables (finite family only)."""
        if self.family != "finite":
            raise DomainError("scale is defined for the finite family only")
        if self.c is None:
            return 1.0 / (4.0 * self.n)
        return (1.0 - (self.a + self.c) / (2.0 * self.n)) / (4.0 * self.n)


def bessel_spec(a) -> KernelSpec:
    """Spec for the hard-edge limit kernel with parameter a."""
    return KernelSpec(a=float(a), family="bessel")


def _require_n(n) -> int:
    """Validate an order n; integral floats such as 100.0 pass as ints."""
    if not math.isfinite(n) or n != int(n) or n < 1:
        raise DomainError(f"order n must be an integer >= 1, got {n!r}")
    return int(n)


def finite_spec(a, n, c=None) -> KernelSpec:
    """Spec for the order-n kernel; c=None selects the plain scaling x/(4n)."""
    c = None if c is None else float(c)
    return KernelSpec(a=float(a), family="finite", n=_require_n(n), c=c)


def _near_diagonal(x: float, y: float) -> bool:
    # symmetric in (x, y) so that both orderings take the same branch
    return abs(x - y) < NEAR_DIAGONAL_RTOL * max(1.0, abs(x), abs(y))


def _check_range(a: float, x: float, y: float) -> None:
    if not (math.isfinite(x) and math.isfinite(y)) or x < 0.0 or y < 0.0:
        raise DomainError(f"kernel arguments must be finite and >= 0, got ({x!r}, {y!r})")
    if max(x, y) > 4.0 * Z_MAX:
        raise DomainError(f"kernel arguments must lie in [0, {4.0 * Z_MAX:g}]")


def _bessel_offdiag(a: float, ja_u, jm_u, ja_v, jm_v, gap):
    """Limit kernel from j_a, j_{a-1} at u = x/4 and v = y/4, gap = u - v.

    Takes scalars or broadcasting arrays, so the pointwise kernel and
    kernel_matrix share this one formula.
    """
    return 4.0 ** (-a - 1.0) * (ja_u * jm_v - jm_u * ja_v) / gap


def _bessel_confluent(a: float, ja, jm, jp):
    """Confluent limit kernel from j_a, j_{a-1}, j_{a+1} at one point u."""
    return 4.0 ** (-a - 1.0) * (ja * ja - jm * jp)


def bessel_kernel_entire(a, x, y) -> float:
    """(xy)^{-a/2}-premultiplied limit kernel, entire in both arguments."""
    a = require_order(a)
    x = float(x)
    y = float(y)
    _check_range(a, x, y)
    if _near_diagonal(x, y):
        u = 0.125 * (x + y)
        return _bessel_confluent(
            a, bessel_entire(a, u), bessel_entire(a - 1.0, u), bessel_entire(a + 1.0, u)
        )
    u = 0.25 * x
    v = 0.25 * y
    return _bessel_offdiag(
        a, bessel_entire(a, u), bessel_entire(a - 1.0, u),
        bessel_entire(a, v), bessel_entire(a - 1.0, v), u - v,
    )


def _finite_log_prefactor(a: float, n: int, rho: float) -> float:
    # n! / Gamma(n+a) * rho^a, assembled in the log domain
    return log_gamma(n + 1.0) - log_gamma(n + a) + a * math.log(rho)


def _finite_diag(spec: KernelSpec, x):
    """Diagonal of the order-n entire kernel at x (a float or an ndarray).

    Uses the exact sum of squares over all degrees below n; O(n) per point
    but unconditionally stable, and valid at x = 0.
    """
    a, n, rho = spec.a, spec.n, spec.scale
    t = x * rho
    total = np.zeros_like(t) if isinstance(t, np.ndarray) else 0.0
    coeff = math.exp(-log_gamma(a + 1.0))  # k!/Gamma(k+a+1) at k = 0
    for k, lk in enumerate(_laguerre_terms(n - 1, a, t)):
        total += coeff * lk * lk
        coeff *= (k + 1.0) / (k + a + 1.0)
    return rho ** (a + 1.0) * np.exp(-x * rho) * total


def laguerre_kernel_entire(spec: KernelSpec, x, y) -> float:
    """(xy)^{-a/2}-premultiplied order-n kernel under the scaling X = rho x."""
    if spec.family != "finite":
        raise DomainError("laguerre_kernel_entire needs a finite-family KernelSpec")
    x = float(x)
    y = float(y)
    _check_range(spec.a, x, y)
    if _near_diagonal(x, y):
        return float(_finite_diag(spec, 0.5 * (x + y)))
    a, n, rho = spec.a, spec.n, spec.scale
    # one recurrence pass per argument, in float arithmetic
    pm_x, pn_x = laguerre_pair(n, a, rho * x)
    pm_y, pn_y = laguerre_pair(n, a, rho * y)
    # contiguous relation: L_n^{a-1} = L_n^a - L_{n-1}^a
    qn_x = pn_x - pm_x
    qn_y = pn_y - pm_y
    pref = math.exp(_finite_log_prefactor(a, n, rho) - 0.5 * rho * (x + y))
    return pref * (pn_x * qn_y - qn_x * pn_y) / (x - y)


def kernel_value(spec: KernelSpec, x, y) -> float:
    """Pointwise entire kernel for either family."""
    if spec.family == "bessel":
        return bessel_kernel_entire(spec.a, x, y)
    return laguerre_kernel_entire(spec, x, y)


def hat_bessel_j(a, x):
    """x^{-a/2} J_a(sqrt(x)) continued through x = 0, i.e. 2^{-a} j_a(x/4).

    x may be a scalar or an array.
    """
    a = require_order(a)
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        x = x if x.ndim else float(x)
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise DomainError(f"hat_bessel_j requires finite x >= 0, got {x!r}")
    return 2.0 ** (-a) * bessel_entire(a, 0.25 * x)


def correction_kernel(a, x, y) -> float:
    """Rank-one first-order correction kernel hat_j_a(x) * hat_j_a(y)."""
    return hat_bessel_j(a, x) * hat_bessel_j(a, y)


def kernel_expansion_residual(a, n, c, x, y) -> float:
    """Pointwise deviation of the scaled order-n kernel from its limit plus
    first-order rank-one correction:

        Khat_n(x, y) - [Khat(x, y) - c/(8n) hat_j_a(x) hat_j_a(y)],

    which decays like n^{-2} for bounded arguments.
    """
    spec = finite_spec(a, n, c=float(c))
    return (
        laguerre_kernel_entire(spec, x, y)
        - bessel_kernel_entire(a, x, y)
        + (float(c) / (8.0 * n)) * correction_kernel(a, x, y)
    )


def kernel_matrix(spec: KernelSpec, nodes: np.ndarray, hat_j_out=None) -> np.ndarray:
    """Entire kernel sampled on a node set, as a dense symmetric matrix.

    Off-diagonal entries come from the closed forms; entries whose arguments
    fall inside the near-diagonal window (including the diagonal itself) use
    the confluent branch at the pair midpoint.  For the limit family, an
    array passed as hat_j_out receives hat_j_a at the nodes, which the
    assembly has computed anyway (the resolvent right-hand side).
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("kernel_matrix needs a one-dimensional, non-empty node array")
    if np.any(x < 0.0) or np.any(x > 4.0 * Z_MAX) or not np.all(np.isfinite(x)):
        raise DomainError(f"kernel nodes must lie in [0, {4.0 * Z_MAX:g}]")
    gap = np.abs(x[:, None] - x[None, :])
    scale = np.maximum(1.0, np.maximum(np.abs(x)[:, None], np.abs(x)[None, :]))
    near = gap < NEAR_DIAGONAL_RTOL * scale

    if spec.family == "bessel":
        a = spec.a
        m = x.size
        u = 0.25 * x
        # At the diagonal the pair midpoint is the node itself; other pairs in
        # the window add their midpoints to the points j is evaluated at.
        rows, cols = np.nonzero(near & ~np.eye(m, dtype=bool))
        points = np.concatenate((u, 0.125 * (x[rows] + x[cols])))
        ja = bessel_entire(a, points)
        jm = bessel_entire(a - 1.0, points)
        jp = bessel_entire(a + 1.0, points)
        den = u[:, None] - u[None, :]
        den[near] = 1.0
        matrix = _bessel_offdiag(a, ja[:m, None], jm[:m, None], ja[None, :m], jm[None, :m], den)
        confluent = _bessel_confluent(a, ja, jm, jp)
        np.fill_diagonal(matrix, confluent[:m])
        matrix[rows, cols] = confluent[m:]
        if hat_j_out is not None:
            hat_j_out[:] = 2.0 ** (-a) * ja[:m]
        return matrix

    a, n, rho = spec.a, spec.n, spec.scale
    pm, pn = laguerre_pair(n, a, rho * x)
    qn = pn - pm
    half = np.exp(_finite_log_prefactor(a, n, rho) / 2.0 - 0.5 * rho * x)
    num = pn[:, None] * qn[None, :] - qn[:, None] * pn[None, :]
    den = x[:, None] - x[None, :]
    den[near] = 1.0
    matrix = half[:, None] * half[None, :] * num / den
    rows, cols = np.nonzero(near)
    if rows.size:
        matrix[rows, cols] = _finite_diag(spec, 0.5 * (x[rows] + x[cols]))
    return matrix
