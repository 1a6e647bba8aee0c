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

Both are evaluated in j_a and j_{a+1} alone: the recurrence
z j_{a+1}(z) = a j_a(z) - j_{a-1}(z) removes j_{a-1} and with it the
cancelling a j_a(u) j_a(v) terms, which cost digits at small arguments:

    Khat(x, y) = 4^{-a-1} [u j_{a+1}(u) j_a(v) - v j_a(u) j_{a+1}(v)] / (u - v),
    Khat(x, x) = 4^{-a-1} [j_a(u) (j_a(u) - a j_{a+1}(u)) + u j_{a+1}(u)^2].

Order-n kernel under the hard-edge change of variables X = rho * x:

    Khat_n(x, y) = n!/Gamma(n+a) * rho^a e^{-rho(x+y)/2}
                   [L_n^a(rho x) L_n^{a-1}(rho y) - L_n^{a-1}(rho x) L_n^a(rho y)] / (x - y).

With p_k = L_k^a / binom(k+a, k), d_k = p_k - p_{k-1} and
w_k = binom(k+a, k) / Gamma(a+1) (see specfun), L_n^a = binom(n+a, n) p_n and
L_n^{a-1} = binom(n+a, n) (a/(n+a) p_{n-1} + d_n), so the constant in front
becomes n!/Gamma(n+a) binom(n+a, n)^2 = (n+a) w_n and no gamma ratio is
formed.  The diagonal is the exact sum of squares

    Khat_n(x, x) = rho^{a+1} e^{-rho x} sum_{k<n} w_k p_k(rho x)^2.

One recurrence pass over a node vector yields p_n, p_{n-1}, d_n and the sum.

A kernel matrix therefore costs two vector j calls (limit family) or one
recurrence pass (order-n family) over its nodes, plus the midpoints of node
pairs that fall inside the near-diagonal window.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import (S_MAX, _binomials, _laguerre_pass, _laguerre_weights, _require_integer,
                      bessel_entire, require_order)

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
                      (c = 0 is the optimally tuned member; c = -a gives
                      exactly the plain scaling, since a + (-a) = 0.0).
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
            if self.n is None:
                raise DomainError("finite kernel needs an order n")
            # frozen: store an integral float such as 5.0 as the int 5
            object.__setattr__(self, "n", _require_integer(self.n, "order n", 1))
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


def finite_spec(a, n, c=None) -> KernelSpec:
    """Spec for the order-n kernel; c=None selects the plain scaling x/(4n)."""
    c = None if c is None else float(c)
    return KernelSpec(a=float(a), family="finite", n=n, c=c)


def _near_diagonal(x: float, y: float) -> bool:
    # symmetric in (x, y) so that both orderings take the same branch
    return abs(x - y) < NEAR_DIAGONAL_RTOL * max(1.0, abs(x), abs(y))


def _check_range(x: float, y: float) -> None:
    if not (math.isfinite(x) and math.isfinite(y)) or x < 0.0 or y < 0.0:
        raise DomainError(f"kernel arguments must be finite and >= 0, got ({x!r}, {y!r})")
    if max(x, y) > S_MAX:
        raise DomainError(f"kernel arguments must lie in [0, {S_MAX:g}]")


def _bessel_offdiag(a: float, ja_u, ujp_u, ja_v, ujp_v, gap):
    """Limit kernel from j_a and u j_{a+1} at u = x/4 and v = y/4, gap = u - v.

    Takes scalars or broadcasting arrays, so the pointwise kernel and
    kernel_matrix share this one formula.
    """
    return 4.0 ** (-a - 1.0) * (ujp_u * ja_v - ja_u * ujp_v) / gap


def _bessel_confluent(a: float, u, ja, jp):
    """Confluent limit kernel from j_a, j_{a+1} at one point u."""
    return 4.0 ** (-a - 1.0) * (ja * (ja - a * jp) + u * jp * jp)


def bessel_kernel_entire(a, x, y) -> float:
    """(xy)^{-a/2}-premultiplied limit kernel, entire in both arguments."""
    a = require_order(a)
    x = float(x)
    y = float(y)
    _check_range(x, y)
    if _near_diagonal(x, y):
        u = 0.125 * (x + y)
        return _bessel_confluent(a, u, bessel_entire(a, u), bessel_entire(a + 1.0, u))
    u = 0.25 * x
    v = 0.25 * y
    return _bessel_offdiag(
        a, bessel_entire(a, u), u * bessel_entire(a + 1.0, u),
        bessel_entire(a, v), v * bessel_entire(a + 1.0, v), u - v,
    )


def _finite_factors(spec: KernelSpec, x, diagonal: bool):
    """(h, P, Q, D) at a float or an ndarray x from one recurrence pass at rho x.

    The off-diagonal kernel is h(x) h(y) [P(x) Q(y) - Q(x) P(y)] / (x - y),
    with P = p_n, Q = a/(n+a) p_{n-1} + d_n and
    h(x) = sqrt((n+a) w_n rho^a) e^{-rho x/2}; D is the diagonal Khat_n(x, x),
    summed only if diagonal (else None), so an off-diagonal pass forms no
    squares.
    """
    a, n, rho = spec.a, spec.n, spec.scale
    weights = _laguerre_weights(n, a) if diagonal else None
    p_prev, p, d, total = _laguerre_pass(n, a, rho * x, weights)
    # log of (n+a) w_n rho^a = (n+a) binom(n+a, n) rho^a / Gamma(a+1)
    log_const = math.log((n + a) * _binomials(n, a)[n]) - math.lgamma(a + 1.0) + a * math.log(rho)
    half = np.exp(0.5 * log_const - 0.5 * rho * x)
    diag = rho ** (a + 1.0) * np.exp(-x * rho) * total if diagonal else None
    return half, p, a / (n + a) * p_prev + d, diag


def _finite_offdiag(h_x, p_x, q_x, h_y, p_y, q_y, gap):
    """Order-n kernel from the _finite_factors at x and y, gap = x - y; on
    scalars or broadcasting arrays, so the pointwise kernel and kernel_matrix
    share this one formula."""
    return h_x * h_y * (p_x * q_y - q_x * p_y) / gap


def laguerre_kernel_entire(spec: KernelSpec, x, y) -> float:
    """(xy)^{-a/2}-premultiplied order-n kernel under the scaling X = rho x."""
    if spec.family != "finite":
        raise DomainError("laguerre_kernel_entire needs a finite-family KernelSpec")
    x = float(x)
    y = float(y)
    _check_range(x, y)
    if _near_diagonal(x, y):
        return float(_finite_factors(spec, 0.5 * (x + y), diagonal=True)[3])
    # one pair-only recurrence pass per argument, in float arithmetic
    h_x, p_x, q_x, _ = _finite_factors(spec, x, diagonal=False)
    h_y, p_y, q_y, _ = _finite_factors(spec, y, diagonal=False)
    return float(_finite_offdiag(h_x, p_x, q_x, h_y, p_y, q_y, x - y))


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


def _kernel_blocks(spec: KernelSpec, node_sets) -> list:
    """[(matrix, hat_j)], one kernel matrix per node set, from one evaluation
    of the kernel factors over the nodes of all sets and the near-diagonal
    midpoints within each set.

    No entry across two sets is formed.  Every factor and entry is
    elementwise in its arguments, so each matrix equals kernel_matrix on its
    set alone, bit for bit.  hat_j is hat_j_a at the set's nodes for the
    limit family (computed anyway) and None for the finite family.
    """
    layouts, parts = [], []
    for nodes in node_sets:
        x = np.asarray(nodes, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise DomainError("kernel_matrix needs a one-dimensional, non-empty node array")
        if np.any(x < 0.0) or np.any(x > S_MAX) or not np.all(np.isfinite(x)):
            raise DomainError(f"kernel nodes must lie in [0, {S_MAX:g}]")
        den = x[:, None] - x[None, :]
        scale = np.maximum(1.0, np.maximum(x[:, None], x[None, :]))
        near = np.abs(den) < NEAR_DIAGONAL_RTOL * scale
        np.fill_diagonal(near, False)
        rows, cols = np.nonzero(near)
        np.fill_diagonal(den, 1.0)
        den[rows, cols] = 1.0
        layouts.append((den, rows, cols))
        # At the diagonal the pair midpoint is the node itself; other pairs in
        # the window add their midpoints to the points the factors are taken at.
        parts += [x, 0.5 * (x[rows] + x[cols])]
    points = np.concatenate(parts)

    a = spec.a
    if spec.family == "bessel":
        u = 0.25 * points
        ja = bessel_entire(a, u)
        jp = bessel_entire(a + 1.0, u)
        factors = (ja, u * jp)
        confluent = _bessel_confluent(a, u, ja, jp)
        hat_j = 2.0 ** (-a) * ja

        def offdiag(at_x, at_y, den):
            return _bessel_offdiag(a, *at_x, *at_y, 0.25 * den)
    else:
        half, pn, qn, confluent = _finite_factors(spec, points, diagonal=True)
        factors = (half, pn, qn)
        hat_j = None

        def offdiag(at_x, at_y, den):
            return _finite_offdiag(*at_x, *at_y, den)

    blocks, start = [], 0
    for den, rows, cols in layouts:
        at = slice(start, start + den.shape[0])
        mids = slice(at.stop, at.stop + rows.size)
        start = mids.stop
        matrix = offdiag([f[at, None] for f in factors], [f[None, at] for f in factors], den)
        np.fill_diagonal(matrix, confluent[at])
        matrix[rows, cols] = confluent[mids]
        blocks.append((matrix, None if hat_j is None else hat_j[at]))
    return blocks


def kernel_matrix(spec: KernelSpec, nodes: np.ndarray, hat_j_out=None) -> np.ndarray:
    """Entire kernel sampled on a node set, as a dense symmetric matrix.

    Off-diagonal entries come from the closed forms; entries whose arguments
    fall inside the near-diagonal window (including the diagonal itself) use
    the confluent branch at the pair midpoint.  For the limit family, an
    array passed as hat_j_out receives hat_j_a at the nodes, which the
    assembly has computed anyway (the resolvent right-hand side); the finite
    family has no such vector and refuses hat_j_out.
    """
    if hat_j_out is not None and spec.family != "bessel":
        raise DomainError("hat_j_out is defined for the limit kernel only")
    [(matrix, hat_j)] = _kernel_blocks(spec, [nodes])
    if hat_j_out is not None:
        hat_j_out[:] = hat_j
    return matrix
