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

kernel_matrix is the one kernel entry: one factor routine, _factors, gives
the factors of both families over a node vector, and _offdiag forms the
entries from them.  kernel_expansion_residual takes the same two routines
on the floats of one (x, y) pair, where a one-node array pass would cost
forty to fifty times the float loop (see specfun).  A kernel matrix
costs one recurrence over its nodes, of j_a and j_{a+1} (limit family) or
of the Laguerre polynomials (order-n family), plus one midpoint per
unordered node pair inside the near-diagonal window.  A stack of node
vectors, one rule per s of a batch, costs the same one pass over all of
its nodes and yields a stack of matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import MAX_NODES
from .specfun import (MAX_ORDER, S_MAX, _binomials, _laguerre_pass, _laguerre_weights,
                      _require_integer, bessel_pair, require_order)

# Relative |x - y| below which the confluent branch replaces the divided
# difference (the closed forms lose roughly |x-y|^{-1} digits there).  The
# branch evaluates the diagonal formula at the pair midpoint, which is
# accurate to O(|x-y|^2) by symmetry.
NEAR_DIAGONAL_RTOL = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Identifies one kernel: the limit family when n is None, else an
    order-n family member; family is read off n.

    For the finite family the hard-edge change of variables is X = rho * x
    with rho = scale = (1 - (a+c)/(2n)) / (4n).  c is always a number: the
    plain hard-edge scaling rho = 1/(4n) is the member c = -a (a + (-a) is
    0.0 exactly), which is stored when no c is given, and c = 0 is the
    optimally tuned member.
    """

    a: float
    n: int | None = None
    c: float | None = None

    def __post_init__(self):
        require_order(self.a)
        if self.n is None:
            if self.c is not None:
                raise DomainError("limit kernel takes no c")
            return
        # frozen: store an integral float such as 5.0 as the int 5, and
        # the plain scaling as the member c = -a
        object.__setattr__(self, "n", _require_integer(self.n, "order n", 1, MAX_ORDER))
        object.__setattr__(self, "c", -self.a if self.c is None else self.c)
        if not math.isfinite(self.c):
            raise DomainError(f"scaling parameter c must be finite, got {self.c!r}")
        if self.scale <= 0.0:
            raise DomainError(
                f"scaling (1 - (a+c)/(2n))/(4n) must stay positive, got a={self.a!r}, "
                f"n={self.n!r}, c={self.c!r}"
            )

    @property
    def family(self) -> str:
        """"bessel" for the limit family, "finite" for an order-n member."""
        return "bessel" if self.n is None else "finite"

    @property
    def scale(self) -> float:
        """dX/dx of the change of variables (finite family only)."""
        if self.family != "finite":
            raise DomainError("scale is defined for the finite family only")
        return (1.0 - (self.a + self.c) / (2.0 * self.n)) / (4.0 * self.n)


def bessel_spec(a) -> KernelSpec:
    """Spec for the hard-edge limit kernel with parameter a."""
    return KernelSpec(a=float(a))


def finite_spec(a, n, c=None) -> KernelSpec:
    """Spec for the order-n kernel; c=None selects the plain scaling, c = -a."""
    if n is None:
        raise DomainError("finite kernel needs an order n")
    return KernelSpec(a=float(a), n=n, c=None if c is None else float(c))


def _near_diagonal(x: float, y: float) -> bool:
    # symmetric in (x, y) so that both orderings take the same branch
    return abs(x - y) < NEAR_DIAGONAL_RTOL * max(1.0, abs(x), abs(y))


def _factors(spec: KernelSpec, x, diagonal: bool = True):
    """(factors, confluent, hat_j) at a float or an ndarray x, elementwise.

    factors: (j_a, u j_{a+1}) at u = x/4 (limit family), or (h, P, Q) from
    one recurrence pass at rho x with P = p_n, Q = a/(n+a) p_{n-1} + d_n and
    h = sqrt((n+a) w_n rho^a) e^{-rho x/2}.  confluent is Khat(x, x) if
    diagonal, else None (an off-diagonal pass forms no squares); hat_j is
    hat_j_a(x) for the limit family, else None.
    """
    a = spec.a
    if spec.family == "bessel":
        u = 0.25 * x
        ja, jp = bessel_pair(a, u)
        confluent = 4.0 ** (-a - 1.0) * (ja * (ja - a * jp) + u * jp * jp) if diagonal else None
        return (ja, u * jp), confluent, 2.0 ** (-a) * ja
    n, rho = spec.n, spec.scale
    weights = _laguerre_weights(n, a) if diagonal else None
    p_prev, p, d, total = _laguerre_pass(n, a, rho * x, weights)
    # log of (n+a) w_n rho^a = (n+a) binom(n+a, n) rho^a / Gamma(a+1)
    log_const = math.log((n + a) * _binomials(n, a)[n]) - math.lgamma(a + 1.0) + a * math.log(rho)
    half = np.exp(0.5 * log_const - 0.5 * rho * x)
    confluent = rho ** (a + 1.0) * np.exp(-x * rho) * total if diagonal else None
    return (half, p, a / (n + a) * p_prev + d), confluent, None


def _offdiag(spec: KernelSpec, at_x, at_y, gap):
    """Kernel entries from the _factors at x and at y, gap = x - y; on floats
    or broadcasting arrays, so the pair residual and the matrices share this
    one formula,

        limit:    4^{-a-1} (u j_{a+1}(u) j_a(v) - j_a(u) v j_{a+1}(v)) / (gap/4),
        order n:  h_x h_y (p_x q_y - q_x p_y) / gap,

    in that order of operations.  The augmented assignments update a matrix
    in place: a fresh (S, m, m) array costs more than the arithmetic.
    """
    if spec.family == "bessel":
        (ja_u, ujp_u), (ja_v, ujp_v) = at_x, at_y
        entries = ujp_u * ja_v
        entries -= ja_u * ujp_v
        entries *= 4.0 ** (-spec.a - 1.0)
        entries /= 0.25 * gap
        return entries
    (h_x, p_x, q_x), (h_y, p_y, q_y) = at_x, at_y
    entries = p_x * q_y
    entries -= q_x * p_y
    entries *= h_x * h_y
    entries /= gap
    return entries


def kernel_expansion_residual(a, n, c, x, y) -> float:
    """Pointwise deviation of the scaled order-n kernel from its limit plus
    first-order rank-one correction:

        Khat_n(x, y) - [Khat(x, y) - c/(8n) hat_j_a(x) hat_j_a(y)],

    which decays like n^{-2} for bounded arguments.

    The one float route to the kernels: (x, y) is checked as a node pair,
    and each family takes one pair-only _factors call per argument (the
    confluent value at the pair midpoint inside the near-diagonal window),
    so the value is the residual of the two 2-node kernel matrices, bit for
    bit.  The limit factors carry hat_j_a, so the rank-one term costs no
    further Bessel evaluation.
    """
    c = float(c)
    finite, limit = finite_spec(a, n, c), bessel_spec(a)
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and math.isfinite(y)) or x < 0.0 or y < 0.0:
        raise DomainError(f"kernel arguments must be finite and >= 0, got ({x!r}, {y!r})")
    if max(x, y) > S_MAX:
        raise DomainError(f"kernel arguments must lie in [0, {S_MAX:g}]")
    near = _near_diagonal(x, y)
    entries = []
    for spec in (finite, limit):
        if near:
            entries.append(float(_factors(spec, 0.5 * (x + y))[1]))
            continue
        at_x, at_y = (_factors(spec, t, diagonal=False) for t in (x, y))
        entries.append(float(_offdiag(spec, at_x[0], at_y[0], x - y)))
    if near:
        at_x, at_y = (_factors(limit, t, diagonal=False) for t in (x, y))
    return entries[0] - entries[1] + (c / (8.0 * n)) * (at_x[2] * at_y[2])


def _window_pairs(x: np.ndarray, den: np.ndarray) -> tuple:
    """(b, i, j) with i < j: the node pairs of rule x[b] inside the
    near-diagonal window, den[b] = x[b, :, None] - x[b, None, :]; () if
    there are none.  The window is symmetric, so (j, i) takes the midpoint
    of (i, j).

    No pair of a rule is closer than its closest neighbours in sorted order,
    and no window of it is wider than the one at its largest node, so only
    the rules whose closest neighbours fall inside that widest window are
    searched pair by pair.  Both bounds are monotone in rounding, so the
    pairs found are exactly those of the pairwise test.
    """
    ordered = np.sort(x, axis=1)
    closest = (ordered[:, 1:] - ordered[:, :-1]).min(axis=1, initial=math.inf)
    crowded = np.nonzero(closest < NEAR_DIAGONAL_RTOL * np.maximum(1.0, ordered[:, -1]))[0]
    if crowded.size == 0:
        return ()
    near = x[crowded]
    scale = np.maximum(1.0, np.maximum(near[:, :, None], near[:, None, :]))
    b, i, j = np.nonzero(np.triu(np.abs(den[crowded]) < NEAR_DIAGONAL_RTOL * scale, 1))
    return (crowded[b], i, j) if b.size else ()


def _kernel_blocks(spec: KernelSpec, node_sets) -> list:
    """[(matrices, hat_j)], one block per node set, from one _factors call
    over the nodes of all sets and the near-diagonal midpoints within each
    rule, one midpoint per unordered pair.

    A node set is a stack of S rules of m nodes each, shape (S, m); its
    block stacks S matrices, (S, m, m), and S hat_j rows, (S, m).  No entry
    across two rules is formed, and the near-diagonal window is judged
    within each rule, since max(1, |x|, |y|) is not scale-invariant.  Every
    factor and entry is elementwise in its arguments, so each matrix equals
    kernel_matrix on its rule alone, bit for bit.  hat_j is hat_j_a at the
    nodes for the limit family (computed anyway) and None for the finite
    family.
    """
    layouts, parts = [], []
    for nodes in node_sets:
        rules = np.asarray(nodes, dtype=float)
        if rules.ndim != 2 or rules.size == 0:
            raise DomainError("kernel nodes must form a non-empty (S, m) stack")
        # the largest rule a determinant builds, checked before the (S, m, m) arrays
        if rules.shape[1] > MAX_NODES:
            raise DomainError(f"a kernel rule has at most {MAX_NODES} nodes, got {rules.shape[1]}")
        # nan and +-inf fail one of the two bounds: min and max carry them
        if not (rules.min() >= 0.0 and rules.max() <= S_MAX):
            raise DomainError(f"kernel nodes must lie in [0, {S_MAX:g}]")
        den = rules[:, :, None] - rules[:, None, :]
        pairs = _window_pairs(rules, den)
        # the diagonal of each (m, m) matrix, as a strided view
        den.reshape(rules.shape[0], -1)[:, :: rules.shape[1] + 1] = 1.0
        layouts.append((den, pairs))
        parts.append(rules.ravel())
        if pairs:
            # At the diagonal the pair midpoint is the node itself; other pairs
            # in the window add their midpoints to the points the factors are
            # taken at.
            b, i, j = pairs
            den[b, i, j] = 1.0
            den[b, j, i] = 1.0
            parts.append(0.5 * (rules[b, i] + rules[b, j]))
    factors, confluent, hat_j = _factors(spec, np.concatenate(parts))

    blocks, start = [], 0
    for den, pairs in layouts:
        count, m = den.shape[:2]
        at = slice(start, start + count * m)
        start = at.stop
        at_nodes = [f[at].reshape(count, m) for f in factors]
        matrix = _offdiag(spec, [f[:, :, None] for f in at_nodes],
                          [f[:, None, :] for f in at_nodes], den)
        matrix.reshape(count, -1)[:, :: m + 1] = confluent[at].reshape(count, m)
        if pairs:
            b, i, j = pairs
            mids = slice(start, start + b.size)
            start = mids.stop
            matrix[b, i, j] = confluent[mids]
            matrix[b, j, i] = confluent[mids]
        blocks.append((matrix, None if hat_j is None else hat_j[at].reshape(count, m)))
    return blocks


def kernel_matrix(spec: KernelSpec, nodes: np.ndarray) -> np.ndarray:
    """Entire kernel sampled on a node set, as a dense symmetric matrix.

    Off-diagonal entries come from the closed forms; entries whose arguments
    fall inside the near-diagonal window (including the diagonal itself) use
    the confluent branch at the pair midpoint.  At most MAX_NODES nodes, the
    largest rule a determinant builds.
    """
    if np.ndim(nodes) != 1 or np.size(nodes) == 0:
        raise DomainError("kernel_matrix needs a one-dimensional, non-empty node array")
    [(matrices, _)] = _kernel_blocks(spec, [np.asarray(nodes)[None]])
    return matrices[0]
