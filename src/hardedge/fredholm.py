"""Nystrom discretization: determinants, resolvent functionals, Gram oracle.

An integral operator with the entire pre-multiplied kernel Khat acting on
L^2((0,s); x^a dx) is discretized on a Gauss-Jacobi rule as the symmetric
matrix A_ij = sqrt(w_i) Khat(x_i, x_j) sqrt(w_j); then

    det(I - Khat) ~ det(I - A),

with spectral accuracy because the kernel is entire.  The determinant is
accumulated as a signed sum of log pivots (LU with row pivoting), so large
intervals cannot underflow.  One assembly of I - A serves both the
determinant and the resolvent solve wherever a caller needs the two at the
same (kernel, s, m), and one evaluation of the kernel factors over the
nodes of both rules serves the m and m+10 systems of an error estimate,
each built as its own block.  Every value comes out of _batch as one
record per s: the checked m-node determinant, and where asked for the
m+10-node one and the resolvent quadratic form Q, solved after that check.
The record forms d/ds log det = -Q/(4s), the density det * d/ds log det
and the DeterminantResult of an error estimate.

The s axis is batched: the rule for (0, s) is the (0, 1) rule scaled by s,
so many s share one evaluation of the kernel factors, one block build per
rule and one batched slogdet (and solve), in chunks of at most
CHUNK_ENTRIES matrix entries.  A one-s value is the batch of that s alone,
and batching changes no value: every entry, factorization and check is the
one of each s, bit for bit.  Nor does it change a refusal: a batch raises
the refusal of its first s, in input order, that is refused alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, HardEdgeError, NumericError
from .kernels import KernelSpec, _kernel_blocks
from .quadrature import DEFAULT_NODES, MAX_NODES, _scaled_stack, gauss_jacobi, scale_rule
from .specfun import S_MAX, _laguerre_pass, _laguerre_weights, _require_integer

# Error estimates compare m against m + 10 nodes, so m itself must leave
# room below the quadrature cap.
MIN_DET_NODES = 5
MAX_DET_NODES = MAX_NODES - 10

# Matrix entries, summed over the rules of each s, that one chunk of an s
# batch assembles and factors at once: 1 MB per (S, m, m) array.
CHUNK_ENTRIES = 2 ** 17


@dataclass(frozen=True)
class DeterminantResult:
    """A determinant value with an a-posteriori error estimate.

    error_estimate is |value(m) - value(m+10)|; spectral convergence of the
    Nystrom discretization makes this sharp.  The m and m+10 systems are
    built from one evaluation of the kernel factors over the nodes of both
    rules, one block per rule, equal bit for bit to separate assemblies.
    """

    value: float
    error_estimate: float
    m: int


def _check_interval(s) -> float:
    """The one s gate of the library: (0, s) must lie where the kernels are
    validated, s <= S_MAX."""
    s = float(s)
    if not 0.0 < s <= S_MAX:
        raise DomainError(f"s must lie in (0, {S_MAX:g}], got {s!r}")
    return s


def _check_m(m) -> int:
    return _require_integer(m, "node count", MIN_DET_NODES, MAX_DET_NODES)


@dataclass(frozen=True)
class _Values:
    """The values _batch returns for one checked s: value, the checked
    det(I - A) on the m-node rule for (0, s); refined, the det on the
    m+10-node rule, and quadratic_form, the resolvent quadratic form
    <(I - A)^{-1} b, b> of the m-node system (limit kernel), each None where
    not asked for.  From them it forms log_slope = d/ds log det(I - A),
    density = d/ds det(I - A), both of the m-node system, and estimate, the
    m-node value with its m vs m+10 error estimate."""

    s: float
    m: int
    value: float
    refined: float | None
    quadratic_form: float | None

    @property
    def log_slope(self) -> float:
        return -self.quadratic_form / (4.0 * self.s)

    @property
    def density(self) -> float:
        return self.value * self.log_slope

    @property
    def estimate(self) -> DeterminantResult:
        return DeterminantResult(self.value, abs(self.value - self.refined), self.m)


def _batch(spec: KernelSpec, s_values, m, refine=False, resolvent=False) -> list:
    """[_Values], one record per s of the list s_values in input order, from
    the systems I - A on the m-node rules for (0, s): the checked det(I - A),
    the det on the m+10-node rule too if refine, and if resolvent the
    quadratic form of the m-node system, solved after that check (limit
    kernel only).  m is checked here; m + 10 may exceed MAX_DET_NODES.

    The s values are evaluated in chunks of at most CHUNK_ENTRIES matrix
    entries.  Every entry, factorization and check is the one of each s
    alone, so the records equal the one-s batch bit for bit.  The refusal
    rule: the batch raises the refusal of its first s, in input order, that
    is refused alone.  A chunk that raises is evaluated again one s at a
    time, and this replay is the one place that names the refused s.
    """
    if resolvent and spec.family != "bessel":
        raise DomainError("resolvent_quadratic_form is defined for the limit kernel")
    m = _check_m(m)
    ms = (m, m + 10) if refine else (m,)
    per_chunk = max(1, CHUNK_ENTRIES // sum(k * k for k in ms))
    records = []
    for start in range(0, len(s_values), per_chunk):
        chunk = s_values[start:start + per_chunk]
        try:
            records += _chunk_values(spec, chunk, ms, resolvent)
            continue
        except HardEdgeError as exc:
            if len(chunk) == 1:
                raise
            refusal = exc
        # outside the handler, so that the refusal raised is not chained
        for s in chunk:
            _chunk_values(spec, [s], ms, resolvent)
        raise refusal
    return records


def _chunk_values(spec: KernelSpec, s_values: list, ms, resolvent) -> list:
    """_batch's records for one chunk of s values.

    One _kernel_blocks call evaluates the kernel factors once over the nodes
    of all the rules and forms one stacked block per m, no cross blocks;
    each matrix equals the one assembled on its rule alone, bit for bit.
    Then one batched slogdet per m, checked, and one batched solve.  b_i =
    sqrt(w_i) hat_j_a(x_i) is the resolvent right-hand side; it comes out
    of the limit-kernel assembly.
    """
    s = [_check_interval(t) for t in s_values]
    rules = [_scaled_stack(gauss_jacobi(m, spec.a), s) for m in ms]
    blocks = _kernel_blocks(spec, [nodes for nodes, _ in rules])
    refined = forms = [None] * len(s)
    for m, (_, weights), (kernel, hat_j) in zip(ms, rules, blocks):
        sqrt_w = np.sqrt(weights)
        # I - A in place, where a fresh (S, m, m) array would cost more than
        # the arithmetic; the order is that of eye(m) - sqrt_w_i K_ij sqrt_w_j
        system = sqrt_w[:, :, None] * kernel
        system *= sqrt_w[:, None, :]
        np.subtract(np.eye(m), system, out=system)
        if m > ms[0]:
            refined = _determinants(system, s, m)
            continue
        values = _determinants(system, s, m)
        if resolvent:
            forms = _quadratic_forms(system, sqrt_w * hat_j, s, m)
    return [_Values(s_k, ms[0], *fields) for s_k, *fields in zip(s, values, refined, forms)]


def _determinants(system: np.ndarray, s: list, m: int) -> list:
    """det(I - A) of each system[k], checked as a value on (0, s[k]); one
    batched slogdet, and the first bad k raises."""
    signs, log_abs = np.linalg.slogdet(system)
    values = []
    for s_k, sign, log_abs_k in zip(s, signs, log_abs):
        if sign == 0.0:
            raise NumericError(
                f"discretized determinant is exactly singular at s={s_k!r}, m={m}")
        if sign < 0.0:
            raise NumericError(
                f"discretized determinant came out negative (s={s_k!r}, m={m}); "
                "the projection-kernel range invariant 0 < det <= 1 is violated"
            )
        value = math.exp(log_abs_k)
        if not 0.0 < value <= 1.0 + 1e-8:
            raise NumericError(f"determinant {value!r} escaped (0, 1] at s={s_k!r}, m={m}")
        values.append(value)
    return values


def _quadratic_forms(system: np.ndarray, b: np.ndarray, s: list, m: int) -> list:
    """<(I - A)^{-1} b, b> of each system[k] and b[k], checked positive; one
    batched solve, and the first bad k raises."""
    try:
        solutions = np.linalg.solve(system, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        # only a one-s chunk raises this: _batch replays a refused chunk one s at a time
        raise NumericError(f"resolvent system is singular at s={s[0]!r}, m={m}") from exc
    values = [float(b_k @ v) for b_k, v in zip(b, solutions)]
    for s_k, value in zip(s, values):
        if value <= 0.0:
            raise NumericError(
                f"resolvent quadratic form lost positivity at s={s_k!r}, m={m}: {value!r}"
            )
    return values


def nystrom_det(spec: KernelSpec, s, m=DEFAULT_NODES) -> DeterminantResult:
    """det(I - Khat on L^2((0,s); x^a dx)) with an m vs m+10 error estimate."""
    return _batch(spec, [s], m, refine=True)[0].estimate


def gram_det(a, n, t, m) -> float:
    """det(I_n - G) with G_kl = integral_0^t phi_k phi_l dx, the rank-n route.

    For a projection kernel of rank n the Fredholm determinant collapses to
    an n x n Gram determinant; this is the independent cross-check for
    nystrom_det.  The x^{a/2} factors of the phi's are absorbed into the
    x^a quadrature weight, so the sampled factors are entire.
    """
    n = _require_integer(n, "order n", 1)
    t = _check_interval(t)
    m = _require_integer(m, "node count", 1, MAX_NODES)
    if m < n + 20:
        raise AccuracyError(
            f"gram_det needs m >= n + 20 nodes to resolve degree-2n integrands, "
            f"got m={m}, n={n}"
        )
    a = float(a)
    rule = scale_rule(gauss_jacobi(m, a), t)
    x = rule.nodes
    # phi_k(x) x^{-a/2} = sqrt(w_k) e^{-x/2} p_k(x), k < n
    basis = np.empty((n, m))
    _laguerre_pass(n, a, x, rows=basis)
    basis *= np.sqrt(_laguerre_weights(n - 1, a))[:, None] * np.exp(-0.5 * x)
    gram = (basis * rule.weights) @ basis.T
    sign, log_abs = np.linalg.slogdet(np.eye(n) - gram)
    if sign <= 0.0:
        raise NumericError(f"Gram determinant lost positivity at a={a!r}, n={n}, t={t!r}")
    return math.exp(log_abs)


def resolvent_quadratic_form(spec: KernelSpec, s, m=DEFAULT_NODES) -> float:
    """<(I - K)^{-1} phi_a, phi_a> on L^2(0,s) with phi_a(x) = J_a(sqrt(x)).

    Realized in the x^a dx space, where phi_a becomes the entire hat_j_a:
    solve (I - A) v = b with b_i = sqrt(w_i) hat_j_a(x_i) and return b.v.
    Restricted to the limit kernel; refused where the m-node det(I - A) is.
    """
    return _batch(spec, [s], m, resolvent=True)[0].quadratic_form


def log_derivative(spec: KernelSpec, s, m=DEFAULT_NODES, method="resolvent") -> float:
    """d/ds log det(I - K on (0,s)).

    The resolvent path uses the quadratic-form identity (limit kernel only,
    refused where the m-node determinant is); the finite_difference path
    differentiates log nystrom values centrally with step 1e-3 s (so
    s + 1e-3 s must pass the s gate too) and one Richardson refinement, and
    exists to validate the resolvent path: the one finite-difference route.
    m is checked before s, as in every other determinant entry point.
    """
    _check_m(m)
    s = _check_interval(s)
    if method == "resolvent":
        return _batch(spec, [s], m, resolvent=True)[0].log_slope
    if method == "finite_difference":
        h = 1e-3 * s
        points = [s + 0.5 * h, s - 0.5 * h, s + h, s - h]
        up_half, down_half, up, down = (math.log(r.value) for r in _batch(spec, points, m))
        central_half = (up_half - down_half) / (2.0 * (0.5 * h))
        central = (up - down) / (2.0 * h)
        return (4.0 * central_half - central) / 3.0
    raise DomainError(f"unknown derivative method {method!r}")
