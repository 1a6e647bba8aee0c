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
each built as its own block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, NumericError
from .kernels import KernelSpec, _kernel_blocks
from .quadrature import DEFAULT_NODES, MAX_NODES, gauss_jacobi, scale_rule
from .specfun import S_MAX, _laguerre_pass, _laguerre_weights, _require_integer

# Error estimates compare m against m + 10 nodes, so m itself must leave
# room below the quadrature cap.
MIN_DET_NODES = 5
MAX_DET_NODES = MAX_NODES - 10


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


def _rule(m: int, a: float, s: float):
    return scale_rule(gauss_jacobi(m, a), s)


def _check_interval(s) -> float:
    """The one s gate of the library: (0, s) must lie where the kernels are
    validated, s <= S_MAX."""
    s = float(s)
    if not 0.0 < s <= S_MAX:
        raise DomainError(f"s must lie in (0, {S_MAX:g}], got {s!r}")
    return s


def _check_m(m) -> int:
    return _require_integer(m, "node count", MIN_DET_NODES, MAX_DET_NODES)


def _assemble(spec: KernelSpec, s: float, *ms: int) -> list:
    """[(I - A, b)], one pair per node count m, each on the m-node rule for (0, s).

    One _kernel_blocks call evaluates the kernel factors once over the nodes
    of all the rules and forms one block per rule, no cross blocks; each
    block equals the matrix assembled on its rule alone, bit for bit.
    b_i = sqrt(w_i) hat_j_a(x_i) is the resolvent right-hand side; it comes
    out of the limit-kernel assembly (None for the finite family).
    """
    rules = [_rule(m, spec.a, s) for m in ms]
    blocks = _kernel_blocks(spec, [rule.nodes for rule in rules])
    systems = []
    for m, rule, (kernel, hat_j) in zip(ms, rules, blocks):
        sqrt_w = np.sqrt(rule.weights)
        system = np.eye(m) - sqrt_w[:, None] * kernel * sqrt_w[None, :]
        systems.append((system, None if hat_j is None else sqrt_w * hat_j))
    return systems


def _det_of(system: np.ndarray, s: float, m: int) -> float:
    sign, log_abs = np.linalg.slogdet(system)
    if sign == 0.0:
        raise NumericError(f"discretized determinant is exactly singular at s={s!r}, m={m}")
    if sign < 0.0:
        raise NumericError(
            f"discretized determinant came out negative (s={s!r}, m={m}); "
            "the projection-kernel range invariant 0 < det <= 1 is violated"
        )
    value = math.exp(log_abs)
    if not 0.0 < value <= 1.0 + 1e-8:
        raise NumericError(f"determinant {value!r} escaped (0, 1] at s={s!r}, m={m}")
    return value


def _quadratic_form_of(system: np.ndarray, b: np.ndarray, s: float, m: int) -> float:
    try:
        v = np.linalg.solve(system, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"resolvent system is singular at s={s!r}, m={m}") from exc
    value = float(b @ v)
    if value <= 0.0:
        raise NumericError(
            f"resolvent quadratic form lost positivity at s={s!r}, m={m}: {value!r}"
        )
    return value


def _log_slope(system: np.ndarray, b: np.ndarray, s: float, m: int) -> float:
    """d/ds log det(I - A) from the resolvent quadratic form of one system."""
    return -_quadratic_form_of(system, b, s, m) / (4.0 * s)


def _det_value(spec: KernelSpec, s, m) -> float:
    """det(I - A) at m nodes alone, without the m+10 error estimate."""
    s, m = _check_interval(s), _check_m(m)
    [(system, _)] = _assemble(spec, s, m)
    return _det_of(system, s, m)


def _det_and_log_derivative(spec: KernelSpec, s, m) -> tuple[float, float]:
    """det(I - A) and the resolvent log-derivative from one assembly (limit kernel)."""
    s, m = _check_interval(s), _check_m(m)
    [(system, b)] = _assemble(spec, s, m)
    return _det_of(system, s, m), _log_slope(system, b, s, m)


def _estimated(spec: KernelSpec, s, m, slope=False):
    """(DeterminantResult, log-derivative): det(I - A) at m nodes with its
    m vs m+10 error estimate, both systems from one _assemble; with slope,
    the resolvent log-derivative of the m-node system (limit kernel), else
    None.  m + 10 may exceed MAX_DET_NODES."""
    s, m = _check_interval(s), _check_m(m)
    (system, b), (refined, _) = _assemble(spec, s, m, m + 10)
    value = _det_of(system, s, m)
    log_slope = _log_slope(system, b, s, m) if slope else None
    error = abs(value - _det_of(refined, s, m + 10))
    return DeterminantResult(value=value, error_estimate=error, m=m), log_slope


def nystrom_det(spec: KernelSpec, s, m=DEFAULT_NODES) -> DeterminantResult:
    """det(I - Khat on L^2((0,s); x^a dx)) with an m vs m+10 error estimate."""
    return _estimated(spec, s, m)[0]


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
    rule = _rule(m, a, t)
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
    Restricted to the limit kernel.
    """
    if spec.family != "bessel":
        raise DomainError("resolvent_quadratic_form is defined for the limit kernel")
    s, m = _check_interval(s), _check_m(m)
    [(system, b)] = _assemble(spec, s, m)
    return _quadratic_form_of(system, b, s, m)


def log_derivative(spec: KernelSpec, s, m=DEFAULT_NODES, method="resolvent") -> float:
    """d/ds log det(I - K on (0,s)).

    The resolvent path uses the quadratic-form identity (limit kernel only);
    the finite_difference path differentiates log nystrom values centrally
    with step 1e-3 s (so s + 1e-3 s must pass the s gate too) and one
    Richardson refinement, and exists to validate the resolvent path: it is
    the library's one finite-difference route.
    """
    s = _check_interval(s)
    if method == "resolvent":
        return -resolvent_quadratic_form(spec, s, m) / (4.0 * s)
    if method == "finite_difference":
        def log_det(t: float) -> float:
            return math.log(_det_value(spec, t, m))

        def central(h: float) -> float:
            return (log_det(s + h) - log_det(s - h)) / (2.0 * h)

        h = 1e-3 * s
        return (4.0 * central(0.5 * h) - central(h)) / 3.0
    raise DomainError(f"unknown derivative method {method!r}")
