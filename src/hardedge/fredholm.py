"""Nystrom discretization: determinants, resolvent functionals, Gram oracle.

An integral operator with the entire pre-multiplied kernel Khat acting on
L^2((0,s); x^a dx) is discretized on a Gauss-Jacobi rule as the symmetric
matrix A_ij = sqrt(w_i) Khat(x_i, x_j) sqrt(w_j); then

    det(I - Khat) ~ det(I - A),

with spectral accuracy because the kernel is entire.  The determinant is
accumulated as a signed sum of log pivots (LU with row pivoting), so large
intervals cannot underflow.  One assembly of I - A serves both the
determinant and the resolvent solve wherever a caller needs the two at the
same (kernel, s, m).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, NumericError
from .kernels import KernelSpec, _require_n, kernel_matrix
from .quadrature import DEFAULT_NODES, MAX_NODES, gauss_jacobi, scale_rule
from .specfun import _laguerre_terms, log_gamma

# Error estimates compare m against m + 10 nodes, so m itself must leave
# room below the quadrature cap.
MIN_DET_NODES = 5
MAX_DET_NODES = MAX_NODES - 10


@dataclass(frozen=True)
class DeterminantResult:
    """A determinant value with an a-posteriori error estimate.

    error_estimate is |value(m) - value(m+10)|; spectral convergence of the
    Nystrom discretization makes this sharp.
    """

    value: float
    error_estimate: float
    m: int


def _rule(m: int, a: float, s: float):
    return scale_rule(gauss_jacobi(m, a), s)


def _check_interval(s) -> float:
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"interval endpoint must be a finite real > 0, got {s!r}")
    return s


def _check_m(m) -> int:
    if m != int(m) or not MIN_DET_NODES <= int(m) <= MAX_DET_NODES:
        raise DomainError(
            f"node count must be an integer in [{MIN_DET_NODES}, {MAX_DET_NODES}], got {m!r}"
        )
    return int(m)


def _assemble(spec: KernelSpec, s: float, m: int):
    """(I - A, b) on the m-node rule for (0, s).

    b_i = sqrt(w_i) hat_j_a(x_i) is the resolvent right-hand side; it comes
    out of the limit-kernel assembly (None for the finite family).
    """
    rule = _rule(m, spec.a, s)
    sqrt_w = np.sqrt(rule.weights)
    hat_j = None
    if spec.family == "bessel":
        hat_j = np.empty(m)
        kernel = kernel_matrix(spec, rule.nodes, hat_j_out=hat_j)
    else:
        kernel = kernel_matrix(spec, rule.nodes)
    system = np.eye(m) - sqrt_w[:, None] * kernel * sqrt_w[None, :]
    return system, None if hat_j is None else sqrt_w * hat_j


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


def _det_value(spec: KernelSpec, s: float, m: int) -> float:
    return _det_of(_assemble(spec, s, m)[0], s, m)


def _det_and_log_derivative(spec: KernelSpec, s: float, m: int) -> tuple[float, float]:
    """det(I - A) and the resolvent log-derivative from one assembly (limit kernel)."""
    system, b = _assemble(spec, s, m)
    value = _det_of(system, s, m)
    return value, -_quadratic_form_of(system, b, s, m) / (4.0 * s)


def _det_result(spec: KernelSpec, s: float, m: int, value: float) -> DeterminantResult:
    """Attach the m vs m+10 error estimate to the determinant value at m nodes."""
    refined = _det_value(spec, s, m + 10)
    return DeterminantResult(value=value, error_estimate=abs(value - refined), m=m)


def _richardson_derivative(fn, s: float) -> float:
    """Central difference of fn at s with step 1e-3 s and one Richardson refinement."""

    def central(h: float) -> float:
        return (fn(s + h) - fn(s - h)) / (2.0 * h)

    h = 1e-3 * s
    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def nystrom_det(spec: KernelSpec, s, m=DEFAULT_NODES) -> DeterminantResult:
    """det(I - Khat on L^2((0,s); x^a dx)) with an m vs m+10 error estimate."""
    s = _check_interval(s)
    m = _check_m(m)
    return _det_result(spec, s, m, _det_value(spec, s, m))


def gram_det(a, n, t, m) -> float:
    """det(I_n - G) with G_kl = integral_0^t phi_k phi_l dx, the rank-n route.

    For a projection kernel of rank n the Fredholm determinant collapses to
    an n x n Gram determinant; this is the independent cross-check for
    nystrom_det.  The x^{a/2} factors of the phi's are absorbed into the
    x^a quadrature weight, so the sampled factors are entire.
    """
    n = _require_n(n)
    t = _check_interval(t)
    if m != int(m) or m > MAX_NODES:
        raise DomainError(f"node count must be an integer <= {MAX_NODES}, got {m!r}")
    m = int(m)
    if m < n + 20:
        raise AccuracyError(
            f"gram_det needs m >= n + 20 nodes to resolve degree-2n integrands, "
            f"got m={m}, n={n}"
        )
    a = float(a)
    rule = _rule(m, a, t)
    x = rule.nodes
    decay = np.exp(-0.5 * x)
    basis = np.empty((n, m))
    norm = math.exp(-0.5 * log_gamma(a + 1.0))  # sqrt(k!/Gamma(k+a+1)) at k=0
    for k, lk in enumerate(_laguerre_terms(n - 1, a, x)):
        basis[k] = norm * decay * lk
        norm *= math.sqrt((k + 1.0) / (k + a + 1.0))
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
    s = _check_interval(s)
    m = _check_m(m)
    system, b = _assemble(spec, s, m)
    return _quadratic_form_of(system, b, s, m)


def log_derivative(spec: KernelSpec, s, m=DEFAULT_NODES, method="resolvent") -> float:
    """d/ds log det(I - K on (0,s)).

    The resolvent path uses the quadratic-form identity (limit kernel only);
    the finite_difference path differentiates log nystrom values centrally
    with step 1e-3 s and one Richardson refinement, and exists to validate
    the resolvent path.
    """
    s = _check_interval(s)
    if method == "resolvent":
        return -resolvent_quadratic_form(spec, s, m) / (4.0 * s)
    if method == "finite_difference":
        m = _check_m(m)
        return _richardson_derivative(lambda t: math.log(_det_value(spec, t, m)), s)
    raise DomainError(f"unknown derivative method {method!r}")
