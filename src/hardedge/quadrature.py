"""Gauss-Jacobi quadrature for the measure x^a dx on (0, s).

Moving the fractional power x^a out of the kernels and into the measure is
what keeps the integrands entire, so a Gauss rule built for exactly this
weight recovers spectral accuracy for any a > -1.

Construction is Golub-Welsch: the three-term recurrence coefficients of the
Jacobi polynomials for the weight (1+t)^a on (-1, 1) are assembled into a
symmetric tridiagonal matrix; its eigenvalues are the nodes and the squared
first components of its eigenvectors give the weights.  The tridiagonal
eigenproblem is solved in-house by implicit QL with Wilkinson shifts,
accumulating only the first eigenvector components, so a rule costs O(m^2)
and needs no external eigensolver.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError
from .specfun import require_order

DEFAULT_NODES = 50
MAX_NODES = 500


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights with sum_i w_i g(x_i) ~ integral_0^s g(x) x^a dx."""

    nodes: np.ndarray
    weights: np.ndarray
    s: float
    a: float

    @property
    def m(self) -> int:
        return self.nodes.size

    def mass(self) -> float:
        """Total mass of x^a dx on (0, s), i.e. s^{a+1} / (a+1)."""
        return self.s ** (self.a + 1.0) / (self.a + 1.0)

    def integrate(self, values) -> float:
        """Apply the rule to integrand values sampled at the nodes."""
        return float(self.weights @ np.asarray(values, dtype=float))


def _checked(nodes: np.ndarray, weights: np.ndarray, s: float, a: float) -> QuadratureRule:
    rule = QuadratureRule(nodes, weights, s, a)
    if np.any(nodes <= 0.0) or np.any(nodes >= s):
        raise NumericError(f"quadrature nodes escaped the open interval (0, {s!r})")
    if np.any(np.diff(nodes) <= 0.0):
        raise NumericError("quadrature nodes are not strictly increasing")
    if np.any(weights <= 0.0):
        raise NumericError("quadrature produced non-positive weights")
    mass = rule.mass()
    if abs(float(weights.sum()) - mass) > 1e-12 * mass:
        raise NumericError("quadrature weights do not reproduce the measure mass")
    return rule


def gauss_jacobi(m, a) -> QuadratureRule:
    """Gauss rule with m nodes for integral_0^1 g(x) x^a dx.

    Parameters
    ----------
    m : int
        Node count, 1 <= m <= MAX_NODES.
    a : float
        Weight exponent, a > -1.

    Returns
    -------
    QuadratureRule on (0, 1), exact for polynomials of degree <= 2m - 1.
    """
    if m != int(m) or not 1 <= int(m) <= MAX_NODES:
        raise DomainError(f"node count must be an integer in [1, {MAX_NODES}], got {m!r}")
    return _reference_rule(int(m), require_order(a))


def scale_rule(rule: QuadratureRule, s) -> QuadratureRule:
    """Affine image of a rule under x -> s x: nodes scale by s, weights by s^{a+1}."""
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"scale factor must be a finite real > 0, got {s!r}")
    return _checked(
        rule.nodes * s,
        rule.weights * s ** (rule.a + 1.0),
        rule.s * s,
        rule.a,
    )


@lru_cache(maxsize=512)
def _reference_rule(m: int, a: float) -> QuadratureRule:
    """The checked rule on (0, 1).  Every caller shares the cached object, so
    its arrays are write-protected and the check runs once, at the build."""
    diag, off, mass = _jacobi_coefficients(m, a)
    t, first_sq = _tridiag_eigen(diag, off)
    # map (-1, 1) -> (0, 1): x = (1+t)/2 absorbs 2^{-(a+1)} into the weights
    nodes = 0.5 * (1.0 + t)
    weights = mass * first_sq * 0.5 ** (a + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return _checked(nodes, weights, 1.0, a)


def _jacobi_coefficients(m: int, a: float):
    """Recurrence coefficients for the weight (1+t)^a on (-1, 1) (alpha=0, beta=a)."""
    diag = np.empty(m)
    off = np.empty(m - 1) if m > 1 else np.empty(0)
    diag[0] = a / (a + 2.0)
    # total mass integral_{-1}^{1} (1+t)^a dt
    mass = 2.0 ** (a + 1.0) / (a + 1.0)
    if m > 1:
        off[0] = math.sqrt(4.0 * (a + 1.0) / ((a + 2.0) ** 2 * (a + 3.0)))
    for k in range(1, m):
        two_k = 2.0 * k + a
        diag[k] = a * a / (two_k * (two_k + 2.0))
        if k < m - 1:
            kk = k + 1.0
            two_kk = 2.0 * kk + a
            off[k] = math.sqrt(
                4.0 * kk * kk * (kk + a) ** 2 / (two_kk ** 2 * (two_kk ** 2 - 1.0))
            )
    return diag, off, mass


def _tridiag_eigen(diag: np.ndarray, off: np.ndarray):
    """Eigenvalues of a symmetric tridiagonal matrix plus squared first
    eigenvector components, by implicit QL with Wilkinson shifts.

    Returns (eigenvalues ascending, squared first components in that order).
    """
    n = diag.size
    d = diag.astype(float).copy()
    e = np.zeros(n)
    if n > 1:
        e[: n - 1] = off
    z = np.zeros(n)
    z[0] = 1.0
    if n == 1:
        return d, z
    eps = np.finfo(float).eps
    budget = 50 * n
    sweeps = 0
    for low in range(n):
        while True:
            split = low
            while split < n - 1:
                scale = abs(d[split]) + abs(d[split + 1])
                if abs(e[split]) <= eps * scale:
                    break
                split += 1
            if split == low:
                break
            sweeps += 1
            if sweeps > budget:
                raise NumericError(
                    f"tridiagonal QL did not converge within {budget} sweeps"
                )
            g = (d[low + 1] - d[low]) / (2.0 * e[low])
            r = math.hypot(g, 1.0)
            g = d[split] - d[low] + e[low] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(split - 1, low - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # recover from an off-diagonal underflow and retry
                    d[i + 1] -= p
                    e[split] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            if not underflow:
                d[low] -= p
                e[low] = g
                e[split] = 0.0
    order = np.argsort(d, kind="stable")
    return d[order], (z * z)[order]
