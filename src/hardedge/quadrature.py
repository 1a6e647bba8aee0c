"""Gauss-Jacobi quadrature for the measure x^a dx on (0, s).

Moving the fractional power x^a out of the kernels and into the measure is
what keeps the integrands entire, so a Gauss rule built for exactly this
weight recovers spectral accuracy for any a > -1.

Construction is Golub-Welsch: the three-term recurrence coefficients of the
Jacobi polynomials for the weight (1+t)^a on (-1, 1) are assembled into a
symmetric tridiagonal matrix whose eigenvalues are the nodes.  numpy's
symmetric eigensolver gives them, and one Newton step on the degree-m
polynomial refines them.  The weights are the Christoffel numbers
1 / sum_{k<m} p_k(t)^2 of the orthonormal polynomials p_k, from a second
vectorized pass of the same recurrence over all nodes, rather than squared
eigenvector components, which lose relative accuracy on small weights.  One
rule check, _check, judges the cached build once and every scaled stack.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, NumericError
from .specfun import _require_integer, require_order

DEFAULT_NODES = 50
MAX_NODES = 500


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights with sum_i w_i g(x_i) ~ integral_0^s g(x) x^a dx."""

    nodes: np.ndarray
    weights: np.ndarray
    s: float
    a: float


def _refuse(ok: np.ndarray, error: type, message: str, ends: list) -> None:
    """Raise error(message) at the first row of ok, shape (S, ...), that is
    not all True, naming that row's interval end as {end}."""
    if not ok.all():
        row = np.argmin(ok.reshape(len(ends), -1).all(axis=1))
        raise error(message.format(end=ends[row]))


def _check(nodes: np.ndarray, weights: np.ndarray, ends: list, a: float) -> None:
    """Refuse with NumericError the first row k of (S, m) nodes and weights
    that is not a rule for x^a dx on (0, ends[k]): nodes strictly increasing
    inside the open interval, weights positive and summing to within 1e-12
    of the mass ends[k]^{a+1} / (a+1).  Each test, which nan fails, is decided
    on the whole stack (increasing nodes are inside when the first and last
    are), before the next; only a failed one looks for the row to name."""
    rows = zip(nodes[:, 0].tolist(), nodes[:, -1].tolist(), ends)
    if not ((nodes[:, 1:] > nodes[:, :-1]).all()
            and all(0.0 < first and last < end for first, last, end in rows)):
        _refuse((nodes > 0.0) & (nodes < np.array(ends)[:, None]), NumericError,
                "quadrature nodes escaped the open interval (0, {end!r})", ends)
        _refuse(nodes[:, 1:] > nodes[:, :-1], NumericError,
                "quadrature nodes are not strictly increasing", ends)
    if not weights.min() > 0.0:
        _refuse(weights > 0.0, NumericError, "quadrature produced non-positive weights", ends)
    for end, total in zip(ends, weights.sum(axis=1).tolist()):
        mass = end ** (a + 1.0) / (a + 1.0)
        if not abs(total - mass) <= 1e-12 * mass:
            raise NumericError(f"quadrature weights miss the mass on (0, {end!r}) at a={a!r}, "
                               f"m={weights.shape[1]} by a relative {abs(total - mass) / mass:.3g}")


def gauss_jacobi(m, a) -> QuadratureRule:
    """Gauss rule with m nodes for integral_0^1 g(x) x^a dx.

    Parameters
    ----------
    m : int
        Node count, 1 <= m <= MAX_NODES.
    a : float
        Weight exponent, a > -1; AccuracyError from a = 1023 on.

    Returns
    -------
    QuadratureRule on (0, 1), exact for polynomials of degree <= 2m - 1.
    """
    m = _require_integer(m, "node count", 1, MAX_NODES)
    a = require_order(a)
    if a + 1.0 >= sys.float_info.max_exp:
        # the reference mass 2^{a+1}/(a+1) on (-1, 1) would leave the double range
        raise AccuracyError(f"Gauss-Jacobi rules are built only for a < 1023, got a={a!r}")
    return _reference_rule(m, a)


def scale_rule(rule: QuadratureRule, s) -> QuadratureRule:
    """Affine image of a rule under x -> s x: nodes scale by s, weights by s^{a+1}.
    Weights that overflow, or underflow to zero, are refused with AccuracyError."""
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"scale factor must be a finite real > 0, got {s!r}")
    [nodes], [weights] = _scaled_stack(rule, [s])
    return QuadratureRule(nodes, weights, rule.s * s, rule.a)


def _scaled_stack(rule: QuadratureRule, s: list) -> tuple:
    """(nodes, weights), each (S, m): the rule under x -> s_k x for every
    float s_k > 0 of s, each row checked as scale_rule checks its rule, so
    that a stack refuses where one of its rows would alone: AccuracyError at
    the first row whose weights leave the double range, then _check."""
    factors = []
    for t in s:
        try:
            factors.append(t ** (rule.a + 1.0))
        except OverflowError:
            factors.append(math.inf)
    weights = rule.weights * np.array(factors)[:, None]
    ends = [rule.s * t for t in s]
    nodes = rule.nodes * np.array(s)[:, None]
    if not (weights.min() > 0.0 and weights.max() < math.inf):
        _refuse((weights > 0.0) & (weights < math.inf), AccuracyError,
                f"the weights of x^a dx on (0, {{end!r}}) leave the double range at a={rule.a!r}",
                ends)
    _check(nodes, weights, ends, rule.a)
    return nodes, weights


@lru_cache(maxsize=512)
def _reference_rule(m: int, a: float) -> QuadratureRule:
    """The checked rule on (0, 1).  Every caller shares the cached object, so
    its arrays are write-protected and the check runs once, at the build."""
    diag, off, mass = _jacobi_coefficients(m, a)
    t, christoffel = _gauss_nodes(diag, off)
    # map (-1, 1) -> (0, 1): x = (1+t)/2 absorbs 2^{-(a+1)} into the weights
    nodes = 0.5 * (1.0 + t)
    weights = mass * christoffel * 0.5 ** (a + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    _check(nodes[None], weights[None], [1.0], a)
    return QuadratureRule(nodes, weights, 1.0, a)


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


def _gauss_nodes(diag: np.ndarray, off: np.ndarray):
    """Eigenvalues of the Jacobi matrix (diag, off) and their Christoffel
    numbers relative to the total mass.

    The eigenvalues come from numpy and take one Newton step on p_m; the
    numbers are 1 / sum_{k<m} p_k(t)^2.  Both come from the three-term
    recurrence b_k p_{k+1} = (t - diag[k]) p_k - b_{k-1} p_{k-1} of the
    orthonormal polynomials scaled to p_0 = 1, with b_k = off[k].  The
    missing b_{m-1} is taken as 1: it only scales p_m, and the Newton step
    cancels it.  Returns (eigenvalues ascending, numbers in that order).
    """
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    b = np.append(off, 1.0).tolist()
    # an overflowing sum of squares is a zero weight, which _check refuses
    with np.errstate(over="ignore"):
        for newton_step in (True, False):
            p_prev, p = np.zeros_like(t), np.ones_like(t)
            slope_prev, slope = np.zeros_like(t), np.zeros_like(t)
            squares = np.zeros_like(t)
            for k in range(diag.size):
                squares += p * p
                shifted = t - diag[k]
                b_prev = b[k - 1] if k else 0.0
                p_next = (shifted * p - b_prev * p_prev) / b[k]
                slope_next = (p + shifted * slope - b_prev * slope_prev) / b[k]
                p_prev, p, slope_prev, slope = p, p_next, slope, slope_next
            if newton_step:
                t = t - p / slope
    return t, 1.0 / squares
