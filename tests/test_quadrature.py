import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc

from hardedge import AccuracyError, DomainError, NumericError, gauss_jacobi, scale_rule
from hardedge import quadrature
from hardedge.quadrature import MAX_NODES, _jacobi_coefficients


def test_single_node_legendre():
    rule = gauss_jacobi(1, 0.0)
    assert rule.nodes[0] == pytest.approx(0.5, rel=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 3.7])
def test_single_node_general_weight(a):
    # one-point rule sits at the first moment (a+1)/(a+2) with the full mass
    rule = gauss_jacobi(1, a)
    assert rule.nodes[0] == pytest.approx((a + 1.0) / (a + 2.0), rel=1e-14)
    assert rule.weights[0] == pytest.approx(1.0 / (a + 1.0), rel=1e-14)


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("m", list(range(1, 41)))
def test_moment_exactness(m, a):
    # Gauss rules integrate x^k exactly for k <= 2m-1:
    # integral_0^1 x^k x^a dx = 1/(a+k+1)
    rule = gauss_jacobi(m, a)
    powers = rule.nodes[None, :] ** np.arange(2 * m)[:, None]
    moments = powers @ rule.weights
    expected = 1.0 / (a + np.arange(2 * m) + 1.0)
    assert np.all(np.abs(moments - expected) <= 1e-10 * np.abs(expected))


def test_spec_example_m20():
    rule = gauss_jacobi(20, 0.5)
    for k in range(40):
        moment = float(rule.weights @ rule.nodes ** k)
        assert moment == pytest.approx(1.0 / (0.5 + k + 1.0), rel=1e-11), k


def test_mass_identity():
    for a in [-0.9, -0.5, 0.0, 2.0, 6.0]:
        rule = gauss_jacobi(30, a)
        assert float(rule.weights.sum()) == pytest.approx(1.0 / (a + 1.0), rel=1e-12)


def test_nodes_inside_open_interval():
    for m in [1, 10, 100, MAX_NODES]:
        rule = gauss_jacobi(m, -0.5)
        assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("m", [3, 9, 25])
@pytest.mark.parametrize("a", [-0.5, 0.0, 1.5])
def test_node_interlacing(m, a):
    coarse = gauss_jacobi(m, a).nodes
    fine = gauss_jacobi(m + 1, a).nodes
    assert np.all(fine[:-1] < coarse) and np.all(coarse < fine[1:])


def test_against_numpy_eigensolver():
    # independent Golub-Welsch route through numpy's tridiagonal eigensolver
    m, a = 30, 1.3
    diag, off, mass = _jacobi_coefficients(m, a)
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eigenvalues, vectors = np.linalg.eigh(matrix)
    nodes_ref = 0.5 * (1.0 + eigenvalues)
    weights_ref = mass * vectors[0] ** 2 * 0.5 ** (a + 1.0)
    rule = gauss_jacobi(m, a)
    assert np.allclose(rule.nodes, nodes_ref, rtol=0, atol=1e-13)
    assert np.allclose(rule.weights, weights_ref, rtol=1e-11, atol=1e-16)


def test_spectral_convergence_for_analytic_integrand():
    for s in [1.0, 5.0]:
        values = []
        for m in (20, 40):
            rule = scale_rule(gauss_jacobi(m, 0.0), s)
            values.append(float(rule.weights @ np.exp(-rule.nodes)))
        assert abs(values[0] - values[1]) < 1e-14


def test_scale_rule_identity_and_mass():
    rule = gauss_jacobi(15, 0.7)
    same = scale_rule(rule, 1.0)
    assert np.array_equal(same.nodes, rule.nodes)
    assert np.array_equal(same.weights, rule.weights)
    scaled = scale_rule(rule, 3.5)
    assert scaled.s == pytest.approx(3.5)
    assert float(scaled.weights.sum()) == pytest.approx(3.5 ** 1.7 / 1.7, rel=1e-12)


def test_scaled_rule_against_incomplete_gamma():
    # integral_0^s x^a e^{-x} dx = Gamma(a+1) P(a+1, s)
    a, s = 1.5, 5.0
    rule = scale_rule(gauss_jacobi(40, a), s)
    value = float(rule.weights @ np.exp(-rule.nodes))
    expected = math.gamma(a + 1.0) * gammainc(a + 1.0, s)
    assert value == pytest.approx(expected, rel=1e-12)


def test_cached_rule_is_checked_when_built(monkeypatch):
    # the check runs once, inside the cached build: a rule that fails it
    # raises and is not cached, so no later call can return it unchecked
    quadrature._reference_rule.cache_clear()
    gauss_nodes = quadrature._gauss_nodes

    def zero_first_weight(diag, off):
        t, christoffel = gauss_nodes(diag, off)
        return t, np.concatenate(([0.0], christoffel[1:]))

    monkeypatch.setattr(quadrature, "_gauss_nodes", zero_first_weight)
    for _ in range(2):
        with pytest.raises(NumericError):
            gauss_jacobi(12, 0.5)
    assert quadrature._reference_rule.cache_info().currsize == 0
    monkeypatch.undo()
    rule = gauss_jacobi(12, 0.5)
    assert np.all(rule.weights > 0.0)
    assert gauss_jacobi(12, 0.5) is rule


def _reference_node_and_weight(m, a, x):
    """The node of the m-point rule for x^a dx on (0, 1) next to x, and its
    weight, to 40 digits: two Newton steps on the orthonormal Jacobi
    polynomial of degree m in t = 2x - 1, then the Christoffel number
    1 / ((a+1) sum_{k<m} p_k(t)^2) with p_0 = 1.  The recurrence
    coefficients come from their closed forms in mpmath, not from
    _jacobi_coefficients."""
    with mp.workdps(40):
        a = mp.mpf(a)
        diag = [a / (a + 2)] + [a * a / ((2 * k + a) * (2 * k + a + 2)) for k in range(1, m)]
        off = [mp.sqrt(4 * k * k * (k + a) ** 2 / ((2 * k + a) ** 2 * ((2 * k + a) ** 2 - 1)))
               for k in range(1, m)] + [mp.mpf(1)]
        t = 2 * mp.mpf(float(x)) - 1
        for _ in range(2):
            p_prev, p, slope_prev, slope, squares = 0, mp.mpf(1), 0, 0, 0
            for k in range(m):
                squares += p * p
                b_prev = off[k - 1] if k else 0
                p_prev, p, slope_prev, slope = (
                    p, ((t - diag[k]) * p - b_prev * p_prev) / off[k],
                    slope, (p + (t - diag[k]) * slope - b_prev * slope_prev) / off[k])
            t -= p / slope
        # the squares belong to the first Newton iterate; from a double node
        # good to ~1e-10 it is within ~1e-20 of the root
        return (1 + t) / 2, 1 / ((a + 1) * squares)


@pytest.mark.parametrize("a", [-0.99, 1.0])
def test_rule_against_40_digit_reference(a):
    # a = -0.99 puts the first node at 2.5e-7, where relative accuracy is hardest
    m = 200
    rule = gauss_jacobi(m, a)
    node_err = weight_err = 0.0
    for x, w in zip(rule.nodes, rule.weights):
        x_ref, w_ref = _reference_node_and_weight(m, a, x)
        node_err = max(node_err, float(abs(x - x_ref) / x_ref))
        weight_err = max(weight_err, float(abs(w - w_ref) / w_ref))
    assert node_err <= 1e-10
    assert weight_err <= 2e-12


def test_domain_errors():
    with pytest.raises(DomainError):
        gauss_jacobi(0, 0.0)
    with pytest.raises(DomainError):
        gauss_jacobi(MAX_NODES + 1, 0.0)
    with pytest.raises(DomainError):
        gauss_jacobi(10, -1.0)
    for m in (math.inf, math.nan, 10.5):
        with pytest.raises(DomainError):
            gauss_jacobi(m, 0.0)
    with pytest.raises(DomainError):
        scale_rule(gauss_jacobi(5, 0.0), 0.0)
    with pytest.raises(DomainError):
        scale_rule(gauss_jacobi(5, 0.0), -2.0)


@pytest.mark.parametrize("m", [1, 60])
def test_order_beyond_reference_mass_is_refused(m):
    # the reference mass 2^{a+1}/(a+1) on (-1, 1) overflows from a = 1023 on
    with pytest.raises(AccuracyError):
        gauss_jacobi(m, 1e4)
    with pytest.raises(AccuracyError):
        gauss_jacobi(m, 1023.0)
    assert gauss_jacobi(m, 1022.0).nodes.size == m


@pytest.mark.parametrize("nodes, weights", [([math.nan], [1.0]), ([0.5], [math.nan])],
                         ids=["nan-node", "nan-weight"])
def test_checked_refuses_nan(nodes, weights):
    # every test in the rule check must fail for nan, not only comparisons that hold
    with pytest.raises(NumericError):
        quadrature._check(np.array([nodes]), np.array([weights]), [1.0], 0.0)


def test_mass_refusal_names_the_rule():
    # rows for x dx on (0, 2) and (0, 4), masses 2 and 8; the second is off
    # by 2e-12 relative, twice the bound, and its refusal names its
    # interval, a, m and the mismatch
    nodes = np.array([[0.5, 1.5], [1.0, 3.0]])
    weights = np.array([[1.0, 1.0], [4.0, 4.0 + 16e-12]])
    with pytest.raises(NumericError) as refusal:
        quadrature._check(nodes, weights, [2.0, 4.0], 1.0)
    assert str(refusal.value) == (
        "quadrature weights miss the mass on (0, 4.0) at a=1.0, m=2 by a relative 2e-12")


def test_escaped_middle_node_is_refused_as_escaped():
    # first and last node inside (0, 4) decide the interval test only for
    # increasing nodes: an unordered row whose middle node escapes keeps the
    # first refusal of the test order
    nodes, weights = np.array([[1.0, 5.0, 3.0]]), np.array([[3.0, 3.0, 2.0]])
    with pytest.raises(NumericError, match=r"escaped the open interval \(0, 4\.0\)"):
        quadrature._check(nodes, weights, [4.0], 1.0)


def test_underflowing_weights_are_refused():
    # the smallest weight lies below the double range: its sum of squares
    # overflows, and the zero weight is refused by the build's check
    with pytest.raises(NumericError):
        gauss_jacobi(MAX_NODES, 300.0)


def _refusal(evaluate):
    try:
        evaluate()
    except (AccuracyError, NumericError) as exc:
        return type(exc), str(exc)
    return None


# two-node stacks for x dx (a = 1) on (0, 2) and (0, 4), masses 2 and 8;
# each case spoils one row
GOOD_NODES, GOOD_WEIGHTS = [[0.5, 1.5], [1.0, 3.0]], [[1.0, 1.0], [4.0, 4.0]]
ESCAPED = (NumericError, "quadrature nodes escaped the open interval (0, 4.0)")
UNORDERED = (NumericError, "quadrature nodes are not strictly increasing")
OUT_OF_RANGE = (AccuracyError, "the weights of x^a dx on (0, 4.0) leave the double range at a=1.0")


@pytest.mark.parametrize("row,nodes,weights,expected", [
    pytest.param(1, [1.0, 3.0], [4.0, 4.0], None, id="rules"),
    pytest.param(1, [0.0, 3.0], [4.0, 4.0], ESCAPED, id="first-node-at-zero"),
    pytest.param(1, [1.0, 4.0], [4.0, 4.0], ESCAPED, id="last-node-at-end"),
    pytest.param(1, [3.0, 1.0], [4.0, 4.0], UNORDERED, id="decreasing"),
    pytest.param(1, [1.0, 1.0], [4.0, 4.0], UNORDERED, id="repeated"),
    pytest.param(1, [1.0, math.nan], [4.0, 4.0], ESCAPED, id="nan-node"),
    pytest.param(1, [1.0, 3.0], [8.0, 0.0], OUT_OF_RANGE, id="zero-weight"),
    pytest.param(1, [1.0, 3.0], [8.0, -0.0], OUT_OF_RANGE, id="negative-zero-weight"),
    pytest.param(1, [1.0, 3.0], [4.0, math.inf], OUT_OF_RANGE, id="infinite-weight"),
    pytest.param(1, [1.0, 3.0], [4.0, math.nan], OUT_OF_RANGE, id="nan-weight"),
    pytest.param(1, [1.0, 3.0], [4.0, 4.0 + 16e-12], (
        NumericError, "quadrature weights miss the mass on (0, 4.0) at a=1.0, m=2 "
                      "by a relative 2e-12"), id="mass-missed"),
    pytest.param(0, [0.5, 2.0], [1.0, 1.0], (
        NumericError, "quadrature nodes escaped the open interval (0, 2.0)"),
        id="first-row-spoilt"),
])
def test_stack_and_row_refuse_alike(row, nodes, weights, expected):
    # the stack as _scaled_stack judges it, and the spoilt row as scale_rule
    # judges it, raise the same refusal, type and message.  Both are images
    # of rules on (0, 1) whose arrays are the rows divided by end and end^2:
    # scaling by a power of two is exact, so the checks see these very rows
    stack_nodes, stack_weights = np.array(GOOD_NODES), np.array(GOOD_WEIGHTS)
    stack_nodes[row], stack_weights[row] = nodes, weights
    ends = np.array([[2.0], [4.0]])
    # a rule whose arrays hold one row per scale factor: _scaled_stack scales
    # row k by the k-th factor
    stacked = quadrature.QuadratureRule(stack_nodes / ends, stack_weights / ends ** 2, 1.0, 1.0)
    assert _refusal(lambda: quadrature._scaled_stack(stacked, [2.0, 4.0])) == expected
    end = float(ends[row, 0])
    rule = quadrature.QuadratureRule(stack_nodes[row] / end, stack_weights[row] / end ** 2,
                                     1.0, 1.0)
    assert _refusal(lambda: scale_rule(rule, end)) == expected
