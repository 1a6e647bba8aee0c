import math

import numpy as np
import pytest

from hardedge import DomainError, NumericError, gauss_jacobi, reg_upper_gamma, scale_rule
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
            values.append(rule.integrate(np.exp(-rule.nodes)))
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
    # integral_0^s x^a e^{-x} dx = Gamma(a+1) (1 - Q(a+1, s))
    a, s = 1.5, 5.0
    rule = scale_rule(gauss_jacobi(40, a), s)
    value = rule.integrate(np.exp(-rule.nodes))
    expected = math.gamma(a + 1.0) * (1.0 - reg_upper_gamma(a + 1.0, s))
    assert value == pytest.approx(expected, rel=1e-12)


def test_cached_rule_is_checked_when_built(monkeypatch):
    # the check runs once, inside the cached build: a rule that fails it
    # raises and is not cached, so no later call can return it unchecked
    quadrature._reference_rule.cache_clear()
    eigen = quadrature._tridiag_eigen

    def zero_first_weight(diag, off):
        t, first_sq = eigen(diag, off)
        return t, np.concatenate(([0.0], first_sq[1:]))

    monkeypatch.setattr(quadrature, "_tridiag_eigen", zero_first_weight)
    for _ in range(2):
        with pytest.raises(NumericError):
            gauss_jacobi(12, 0.5)
    assert quadrature._reference_rule.cache_info().currsize == 0
    monkeypatch.undo()
    rule = gauss_jacobi(12, 0.5)
    assert np.all(rule.weights > 0.0)
    assert gauss_jacobi(12, 0.5) is rule


def test_domain_errors():
    with pytest.raises(DomainError):
        gauss_jacobi(0, 0.0)
    with pytest.raises(DomainError):
        gauss_jacobi(MAX_NODES + 1, 0.0)
    with pytest.raises(DomainError):
        gauss_jacobi(10, -1.0)
    with pytest.raises(DomainError):
        scale_rule(gauss_jacobi(5, 0.0), 0.0)
    with pytest.raises(DomainError):
        scale_rule(gauss_jacobi(5, 0.0), -2.0)
