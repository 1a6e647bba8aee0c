import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from hardedge import (
    DomainError,
    KernelSpec,
    bessel_entire,
    bessel_pair,
    bessel_spec,
    finite_cdf,
    finite_spec,
    finite_table,
    kernel_expansion_residual,
    kernel_matrix,
)
from hardedge import kernels, nystrom_det
from hardedge.kernels import _kernel_blocks
from hardedge.quadrature import MAX_NODES, gauss_jacobi, scale_rule


def bessel_kernel_direct(a, x, y):
    """Classic closed form (pre-conjugation), usable away from the diagonal."""
    sx, sy = math.sqrt(x), math.sqrt(y)
    num = sy * sp.jv(a, sx) * sp.jv(a - 1.0, sy) - sx * sp.jv(a - 1.0, sx) * sp.jv(a, sy)
    return float(num) / (2.0 * (x - y))


def entry(spec, x, y):
    """Khat(x, y) as the off-diagonal entry of the 2-node kernel matrix."""
    return kernel_matrix(spec, np.array([x, y]))[0, 1]


def hat_j(a, x):
    """hat_j_a(x) = x^{-a/2} J_a(sqrt x) = 2^{-a} j_a(x/4), on a float or an array."""
    return 2.0 ** -a * bessel_entire(a, 0.25 * x)


def pair_residual(a, n, c, x, y):
    """K_n - K + c/(8n) hat_j hat_j^T at (x, y), from the 2-node matrices."""
    pair = np.array([x, y])
    j = hat_j(a, pair)
    return (kernel_matrix(finite_spec(a, n, c), pair)[0, 1]
            - kernel_matrix(bessel_spec(a), pair)[0, 1] + (c / (8.0 * n)) * (j[0] * j[1]))


def assert_pairs_match(spec, nodes, n=12, c=0.0):
    """Every entry of the matrix on nodes is the entry of its pair's 2-node
    matrix, and the float pair residual at order n and c is the residual of
    the pair's 2-node matrices, both bit for bit: a pair misjudged at the
    near-diagonal window either way would lose digits or divide by zero."""
    matrix = kernel_matrix(spec, nodes)
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            assert matrix[i, j] == entry(spec, x, y), (i, j)
            assert kernel_expansion_residual(spec.a, n, c, x, y) == pair_residual(
                spec.a, n, c, x, y), (i, j)


def phi_direct(k, a, x):
    return math.exp(
        0.5 * (sp.gammaln(k + 1) - sp.gammaln(k + a + 1)) - 0.5 * x + 0.5 * a * math.log(x)
    ) * float(sp.eval_genlaguerre(k, a, x))


class TestKernelSpec:
    def test_scales(self):
        assert finite_spec(1.0, 10).scale == pytest.approx(1.0 / 40.0)
        assert finite_spec(1.0, 10, c=0.0).scale == pytest.approx((1.0 - 0.05) / 40.0)
        # c = -a makes the modified map coincide with the plain one exactly
        assert finite_spec(1.0, 10, c=-1.0).scale == finite_spec(1.0, 10).scale

    def test_standard_scaling_is_the_member_c_minus_a(self):
        # the plain scaling is stored as c = -a, so it is that family member,
        # scale included, and its tables are the custom(-a) tables
        for a in (-0.999, -0.5, -0.0, 0.0, 1e-300, 1.0 / 3.0, 0.5, 2.0, 7.25, 101.5, 1000.0):
            for n in (1, 2, 3, 7, 20, 999, 1000, 10**6):
                spec = finite_spec(a, n)
                assert spec == finite_spec(a, n, c=-a) == KernelSpec(a=a, n=n)
                assert spec.c == -a
                assert spec.scale == finite_spec(a, n, c=-a).scale
        for a, n, s in ((0.5, 20, 4.0), (2.0, 1, 4.0), (1.0 / 3.0, 1000, 40.0)):
            s_values = [0.5 * s, s]
            assert (finite_table(a, n, s_values).rows
                    == finite_table(a, n, s_values, "custom", c=-a).rows)

    def test_validation(self):
        with pytest.raises(DomainError):
            KernelSpec(a=-1.5)
        with pytest.raises(DomainError):
            KernelSpec(a=0.0, n=0)
        with pytest.raises(DomainError, match="limit kernel takes no c"):
            KernelSpec(a=0.0, c=0.5)
        with pytest.raises(DomainError):
            finite_spec(2.0, 1, c=0.0)  # tuned factor 1 - a/(2n) hits zero
        with pytest.raises(DomainError):
            bessel_spec(0.0).scale
        with pytest.raises(DomainError, match="must be finite"):
            KernelSpec(0.5, 5, c=math.inf)
        for n in (math.nan, math.inf, 2.5):
            with pytest.raises(DomainError):
                KernelSpec(a=0.0, n=n)
        with pytest.raises(DomainError, match="finite kernel needs an order n"):
            finite_spec(0.0, None)
        # the family is read off n
        assert bessel_spec(0.5).family == "bessel" and finite_spec(0.5, 5).family == "finite"

    @pytest.mark.parametrize("n", [10**6 + 1, 10**21])
    def test_order_cap(self, n):
        # one past the largest order, refused before an array of n + 1 doubles is sized
        with pytest.raises(DomainError, match=r"order n must be an integer in \[1, 1000000\]"):
            finite_spec(0.5, n)
        with pytest.raises(DomainError, match="order n"):
            finite_cdf(0.5, n, 4.0)

    def test_integral_float_order(self):
        # stored as an int, so the Laguerre recurrences can count with it
        spec = KernelSpec(a=0.5, n=5.0)
        assert type(spec.n) is int and spec == finite_spec(0.5, 5)
        nodes = scale_rule(gauss_jacobi(10, 0.5), 4.0).nodes
        assert np.array_equal(kernel_matrix(spec, nodes), kernel_matrix(finite_spec(0.5, 5), nodes))


class TestBesselKernel:
    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.0, 2.0])
    def test_against_direct_form(self, a):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y = sorted(rng.uniform(0.05, 30.0, size=2))
            if y - x < 1e-3:
                continue
            ours = entry(bessel_spec(a), x, y) * (x * y) ** (a / 2.0)
            assert ours == pytest.approx(bessel_kernel_direct(a, x, y), rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("a", [-0.9, 0.5, 3.0, 10.0])
    def test_small_arguments_against_mpmath(self, a):
        # off-diagonal entries at x, y in [1e-6, 1], where a j_a(u) j_a(v)
        # term cancels in the j_{a-1} form; reference in 50 digits from the
        # series j_a(z) = 0F1(; a+1; -z) / Gamma(a+1), error scaled by the
        # diagonal sqrt(Khat(x, x) Khat(y, y))
        nodes = np.geomspace(1e-6, 1.0, 13)
        ours = kernel_matrix(bessel_spec(a), nodes)
        with mp.workdps(50):
            am = mp.mpf(a)

            def j(order, z):
                return mp.hyp0f1(order + 1, -z) / mp.gamma(order + 1)

            u = [mp.mpf(x) / 4 for x in nodes]
            ja = [j(am, ui) for ui in u]
            jm = [j(am - 1, ui) for ui in u]
            jp = [j(am + 1, ui) for ui in u]
            front = mp.mpf(4) ** (-am - 1)
            diag = [front * (ja[i] ** 2 - jm[i] * jp[i]) for i in range(nodes.size)]
            for i, k in np.ndindex(ours.shape):
                if i == k:
                    continue
                ref = front * (ja[i] * jm[k] - jm[i] * ja[k]) / (u[i] - u[k])
                scale = mp.sqrt(diag[i] * diag[k])
                assert abs(ours[i, k] - ref) <= 1e-13 * scale, (i, k)
                pair = entry(bessel_spec(a), nodes[i], nodes[k])
                assert abs(pair - ref) <= 1e-13 * scale, (i, k)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for a in [-0.5, 0.3, 2.0]:
            for _ in range(20):
                x, y = rng.uniform(0.0, 20.0, size=2)
                lhs = entry(bessel_spec(a), x, y)
                rhs = entry(bessel_spec(a), y, x)
                assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))

    def test_origin_value(self):
        # at a = 0 the confluent value at the origin is 1/4
        assert entry(bessel_spec(0.0), 0.0, 0.0) == pytest.approx(0.25, rel=1e-14)

    def test_finite_at_zero_arguments(self):
        for a in [-0.9, -0.5, 0.0, 0.7, 3.0]:
            assert math.isfinite(entry(bessel_spec(a), 0.0, 0.0))
            assert math.isfinite(entry(bessel_spec(a), 0.0, 2.0))

    def test_offdiagonal_approaches_diagonal(self):
        a, x = 0.7, 3.0
        diag = entry(bessel_spec(a), x, x)
        errors = [abs(entry(bessel_spec(a), x, x + h) - diag) for h in (1e-3, 1e-4, 1e-5)]
        assert errors[0] < 1e-4
        # O(h): each decade in h drops the error by roughly ten
        assert errors[1] < 0.2 * errors[0]
        assert errors[2] < 0.2 * errors[1]

    def test_confluent_value_by_richardson(self):
        # symmetric difference quotients carry only even-order errors, so one
        # Richardson step pins the diagonal to O(h^4)
        for a, x in [(0.0, 1.0), (0.7, 3.0), (2.0, 7.5), (-0.5, 0.5)]:
            diag = entry(bessel_spec(a), x, x)

            def symmetric(h):
                return entry(bessel_spec(a), x - h, x + h)

            h = 1e-2 * max(1.0, x)
            extrapolated = (4.0 * symmetric(0.5 * h) - symmetric(h)) / 3.0
            assert abs(extrapolated - diag) < 1e-8, (a, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            entry(bessel_spec(0.0), -0.1, 1.0)
        with pytest.raises(DomainError):
            entry(bessel_spec(0.0), 1.0, 1601.0)


class TestFiniteKernel:
    def test_order_one_closed_form(self):
        # rank-one kernel e^{-(X+Y)/2} under X = x/4 gives e^{-(x+y)/8}/4
        spec = finite_spec(0.0, 1)
        for x, y in [(0.3, 2.0), (1.0, 1.0), (5.0, 0.1)]:
            expected = 0.25 * math.exp(-(x + y) / 8.0)
            assert entry(spec, x, y) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_symmetry(self, n, a):
        spec = finite_spec(a, n)
        rng = np.random.default_rng(n)
        for _ in range(10):
            x, y = rng.uniform(0.0, 12.0, size=2)
            lhs = entry(spec, x, y)
            rhs = entry(spec, y, x)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("n", [1, 5, 25, 50])
    def test_closed_form_equals_projection_sum(self, n):
        # independent oracle: sum_{k<n} phi_k(X) phi_k(Y) via scipy, then the
        # change of variables and the (xy)^{-a/2} conjugation
        a, c = 1.3, 0.4
        spec = finite_spec(a, n, c=c)
        rho = spec.scale
        rng = np.random.default_rng(n + 1)
        for _ in range(6):
            x, y = rng.uniform(0.1, 8.0, size=2)
            if abs(x - y) < 1e-3:
                continue
            total = sum(phi_direct(k, a, rho * x) * phi_direct(k, a, rho * y) for k in range(n))
            oracle = rho * (x * y) ** (-a / 2.0) * total
            ours = entry(spec, x, y)
            assert abs(ours - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_diagonal_equals_projection_sum(self):
        a, n = 0.7, 20
        spec = finite_spec(a, n)
        rho = spec.scale
        for x in [0.5, 3.0, 9.0]:
            total = sum(phi_direct(k, a, rho * x) ** 2 for k in range(n))
            oracle = rho * x ** (-a) * total
            assert entry(spec, x, x) == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("a", [-0.9, 0.5, 2.0])
    def test_matrix_at_high_order_against_mpmath(self, a):
        # n = 1000 on a 10-node rule for (0, 40), in 50-digit arithmetic and
        # scaled by the largest entry: off the diagonal the closed form with
        # mpmath's L_n^a and L_n^{a-1}, on it
        # rho^{a+1} e^{-rho x} sum_{k<n} k!/Gamma(k+a+1) L_k^a(rho x)^2 by the
        # ascending recurrence
        n = 1000
        spec = finite_spec(a, n)
        nodes = scale_rule(gauss_jacobi(10, a), 40.0).nodes
        ours = kernel_matrix(spec, nodes)
        ref = np.empty_like(ours)
        with mp.workdps(50):
            am, rho = mp.mpf(a), mp.mpf(spec.scale)
            t = [mp.mpf(spec.scale * x) for x in nodes]
            upper = [mp.laguerre(n, am, ti) for ti in t]
            lower = [mp.laguerre(n, am - 1, ti) for ti in t]
            prefactor = mp.factorial(n) / mp.gamma(n + am) * rho ** am
            for i, j in np.ndindex(ours.shape):
                if i != j:
                    ref[i, j] = prefactor * mp.exp(-(t[i] + t[j]) / 2) * (
                        upper[i] * lower[j] - lower[i] * upper[j]
                    ) / (mp.mpf(nodes[i]) - mp.mpf(nodes[j]))
            for i, ti in enumerate(t):
                prev, curr, coeff = mp.mpf(0), mp.mpf(1), 1 / mp.gamma(am + 1)
                total = coeff
                for k in range(n - 1):
                    prev, curr = curr, ((2 * k + 1 + am - ti) * curr - (k + am) * prev) / (k + 1)
                    coeff *= mp.mpf(k + 1) / (k + am + 1)
                    total += coeff * curr * curr
                ref[i, i] = rho ** (am + 1) * mp.exp(-ti) * total
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_finite_at_zero(self):
        for a in [-0.5, 0.0, 2.0]:
            spec = finite_spec(a, 7)
            assert math.isfinite(entry(spec, 0.0, 0.0))
            assert math.isfinite(entry(spec, 0.0, 3.0))

    def test_no_overflow_large_order(self):
        spec = finite_spec(10.0, 1000)
        value = entry(spec, 1.0, 2.0)
        assert math.isfinite(value)
        assert math.isfinite(entry(spec, 3.0, 3.0))


class TestHatJ:
    # hat_j_a at the nodes comes out of every limit-kernel assembly as the
    # resolvent right-hand side; these are its oracles

    def blocks_hat_j(self, a, x):
        [(_, values)] = _kernel_blocks(bessel_spec(a), [np.asarray(x, dtype=float)[None]])
        return values[0]

    def test_origin(self):
        assert self.blocks_hat_j(0.0, [0.0, 1.0])[0] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 2.5])
    def test_value_at_origin(self, a):
        # hat_j_a(0) = 2^{-a}/Gamma(a+1) is finite for every a > -1, though
        # J_a(sqrt x) itself is singular at 0 for a < 0
        value = self.blocks_hat_j(a, [0.0, 1.0])[0]
        assert value == pytest.approx(2.0 ** -a * math.exp(-math.lgamma(a + 1.0)), rel=1e-14)

    def test_matches_scipy(self):
        for a in [0.5, 1.0, 2.0]:
            for x, value in zip([0.3, 2.0, 17.0], self.blocks_hat_j(a, [0.3, 2.0, 17.0])):
                ref = float(sp.jv(a, math.sqrt(x))) * x ** (-a / 2.0)
                assert value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.0, 2.5])
    def test_j_of_sqrt_against_scipy(self, a):
        # J_a(sqrt x) = x^{a/2} hat_j_a(x)
        x = np.linspace(0.01, 400.0, 57)
        for xi, value in zip(x, self.blocks_hat_j(a, x)):
            ref = float(sp.jv(a, math.sqrt(xi)))
            assert xi ** (a / 2.0) * value == pytest.approx(ref, abs=1e-12), (a, xi)

    def test_half_integer_zero_of_sine(self):
        # J_{1/2}(pi) = sqrt(2/pi^2) sin(pi) = 0
        x = math.pi ** 2
        assert abs(x ** 0.25 * self.blocks_hat_j(0.5, [x, 1.0])[0]) < 1e-13

    def test_squared_consistency_of_two_series_routes(self):
        # x^{a/2} hat_j_a(x) against the hypergeometric series
        # J_a(sqrt x) = (x/4)^{a/2} 0F1(; a+1; -x/4) / Gamma(a+1)
        x = np.linspace(0.5, 400.0, 25)
        for a in [-0.5, 0.0, 0.5, 1.0, 2.5]:
            for xi, value in zip(x, self.blocks_hat_j(a, x)):
                with mp.workdps(60):
                    q = mp.mpf(xi) / 4
                    direct = float(q ** (mp.mpf(a) / 2) * mp.hyp0f1(a + 1, -q) / mp.gamma(a + 1))
                ours = xi ** (a / 2.0) * value
                assert abs(ours ** 2 - direct ** 2) <= 1e-12 * max(1.0, direct ** 2), (a, xi)


class TestKernelExpansion:
    def test_residual_second_order_pointwise(self):
        x, y = 1.0, 2.0
        for c in (0.0, -1.0):
            scaled = [
                abs(kernel_expansion_residual(1.0, n, c, x, y)) * n * n
                for n in (50, 100, 200, 400)
            ]
            assert max(scaled) < 1.0
            assert max(scaled) < 2.0 * min(scaled)

    def test_linearity_in_scaling_parameter(self):
        a, n, x, y = 0.7, 40, 2.0, 5.0
        corr = hat_j(a, x) * hat_j(a, y)
        k0 = entry(finite_spec(a, n, c=0.0), x, y)
        k1 = entry(finite_spec(a, n, c=1.0), x, y)
        lhs = kernel_expansion_residual(a, n, 0.0, x, y) - kernel_expansion_residual(
            a, n, 1.0, x, y
        )
        # exact affine decomposition of the residual difference in c ...
        assert lhs == pytest.approx((k0 - k1) - corr / (8.0 * n), rel=1e-12, abs=1e-16)
        # ... whose kernel part is the rank-one correction up to second order
        assert abs((k0 - k1) - corr / (8.0 * n)) * n * n < 1.0

    def test_diagonal_included(self):
        value = kernel_expansion_residual(1.0, 100, 0.0, 3.0, 3.0)
        assert math.isfinite(value)
        assert abs(value) * 100 ** 2 < 1.0

    @pytest.mark.parametrize("a", [1 / 3, 2.0])
    @pytest.mark.parametrize("n", [127, 128, 129, 400])
    def test_float_route_equals_the_matrices(self, n, a):
        # around a block of the float pass's step tables (128 degrees) and at
        # n = 400: diagonal pairs, near-diagonal pairs inside the window
        # (2e-6 < 1e-6 * 5) and off-diagonal pairs, one of them at x = 0
        nodes = np.array([0.0, 0.5, 2.0, 2.0 + 1e-7, 5.0, 5.0 + 2e-6, 7.5])
        assert_pairs_match(finite_spec(a, n, 0.0), nodes, n)

    @pytest.mark.parametrize("x,message", [
        (-1.0, "finite and >= 0"), (math.inf, "finite and >= 0"), (2000.0, r"lie in \[0, 1600\]"),
    ])
    def test_refused_arguments(self, x, message):
        # below 0, not finite, and past the axis end S_MAX = 1600
        with pytest.raises(DomainError, match=message):
            kernel_expansion_residual(1.0, 20, 0.0, x, 1.0)


class TestKernelMatrix:
    @pytest.mark.parametrize("spec,s", [
        pytest.param(bessel_spec(0.7), 6.0, id="spec0"),
        pytest.param(finite_spec(0.7, 12), 6.0, id="spec1"),
        *(
            pytest.param(spec, s, id=f"{spec.family}-{spec.a}-{s}")
            for a in (-0.5, 0.0, 1.0, 3.0)
            for spec in (bessel_spec(a), finite_spec(a, 12))
            for s in (1e-3, 6.0, 40.0)
        ),
    ])
    def test_matches_pointwise(self, spec, s):
        assert_pairs_match(spec, scale_rule(gauss_jacobi(12, spec.a), s).nodes)

    @pytest.mark.parametrize("s", [1e-12, 6.0])
    def test_bessel_assembly_is_one_pair_call(self, s, monkeypatch):
        # j_a and j_{a+1} from one recurrence over the nodes (plus the
        # midpoints of any clustered pairs, as at s = 1e-12)
        calls = []

        def counting(a, z):
            calls.append(np.shape(z))
            return bessel_pair(a, z)

        monkeypatch.setattr(kernels, "bessel_pair", counting)
        nodes = scale_rule(gauss_jacobi(50, 0.5), s).nodes
        kernel_matrix(bessel_spec(0.5), nodes)
        assert len(calls) == 1
        assert len(calls[0]) == 1 and calls[0][0] >= 50

    @pytest.mark.parametrize("s", [1e-12, 6.0])
    def test_finite_assembly_is_one_recurrence_pass(self, s, monkeypatch):
        # one pass over the nodes (plus the midpoints of any clustered pairs,
        # as at s = 1e-12) yields the off-diagonal factors and the diagonal
        calls = []
        real = kernels._laguerre_pass

        def counting(n, a, t, *args, **kwargs):
            calls.append(np.shape(t))
            return real(n, a, t, *args, **kwargs)

        monkeypatch.setattr(kernels, "_laguerre_pass", counting)
        nodes = scale_rule(gauss_jacobi(50, 0.5), s).nodes
        kernel_matrix(finite_spec(0.5, 100), nodes)
        assert len(calls) == 1
        assert len(calls[0]) == 1 and calls[0][0] >= 50

    def test_hat_j_out_is_the_pointwise_hat_j(self):
        # the limit-kernel blocks carry hat_j_a at their nodes, the resolvent
        # right-hand side, bit for bit
        rule = scale_rule(gauss_jacobi(20, 1.5), 30.0)
        [(matrices, values)] = _kernel_blocks(bessel_spec(1.5), [rule.nodes[None]])
        assert np.array_equal(matrices[0], kernel_matrix(bessel_spec(1.5), rule.nodes))
        values = values[0]
        assert np.array_equal(values, hat_j(1.5, rule.nodes))
        assert list(values) == [hat_j(1.5, x) for x in rule.nodes]

    @pytest.mark.parametrize("spec", [
        pytest.param(spec, id=f"{spec.family}-a{spec.a}-n{spec.n}-c{spec.c}")
        for a in (0.5, 2.0)
        for spec in (
            bessel_spec(a),
            *(finite_spec(a, n, c) for n in (1, 1000) for c in (None, 0.0)
              if c is None or a < 2.0 * n),
        )
    ])
    @pytest.mark.parametrize("s", [4.0, 40.0])
    @pytest.mark.parametrize("clustered", [False, True])
    def test_union_blocks_equal_separate_assemblies(self, spec, s, clustered):
        # an error estimate evaluates the kernel factors once over the nodes
        # of its m and m + 10 rules; every entry is elementwise in its
        # arguments, so each block is the matrix of its rule alone, bit for bit
        first = scale_rule(gauss_jacobi(50, spec.a), s).nodes
        second = scale_rule(gauss_jacobi(60, spec.a), s).nodes
        if clustered:
            # a pair 1e-8 apart inside the second set takes the near-diagonal
            # midpoint branch; a node 1e-8 from one of the first set must not
            second = np.sort(np.concatenate((second, [second[10] + 1e-8, first[20] + 1e-8])))
        blocks = _kernel_blocks(spec, [first[None], second[None]])
        assert [matrix.shape for matrix, _ in blocks] == [(1, 50, 50),
                                                          (1, second.size, second.size)]
        for nodes, (matrix, values) in zip((first, second), blocks):
            assert np.array_equal(matrix[0], kernel_matrix(spec, nodes))
            if spec.family == "bessel":
                assert np.array_equal(values[0], hat_j(spec.a, nodes))
            else:
                assert values is None

    @pytest.mark.parametrize("spec", [bessel_spec(0.5), finite_spec(0.5, 12)],
                             ids=["bessel", "finite"])
    def test_stacked_rules_judge_their_own_window(self, spec):
        # pairs 2e-6 apart lie inside the window at x = 3 (3e-6 wide) but
        # outside it below x = 1 (1e-6 wide), where a pair 5e-7 apart lies
        # inside; a stack of rules must judge each rule on its own scale, so
        # each matrix is its rule's alone
        stack = np.array([
            [3.0, 0.0, 3.0 + 2e-6, 7.0, 3.0 + 4e-6, 2.0],
            [0.3, 0.3 + 5e-7, 0.3 + 2.5e-6, 0.7, 0.0, 0.2],
            scale_rule(gauss_jacobi(6, 0.5), 1e-9).nodes,
            scale_rule(gauss_jacobi(6, 0.5), 40.0).nodes,
        ])
        [(matrices, values)] = _kernel_blocks(spec, [stack])
        assert matrices.shape == (4, 6, 6)
        for nodes, matrix in zip(stack, matrices):
            assert np.array_equal(matrix, kernel_matrix(spec, nodes))
        if spec.family == "bessel":
            assert np.array_equal(values, hat_j(spec.a, stack))

    @pytest.mark.parametrize("spec", [bessel_spec(0.5), finite_spec(0.5, 100)],
                             ids=["bessel", "finite"])
    def test_midpoints_within_each_rule_only(self, spec, monkeypatch):
        # at s = 1e-7 every node pair is near-diagonal; an m vs m + 10
        # estimate takes the factors at the 2m + 10 nodes and one midpoint
        # per unordered pair within each rule, none across the rules
        sizes = []
        name = "bessel_pair" if spec.family == "bessel" else "_laguerre_pass"
        real = getattr(kernels, name)

        def counting(*args, **kwargs):
            sizes.append(np.size(args[-1] if spec.family == "bessel" else args[2]))
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counting)
        m = 50
        nystrom_det(spec, 1e-7, m)
        midpoints = (m * (m - 1) + (m + 10) * (m + 9)) // 2
        assert sizes == [2 * m + 10 + midpoints]

    @pytest.mark.parametrize("nodes", [
        pytest.param(scale_rule(gauss_jacobi(30, 0.5), 6.0).nodes, id="spread"),
        pytest.param(scale_rule(gauss_jacobi(30, 0.5), 1e-5).nodes, id="some-near"),
        pytest.param(np.array([3.0, 0.0, 3.0 + 2e-6, 7.0, 3.0 + 4e-6, 2.0]), id="window-edge"),
        pytest.param(np.array([1.0, 1.0, 0.5]), id="duplicate"),
        pytest.param(np.array([2.0]), id="single"),
    ])
    def test_window_edge_nodes_match_pointwise(self, nodes):
        # the matrix takes the confluent branch on exactly the pairs where its
        # 2-node matrices and the float pair residual do
        for spec in (bessel_spec(0.5), finite_spec(0.5, 12)):
            assert_pairs_match(spec, nodes)

    def test_exact_symmetry(self):
        for spec in (bessel_spec(-0.5), finite_spec(1.5, 30)):
            rule = scale_rule(gauss_jacobi(25, spec.a), 9.0)
            matrix = kernel_matrix(spec, rule.nodes)
            assert np.array_equal(matrix, matrix.T)

    def test_clustered_nodes_use_confluent_branch(self):
        # a tiny interval pushes every node pair under the branch threshold
        spec = bessel_spec(0.0)
        nodes = scale_rule(gauss_jacobi(8, 0.0), 1e-12).nodes
        matrix = kernel_matrix(spec, nodes)
        assert np.all(np.isfinite(matrix))
        assert np.max(np.abs(matrix - 0.25)) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_matrix(bessel_spec(0.0), np.array([-1.0, 2.0]))
        with pytest.raises(DomainError, match="one-dimensional"):
            kernel_matrix(bessel_spec(0.0), np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, 1600.5, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("spec", [bessel_spec(0.5), finite_spec(0.5, 12)],
                             ids=["bessel", "finite"])
    def test_nodes_off_the_axis(self, spec, bad):
        # below 0, past S_MAX, nan or infinite, wherever it sits in the stack
        for nodes in ([bad, 1.0, 2.0], [1.0, bad, 2.0], [1.0, 2.0, bad]):
            with pytest.raises(DomainError, match=r"kernel nodes must lie in \[0, 1600\]"):
                _kernel_blocks(spec, [np.array([[0.5, 1.0, 2.0], nodes])])
        assert kernel_matrix(spec, np.array([0.0, 1600.0])).shape == (2, 2)

    @pytest.mark.parametrize("spec", [bessel_spec(0.5), finite_spec(0.5, 12)],
                             ids=["bessel", "finite"])
    def test_rule_size_cap(self, spec, monkeypatch):
        # a rule past the largest a determinant builds is refused before its
        # (S, m, m) arrays or any factor exist; the largest one is accepted
        assert kernel_matrix(spec, np.linspace(0.0, 8.0, MAX_NODES)).shape == (MAX_NODES,) * 2
        monkeypatch.setattr(kernels, "_factors", lambda *args: pytest.fail("factors computed"))
        with pytest.raises(DomainError, match=f"at most {MAX_NODES} nodes, got {MAX_NODES + 1}"):
            kernel_matrix(spec, np.linspace(0.0, 8.0, MAX_NODES + 1))

    @pytest.mark.parametrize("spec", [bessel_spec(0.5), finite_spec(0.5, 12)],
                             ids=["bessel", "finite"])
    def test_blocks_take_stacks_only(self, spec):
        # a node set is an (S, m) stack; kernel_matrix passes its rule as (1, m)
        with pytest.raises(DomainError):
            _kernel_blocks(spec, [np.array([0.5, 1.0, 2.0])])
