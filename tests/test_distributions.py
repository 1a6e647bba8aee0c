import math

import numpy as np
import pytest
from scipy.special import gammaincc

from hardedge import (
    AccuracyError,
    DeterminantResult,
    DomainError,
    bessel_entire,
    bessel_spec,
    finite_cdf,
    finite_spec,
    finite_table,
    limit_cdf,
    limit_density,
    limit_table,
    log_derivative,
    nystrom_det,
    resolvent_quadratic_form,
)
from hardedge import fredholm
from hardedge.distributions import DistributionTable, TableRow
from hardedge.errors import NumericError
from hardedge.kernels import _kernel_blocks, kernel_matrix
from hardedge.quadrature import gauss_jacobi, scale_rule


@pytest.fixture
def assemblies(monkeypatch):
    """Node counts of the kernel assemblies made from here on in a test: one
    tuple per kernel evaluation, one count per node set (block) in it."""
    sizes = []

    def counting(spec, node_sets):
        sizes.append(tuple(nodes.size for nodes in node_sets))
        return _kernel_blocks(spec, node_sets)

    monkeypatch.setattr(fredholm, "_kernel_blocks", counting)
    return sizes


class TestLimitCdf:
    @pytest.mark.parametrize("s", [0.1, 1.0, 4.0, 10.0])
    def test_exponential_law(self, s):
        assert limit_cdf(0.0, s, 50).value == pytest.approx(math.exp(-s / 4.0), abs=1e-12)

    def test_tiny_interval(self):
        assert limit_cdf(1.5, 1e-12, 30).value == pytest.approx(1.0, abs=1e-10)

    def test_monotone(self):
        first = limit_cdf(2.0, 1.0, 40).value
        second = limit_cdf(2.0, 2.0, 40).value
        assert 0.0 < second < first < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            limit_cdf(-1.5, 1.0)
        with pytest.raises(DomainError):
            limit_cdf(0.0, -1.0)
        with pytest.raises(DomainError):
            limit_cdf(0.0, 1601.0)
        for m in (math.nan, math.inf):
            with pytest.raises(DomainError):
                limit_cdf(0.5, 4.0, m=m)

    def test_mass_overflow_refused(self):
        # the rule's weights carry s^{a+1}, beyond the double range here
        with pytest.raises(AccuracyError):
            limit_cdf(200.0, 40.0)

    def test_mass_underflow_refused(self):
        # s^{a+1} underflows to zero: outside the double range, not a failed rule
        with pytest.raises(AccuracyError):
            limit_cdf(200.0, 0.001)


class TestFiniteCdf:
    @pytest.mark.parametrize("s", [1.0, 4.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_order_one_law(self, a, s):
        # a single eigenvalue with density x^a e^{-x}: survival is Q(a+1, s/4)
        value = finite_cdf(a, 1, s, scaling="standard", m=50).value
        assert value == pytest.approx(gammaincc(a + 1.0, s / 4.0), abs=1e-11)

    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_exponential_law_any_order(self, n):
        value = finite_cdf(0.0, n, 4.0, scaling="standard", m=50).value
        assert value == pytest.approx(math.exp(-1.0), abs=1e-11)

    def test_scalings_coincide_at_a_zero(self):
        plain = finite_cdf(0.0, 7, 3.0, scaling="standard", m=40).value
        tuned = finite_cdf(0.0, 7, 3.0, scaling="optimal", m=40).value
        assert plain == tuned

    def test_custom_minus_a_matches_standard(self):
        # c = -a zeroes the modification, so the scale maps are identical
        plain = finite_cdf(1.5, 9, 4.0, scaling="standard", m=40).value
        custom = finite_cdf(1.5, 9, 4.0, scaling="custom", m=40, c=-1.5).value
        assert plain == custom

    def test_converges_to_limit(self):
        a, s = 1.0, 4.0
        target = limit_cdf(a, s, 60).value
        gaps = [
            abs(finite_cdf(a, n, s, scaling="standard", m=60).value - target)
            for n in (50, 100, 200, 400)
        ]
        assert all(b < a_ for a_, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 5e-3

    def test_scaling_validation(self):
        with pytest.raises(DomainError):
            finite_cdf(1.0, 5, 2.0, scaling="nonsense")
        with pytest.raises(DomainError):
            finite_cdf(1.0, 5, 2.0, scaling="custom")  # c missing
        with pytest.raises(DomainError):
            finite_cdf(1.0, 5, 2.0, scaling="standard", c=0.5)

    def test_mass_overflow_refused(self):
        with pytest.raises(AccuracyError):
            finite_cdf(200.0, 1000, 40.0)

    def test_mass_underflow_refused(self):
        with pytest.raises(AccuracyError):
            finite_cdf(200.0, 20, 0.001)

    def test_kernel_constant_overflow_refused(self):
        # binom(n+a, n) ~ e^{834} at (a, n) = (400, 1000): the kernel's
        # weights leave the double range while the quadrature at s = 1 does not
        with pytest.raises(AccuracyError):
            finite_cdf(400.0, 1000, 1.0)

    def test_order_validation(self):
        # a non-integral n is refused, not truncated to int(n)
        for n in (2.5, 100.5, 0, -3, math.nan, math.inf):
            with pytest.raises(DomainError):
                finite_cdf(1.0, n, 4.0)
        assert finite_cdf(1.0, 100.0, 4.0) == finite_cdf(1.0, 100, 4.0)
        assert finite_cdf(1.0, 100.0, 4.0, scaling="optimal") == finite_cdf(
            1.0, 100, 4.0, scaling="optimal")


def two_assembly_result(spec, s, m) -> DeterminantResult:
    """The m vs m+10 estimate from a separate kernel_matrix per rule, each
    I - A factored as the library factors it: by Cholesky, the m-node
    limit-kernel system bordered by b = sqrt(w) hat_j_a and 2^600."""
    values = []
    for size in (m, m + 10):
        rule = scale_rule(gauss_jacobi(size, spec.a), s)
        sqrt_w = np.sqrt(rule.weights)
        a_mat = sqrt_w[:, None] * kernel_matrix(spec, rule.nodes) * sqrt_w[None, :]
        system = np.eye(size) - a_mat
        if spec.family == "bessel" and size == m:
            b = sqrt_w * (2.0 ** -spec.a * bessel_entire(spec.a, 0.25 * rule.nodes))
            system = np.block([[system, b[:, None]], [b[None, :], 2.0 ** 600]])
        pivots = np.diag(np.linalg.cholesky(system))[:size]
        values.append(math.exp(2.0 * np.log(pivots).sum()))
    return DeterminantResult(value=values[0], error_estimate=abs(values[0] - values[1]), m=m)


class TestErrorEstimateAssembly:
    @pytest.mark.parametrize("law,args,spec,s,m", [
        pytest.param(limit_cdf, dict(a=0.5), bessel_spec(0.5), 4.0, 50, id="limit-a0.5"),
        pytest.param(limit_cdf, dict(a=2.0), bessel_spec(2.0), 23.0, 40, id="limit-a2"),
        pytest.param(finite_cdf, dict(a=0.5, n=1000), finite_spec(0.5, 1000), 4.0, 50,
                     id="standard-n1000"),
        pytest.param(finite_cdf, dict(a=2.0, n=20, scaling="optimal"), finite_spec(2.0, 20, c=0.0),
                     40.0, 60, id="optimal-n20"),
        pytest.param(finite_cdf, dict(a=1.5, n=7, scaling="custom", c=0.3),
                     finite_spec(1.5, 7, c=0.3), 9.0, 45, id="custom-n7"),
    ])
    def test_one_kernel_evaluation(self, law, args, spec, s, m, assemblies):
        # the m and m + 10 rules share one kernel evaluation over both node
        # sets, one block each, and the result equals two separate
        # assemblies bit for bit
        reference = two_assembly_result(spec, s, m)
        for evaluate in (lambda: law(s=s, m=m, **args), lambda: nystrom_det(spec, s, m)):
            assemblies.clear()
            assert evaluate() == reference
            assert assemblies == [(m, m + 10)]


class TestLimitDensity:
    def test_exponential_law_derivative(self):
        assert limit_density(0.0, 4.0, 50) == pytest.approx(-math.exp(-1.0) / 4.0, abs=1e-10)

    @pytest.mark.parametrize("a,s", [(0.5, 2.0), (2.0, 6.0)])
    def test_methods_agree(self, a, s):
        # against F times the finite-difference log-derivative
        smooth = limit_density(a, s, 50)
        stepped = limit_cdf(a, s, 50).value * log_derivative(
            bessel_spec(a), s, 50, "finite_difference")
        assert smooth < 0.0
        assert abs(smooth - stepped) < 1e-6

    def test_bounded_near_origin(self):
        value = limit_density(2.0, 1e-4, 40)
        assert math.isfinite(value)
        assert -1.0 < value <= 0.0

    @pytest.mark.parametrize("a,s", [(0.5, 2.0), (3.0, 25.0)])
    def test_one_assembly(self, a, s, assemblies):
        # determinant and resolvent solve share one assembly of I - A
        value = limit_density(a, s, 50)
        assert assemblies == [(50,)]
        reference = limit_cdf(a, s, 50).value * log_derivative(bessel_spec(a), s, 50)
        assert value == pytest.approx(reference, rel=1e-13, abs=0.0)


class TestResolventIdentity:
    @pytest.mark.parametrize("a,s", [(0.5, 2.0), (2.0, 6.0)])
    def test_quadratic_form_is_log_slope(self, a, s):
        # -u/4 against s f/F with f/F from the independent difference route
        quad = resolvent_quadratic_form(bessel_spec(a), s, 50)
        log_slope = log_derivative(bessel_spec(a), s, 50, "finite_difference")
        assert abs(-0.25 * quad - s * log_slope) < 1e-8


class TestTables:
    def test_limit_table_matches_pointwise(self):
        grid = [0.5, 1.0, 2.0, 4.0]
        table = limit_table(1.0, grid, m=40, density=True)
        assert [row.s for row in table.rows] == grid
        for row in table.rows:
            assert row.F == limit_cdf(1.0, row.s, 40).value
            assert row.f <= 0.0
            assert row.F_err < 1e-12

    def test_density_table_shares_assemblies(self, assemblies):
        # F, F_err and f of every row come from one kernel evaluation over
        # the m and m + 10 rules of all three s, one stacked block per m
        table = limit_table(2.0, [0.5, 3.0, 9.0], m=40, density=True)
        assert assemblies == [(3 * 40, 3 * 50)]
        for row in table.rows:
            det = limit_cdf(2.0, row.s, 40)
            assert (row.F, row.F_err) == (det.value, det.error_estimate)
            assert row.f == limit_density(2.0, row.s, 40)

    @pytest.mark.parametrize("build", [
        lambda: limit_table(0.5, [], m=math.nan),
        lambda: limit_table(math.nan, []),
        lambda: finite_table(0.5, math.nan, []),
        lambda: finite_table(0.5, 2.5, []),
        lambda: finite_table(0.5, 2, [], m=math.inf),
    ])
    def test_empty_grid_arguments_checked(self, build):
        # with no rows to evaluate, the table itself refuses a bad a, n or m
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: limit_table(0.0, [1.0, 2.0, 2000.0]),
        lambda: finite_table(1.0, 20, [1.0, 2.0, 0.0]),
    ], ids=["limit-above-range", "finite-zero"])
    def test_every_s_checked_before_the_first_row(self, build, assemblies):
        # the bad s comes last: it is refused before any kernel evaluation
        with pytest.raises(DomainError, match="s must lie in"):
            build()
        assert assemblies == []

    def test_finite_table_ordering_and_range(self):
        table = finite_table(0.5, 8, [1.0, 2.0, 4.0, 8.0], m=40)
        values = [row.F for row in table.rows]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)
        assert table.n == 8 and table.scaling == "standard"

    def test_validation_catches_bad_rows(self):
        bad = DistributionTable(
            a=0.0, n=None, scaling="limit", m=10,
            rows=(TableRow(1.0, 0.5, None, 0.0), TableRow(2.0, 0.7, None, 0.0)),
        )
        with pytest.raises(NumericError):
            bad.validate()
        positive_f = DistributionTable(
            a=0.0, n=None, scaling="limit", m=10,
            rows=(TableRow(1.0, 0.5, 0.2, 0.0),),
        )
        with pytest.raises(NumericError):
            positive_f.validate()
        for value in (0.0, 1.5):
            out_of_range = DistributionTable(
                a=0.0, n=None, scaling="limit", m=10,
                rows=(TableRow(1.0, value, None, 0.0),),
            )
            with pytest.raises(NumericError, match=r"escaped \(0, 1\]"):
                out_of_range.validate()
