import math
import re

import numpy as np
import pytest
from scipy import integrate as sint
from scipy import special as sp

from hardedge import (
    AccuracyError,
    DomainError,
    bessel_entire,
    bessel_spec,
    conjecture_residual,
    finite_cdf,
    finite_spec,
    finite_table,
    gram_det,
    kernel_matrix,
    limit_cdf,
    limit_density,
    limit_table,
    log_derivative,
    nystrom_det,
    optimal_scaling_residual,
    resolvent_quadratic_form,
    uncorrected_difference,
)
from hardedge import HardEdgeError, NumericError, fredholm
from hardedge.kernels import _kernel_blocks
from hardedge.quadrature import gauss_jacobi, scale_rule

E_INV = math.exp(-1.0)


class TestNystromDet:
    def test_vanishing_interval(self):
        result = nystrom_det(bessel_spec(1.0), 1e-12, 30)
        assert result.value == pytest.approx(1.0, abs=1e-10)

    def test_exponential_law_anchor(self):
        # at a = 0 the limit law is exactly e^{-s/4}
        result = nystrom_det(bessel_spec(0.0), 4.0, 50)
        assert result.value == pytest.approx(E_INV, abs=1e-12)
        assert result.error_estimate < 1e-13
        assert result.m == 50

    def test_monotone_decreasing_in_s(self):
        values = [nystrom_det(bessel_spec(0.5), s, 40).value for s in np.linspace(0.5, 12.0, 12)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("a", [-0.5, 0.0, 2.0])
    @pytest.mark.parametrize("s", [1.0, 10.0])
    def test_spectral_convergence(self, a, s):
        coarse = nystrom_det(bessel_spec(a), s, 20).value
        fine = nystrom_det(bessel_spec(a), s, 40).value
        assert abs(coarse - fine) < 1e-12

    def test_value_in_unit_interval(self):
        for s in [0.5, 5.0, 20.0, 40.0]:
            value = nystrom_det(bessel_spec(1.5), s, 40).value
            assert 0.0 < value <= 1.0 + 1e-12

    def test_range_checked_on_every_determinant(self, monkeypatch):
        # det(I + A) > 1 breaks the range invariant 0 < det <= 1; the
        # difference path, which reads bare determinants, must refuse it too
        def negated(spec, node_sets):
            return [(-kernel, hat_j) for kernel, hat_j in _kernel_blocks(spec, node_sets)]

        monkeypatch.setattr(fredholm, "_kernel_blocks", negated)
        with pytest.raises(NumericError):
            nystrom_det(bessel_spec(1.0), 4.0, 30)
        with pytest.raises(NumericError):
            log_derivative(bessel_spec(1.0), 4.0, 30, method="finite_difference")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nystrom_det(bessel_spec(0.0), 0.0, 30)
        with pytest.raises(DomainError):
            nystrom_det(bessel_spec(0.0), 4.0, 3)
        with pytest.raises(DomainError):
            nystrom_det(bessel_spec(0.0), 4.0, 495)


class TestGramOracle:
    def test_order_one_exponential(self):
        for t in [0.2, 1.0, 3.0]:
            assert gram_det(0.0, 1, t, 30) == pytest.approx(math.exp(-t), rel=1e-12)

    def test_order_one_incomplete_gamma(self):
        for a in [-0.5, 0.5, 2.0]:
            for t in [0.5, 2.0]:
                expected = sp.gammaincc(a + 1.0, t)
                assert gram_det(a, 1, t, 40) == pytest.approx(expected, rel=1e-12)

    def test_tiny_interval(self):
        assert gram_det(1.0, 5, 1e-10, 40) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_non_finite_node_count(self, m):
        with pytest.raises(DomainError):
            gram_det(1.0, 2, 1.0, m)

    def test_needs_enough_nodes(self):
        with pytest.raises(AccuracyError):
            gram_det(1.0, 30, 1.0, 45)

    def test_mass_overflow_refused(self):
        with pytest.raises(AccuracyError):
            gram_det(200.0, 20, 40.0, 60)

    @pytest.mark.parametrize("n", [2, 10, 25])
    @pytest.mark.parametrize("a", [-0.5, 0.5, 2.0])
    def test_measure_change_invariance(self, n, a):
        # the conjugated Nystrom determinant must reproduce the rank-n Gram
        # determinant of the unconjugated kernel; pick t so the value is
        # informative (well inside (0.1, 0.9))
        s = 8.0 if a == 2.0 else 4.0
        t = s / (4.0 * n)
        gram = gram_det(a, n, t, max(50, n + 25))
        nystrom = nystrom_det(finite_spec(a, n), s, 50).value
        assert 0.1 < gram < 0.9
        assert abs(nystrom - gram) < 1e-10

    def test_acceptance_style_pairs(self):
        for a, n, t in [(1.5, 10, 0.3), (-0.5, 25, 0.1)]:
            nystrom = nystrom_det(finite_spec(a, n), 4.0 * n * t, 50).value
            gram = gram_det(a, n, t, 60)
            assert abs(nystrom - gram) < 1e-10


class TestResolventQuadraticForm:
    def test_zero_kernel(self, monkeypatch):
        # with K = 0 the functional collapses to integral_0^s J_a(sqrt x)^2 dx;
        # the real assembly still runs, so the production hat_j fills b
        a, s = 0.5, 4.0

        def zero_kernel(spec, node_sets):
            return [(np.zeros_like(kernel), hat_j)
                    for kernel, hat_j in _kernel_blocks(spec, node_sets)]

        monkeypatch.setattr(fredholm, "_kernel_blocks", zero_kernel)
        value = resolvent_quadratic_form(bessel_spec(a), s, 40)
        # substitute x = w^2 so the oracle integrand is smooth at the origin
        reference, err = sint.quad(
            lambda w: 2.0 * w * sp.jv(a, w) ** 2, 0.0, math.sqrt(s), limit=200
        )
        assert err < 1e-10
        assert value == pytest.approx(reference, abs=1e-9)

    def test_exponential_law_value(self):
        # a = 0: the quadratic form equals s itself
        for s in [1.0, 4.0, 10.0]:
            value = resolvent_quadratic_form(bessel_spec(0.0), s, 50)
            assert value == pytest.approx(s, abs=1e-8)

    def test_positivity(self):
        for s in [1.0, 4.0, 10.0]:
            assert resolvent_quadratic_form(bessel_spec(2.0), s, 40) > 0.0

    def test_limit_family_only(self):
        # the refusal names the quantity, whichever function asked for it
        spec = finite_spec(1.0, 10)
        for evaluate in (lambda: resolvent_quadratic_form(spec, 2.0, 40),
                         lambda: log_derivative(spec, 2.0, 40, method="resolvent")):
            with pytest.raises(DomainError) as info:
                evaluate()
            assert str(info.value) == ("the resolvent quadratic form is defined for the "
                                       "limit kernel only")

    @pytest.mark.parametrize("a", [100.0, 150.0])
    def test_underflow_refused(self, a):
        # at s = 4, b = sqrt(w) hat_j_a lies below the double range: the form
        # comes out subnormal at a = 100 and 0.0 at a = 150, while F(4) = 1.0
        # is accepted; the density would be a subnormal or a sign failure
        assert limit_cdf(a, 4.0, 50).value == 1.0
        for evaluate in (lambda: resolvent_quadratic_form(bessel_spec(a), 4.0, 50),
                         lambda: limit_density(a, 4.0, 50)):
            with pytest.raises(AccuracyError, match="resolvent quadratic form underflows"):
                evaluate()

    @pytest.mark.parametrize("diagonal,b,refusal", [
        (1.0, 0.0, AccuracyError), (1.0, 1e-160, AccuracyError), (1.0, 1e-150, None),
        (-1.0, 1e-160, NumericError), (-1.0, 1.0, NumericError),
    ], ids=["zero", "subnormal", "normal", "negative-subnormal", "negative"])
    def test_form_classes(self, diagonal, b, refusal):
        # (I - A) = diagonal * I on two nodes, bordered by (b, b) and 2^600:
        # where the factor exists its last row is (b, b), so the form is 2 b^2
        system = np.diag([diagonal, diagonal, 2.0 ** 600])[None]
        system[0, 2, :2] = system[0, :2, 2] = b
        if refusal is None:
            assert fredholm._factored(system, [1.0], 2, resolvent=True) == ([diagonal ** 2],
                                                                              [2.0 * b * b])
        else:
            with pytest.raises(refusal, match=re.escape("at s=1.0, m=2")):
                fredholm._factored(system, [1.0], 2, resolvent=True)


class TestLogDerivative:
    def test_exponential_law_slope(self):
        for s in [1.0, 4.0, 10.0]:
            assert log_derivative(bessel_spec(0.0), s, 50) == pytest.approx(-0.25, abs=1e-9)

    @pytest.mark.parametrize("a,s", [(0.5, 2.0), (2.0, 6.0)])
    def test_resolvent_matches_finite_difference(self, a, s):
        spec = bessel_spec(a)
        smooth = log_derivative(spec, s, 50, method="resolvent")
        stepped = log_derivative(spec, s, 50, method="finite_difference")
        assert abs(smooth - stepped) < 1e-6

    def test_negative_and_finite_near_origin(self):
        value = log_derivative(bessel_spec(2.0), 1e-4, 40)
        assert math.isfinite(value)
        assert value < 0.0

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            log_derivative(bessel_spec(0.0), 1.0, 40, method="symbolic")


class TestRankOneFactorization:
    def test_determinant_identity(self):
        # det(I - A - tau b b^T) = det(I - A) (1 - tau <(I-A)^{-1} b, b>)
        a, n, s, m = 1.0, 100, 4.0, 50
        tau = a / (8.0 * n)
        rule = scale_rule(gauss_jacobi(m, a), s)
        sqrt_w = np.sqrt(rule.weights)
        sym = sqrt_w[:, None] * kernel_matrix(bessel_spec(a), rule.nodes) * sqrt_w[None, :]
        b = sqrt_w * np.array([2.0 ** -a * bessel_entire(a, 0.25 * x) for x in rule.nodes])
        lhs = np.linalg.det(np.eye(m) - sym - tau * np.outer(b, b))
        base = np.linalg.det(np.eye(m) - sym)
        quad = float(b @ np.linalg.solve(np.eye(m) - sym, b))
        rhs = base * (1.0 - tau * quad)
        assert abs(lhs - rhs) < 1e-10
        # and the quadratic form agrees with the public functional
        assert quad == pytest.approx(resolvent_quadratic_form(bessel_spec(a), s, m), rel=1e-12)


# Every public route to a determinant, as a function of s alone (m = 50).
DETERMINANT_ENTRY_POINTS = {
    "nystrom_det-bessel": lambda s: nystrom_det(bessel_spec(1.0), s, 50),
    "nystrom_det-finite": lambda s: nystrom_det(finite_spec(1.0, 20), s, 50),
    "resolvent_quadratic_form": lambda s: resolvent_quadratic_form(bessel_spec(1.0), s, 50),
    "log_derivative-resolvent": lambda s: log_derivative(bessel_spec(1.0), s, 50),
    "log_derivative-finite_difference":
        lambda s: log_derivative(bessel_spec(1.0), s, 50, method="finite_difference"),
    "limit_cdf": lambda s: limit_cdf(1.0, s, 50),
    "limit_density": lambda s: limit_density(1.0, s, 50),
    "finite_cdf": lambda s: finite_cdf(1.0, 20, s, m=50),
    "limit_table": lambda s: limit_table(1.0, [s], 50),
    "finite_table": lambda s: finite_table(1.0, 20, [s], m=50),
    "conjecture_residual": lambda s: conjecture_residual(1.0, 20, s, 50),
    "uncorrected_difference": lambda s: uncorrected_difference(1.0, 20, s, 50),
    "optimal_scaling_residual": lambda s: optimal_scaling_residual(1.0, 20, s, 50),
    # the Taylor step's limit records, at the stretched s and at s
    "taylor_step_residual": lambda s: (limit_cdf(1.0, s / (1.0 - 1.0 / 40.0), 50),
                                       limit_density(1.0, s, 50)),
}


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf, 1600.5, 1601.0])
@pytest.mark.parametrize("entry", sorted(DETERMINANT_ENTRY_POINTS))
def test_one_accepted_s_domain(entry, s):
    # every entry point refuses the same s, (0, 4 Z_MAX] = (0, 1600] being the
    # kernels' validated axis, whichever module it lives in
    with pytest.raises(DomainError):
        DETERMINANT_ENTRY_POINTS[entry](s)


@pytest.mark.parametrize("s,largest", [(1598.5, "1600.0985"), (1599.0, "1600.599")])
@pytest.mark.parametrize("spec", [bessel_spec(0.0), bessel_spec(1.0), finite_spec(1.0, 20)],
                         ids=["bessel-0", "bessel-1", "finite-1-20"])
def test_finite_difference_refuses_its_largest_point(spec, s, largest, monkeypatch):
    # s passes the s gate but s + 1e-3 s does not: refused by that point
    # before any determinant, where s + h/2 would reach the deep tail first
    monkeypatch.setattr(fredholm, "_batch", lambda *args, **kwargs: pytest.fail("determinant"))
    refusal = rf"^s must lie in \(0, 1600\], got {re.escape(largest)}$"
    with pytest.raises(DomainError, match=refusal):
        log_derivative(spec, s, 50, method="finite_difference")


# The entry points that take an m, as functions of (s, m); gram_det's m
# range depends on n and is not among them.
M_ENTRY_POINTS = {
    "resolvent_quadratic_form": lambda s, m: resolvent_quadratic_form(bessel_spec(1.0), s, m),
    "log_derivative-resolvent": lambda s, m: log_derivative(bessel_spec(1.0), s, m),
    "log_derivative-finite_difference":
        lambda s, m: log_derivative(bessel_spec(1.0), s, m, method="finite_difference"),
    "limit_density": lambda s, m: limit_density(1.0, s, m),
    "nystrom_det": lambda s, m: nystrom_det(bessel_spec(1.0), s, m),
    "limit_table": lambda s, m: limit_table(1.0, [s], m),
}


@pytest.mark.parametrize("s,m", [(0.0, 4), (-1.0, 491), (1601.0, 50.5), (math.nan, 4)])
@pytest.mark.parametrize("entry", sorted(M_ENTRY_POINTS))
def test_m_refused_before_s(entry, s, m):
    # with both out of range, every entry point raises the one m refusal
    with pytest.raises(DomainError) as expected:
        fredholm._check_m(m)
    with pytest.raises(DomainError) as raised:
        M_ENTRY_POINTS[entry](s, m)
    assert str(raised.value) == str(expected.value)


def _per_chunk(ms) -> int:
    """s values per chunk of a batched evaluation on the rules of ms."""
    return fredholm.CHUNK_ENTRIES // sum(m * m for m in ms)


# every flag combination a caller of fredholm._batch uses; the resolvent is
# the limit kernel's alone
BATCH_FLAGS = {"plain": {}, "refine": {"refine": True}, "resolvent": {"resolvent": True},
               "refine-resolvent": {"refine": True, "resolvent": True}}


class TestBatchedSAxis:
    # Both families on an axis from s = 1e-9, where every node pair lies in
    # the near-diagonal window.  The limit law stops at s = 200 (F = 1.3e-5
    # at a = 5): beyond, its Nystrom values near the determinant's absolute
    # accuracy and the range check refuses some of them.  The finite member
    # with c = 37 runs to the end of the kernels' axis, s = 1600, where its
    # endpoint stays small (F = 0.047).
    AXES = [pytest.param(bessel_spec(5.0), 200.0, id="bessel"),
            pytest.param(finite_spec(2.0, 20, c=37.0), 1600.0, id="finite")]
    SIZES = pytest.mark.parametrize("extra", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
    RECORD_CASES = [
        pytest.param(*axis.values, flags, id=f"{axis.id}-{name}")
        for axis in AXES for name, flags in BATCH_FLAGS.items()
        if axis.id == "bessel" or not flags.get("resolvent")
    ]

    @pytest.mark.parametrize("spec,s_max,flags", RECORD_CASES)
    @SIZES
    def test_records_equal_the_one_s_records(self, spec, s_max, flags, extra):
        ms = (50, 60) if flags.get("refine") else (50,)
        s_values = list(np.geomspace(1e-9, s_max, _per_chunk(ms) + extra))
        expected = [record for s in s_values for record in fredholm._batch(spec, [s], 50, **flags)]
        assert fredholm._batch(spec, s_values, 50, **flags) == expected

    @pytest.mark.parametrize("spec,s_max", AXES)
    @SIZES
    def test_estimates_and_slopes_equal_the_one_s_values(self, spec, s_max, extra):
        slope = spec.family == "bessel"
        s_values = list(np.geomspace(1e-9, s_max, _per_chunk((50, 60)) + extra))
        expected = [(nystrom_det(spec, s, 50), log_derivative(spec, s, 50) if slope else None)
                    for s in s_values]
        records = fredholm._batch(spec, s_values, 50, refine=True, resolvent=slope)
        assert [(r.estimate, r.log_slope if slope else None) for r in records] == expected

    @pytest.mark.parametrize("a,scaling", [(0.5, "standard"), (2.0, "optimal")])
    def test_high_order_table_rows_equal_the_one_s_values(self, a, scaling):
        # at n = 1000 the recurrence runs over (25, m)-shaped nodes through
        # many blocks of degrees; each row is its one-s value bit for bit
        s_values = list(np.geomspace(0.01, 40.0, 25))
        table = finite_table(a, 1000, s_values, scaling)
        expected = [finite_cdf(a, 1000, s, scaling) for s in s_values]
        assert [(row.F, row.F_err) for row in table.rows] == [
            (det.value, det.error_estimate) for det in expected]

    @staticmethod
    def refusal(evaluate):
        try:
            evaluate()
        except HardEdgeError as exc:
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("a,s_values", [
        pytest.param(0.0, [1.0, 600.0, 2.0], id="negative-determinant"),
        # which s near the axis end are refused is rounding (1600 itself is
        # accepted at m nodes and refused at m + 10 today)
        pytest.param(0.0, [1.0, 1599.0, 1600.0], id="axis-end"),
        pytest.param(0.0, [1.0, 600.0, 0.0], id="determinant-before-gate"),
        pytest.param(0.0, [1.0, 0.0, 600.0], id="gate-before-determinant"),
        pytest.param(0.0, [1.0] * 60 + [600.0], id="second-chunk"),
        # at s = 670 only the m+10 determinant is refused, at s = 600 the m-node one
        pytest.param(0.0, [1.0, 670.0, 600.0], id="refined-rule-first"),
        pytest.param(200.0, [1.0, 0.001, 40.0], id="weights-underflow"),
        pytest.param(200.0, [1.0, 40.0, 0.001], id="weights-overflow"),
    ])
    def test_refusal_is_the_first_one_s_refusal(self, a, s_values):
        # the first s in input order that is refused alone raises its refusal
        spec = bessel_spec(a)
        for batched in (lambda v: fredholm._batch(spec, v, 50),
                        lambda v: fredholm._batch(spec, v, 50, refine=True, resolvent=True)):
            one_s = [self.refusal(lambda: batched([s])) for s in s_values]
            expected = next(refusal for refusal in one_s if refusal is not None)
            assert self.refusal(lambda: batched(s_values)) == expected

    @pytest.mark.parametrize("a", [-0.5, 0.0, 5.0])
    def test_resolvent_functionals_share_the_determinant_refusal(self, a):
        # the quadratic form is solved on the m-node system only where its
        # determinant is accepted; past s ~ 300 that determinant is refused
        # at scattered s (which ones is rounding), so a grid, not one s
        spec = bessel_spec(a)
        refused = 0
        for s in np.arange(300.0, 1601.0, 25.0).tolist():
            expected = self.refusal(lambda: fredholm._batch(spec, [s], 50))
            if expected is None:
                continue
            refused += 1
            for evaluate in (lambda: resolvent_quadratic_form(spec, s, 50),
                             lambda: log_derivative(spec, s, 50, method="resolvent"),
                             lambda: limit_density(a, s, 50)):
                assert self.refusal(evaluate) == expected, s
        assert refused > 0

    @pytest.mark.parametrize("spec,s,refusal", [
        pytest.param(bessel_spec(-0.5), 5e-324, (
            NumericError, "quadrature nodes escaped the open interval (0, 5e-324)"),
            id="nodes-escape"),
        pytest.param(bessel_spec(0.0), 5e-324, (
            AccuracyError, "the weights of x^a dx on (0, 5e-324) leave the double range at a=0.0"),
            id="weights-underflow"),
        pytest.param(finite_spec(400, 1), 4e-3, (
            AccuracyError, "the weights of x^a dx on (0, 0.004) leave the double range at a=400.0"),
            id="finite-weights-underflow"),
    ])
    def test_rule_refusal_is_scale_rules(self, spec, s, refusal):
        # every s of a chunk is checked as scale_rule checks its rule, in its
        # order and wording, alone or behind an accepted s
        assert self.refusal(lambda: scale_rule(gauss_jacobi(50, spec.a), s)) == refusal
        for evaluate in (lambda: fredholm._batch(spec, [s], 50),
                         lambda: fredholm._batch(spec, [1.0, s], 50),
                         lambda: nystrom_det(spec, s, 50)):
            assert self.refusal(evaluate) == refusal

    def test_one_kernel_evaluation_per_chunk(self, monkeypatch):
        shapes = []

        def counting(spec, node_sets):
            shapes.append([np.shape(nodes) for nodes in node_sets])
            return _kernel_blocks(spec, node_sets)

        monkeypatch.setattr(fredholm, "_kernel_blocks", counting)
        per_chunk = _per_chunk((50, 60))
        fredholm._batch(bessel_spec(5.0), list(np.linspace(1.0, 40.0, per_chunk + 1)), 50,
                        refine=True)
        assert shapes == [[(per_chunk, 50), (per_chunk, 60)], [(1, 50), (1, 60)]]


@pytest.fixture
def factorizations(monkeypatch):
    """(name, shape) of every numpy.linalg factorization made from here on in
    a test: cholesky, slogdet and solve, each with the shape of its stack."""
    calls = []
    for name in ("cholesky", "slogdet", "solve"):
        def counting(matrix, *args, _name=name, _call=getattr(np.linalg, name)):
            calls.append((_name, np.shape(matrix)))
            return _call(matrix, *args)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestOneFactorization:
    @pytest.mark.parametrize("evaluate,shapes", [
        pytest.param(lambda: limit_cdf(1.0, 4.0, 50), [(1, 51, 51), (1, 60, 60)], id="limit_cdf"),
        pytest.param(lambda: limit_density(1.0, 4.0, 50), [(1, 51, 51)], id="limit_density"),
        pytest.param(lambda: finite_cdf(1.0, 20, 4.0, m=50), [(1, 50, 50), (1, 60, 60)],
                     id="finite_cdf"),
        pytest.param(lambda: limit_table(1.0, np.linspace(0.5, 10.0, 20), 50, density=True),
                     [(20, 51, 51), (20, 60, 60)], id="limit_table-density"),
    ])
    def test_one_cholesky_per_system(self, factorizations, evaluate, shapes):
        # one Cholesky factor per Nystrom system, the m-node limit-kernel
        # system bordered by the resolvent right-hand side; no LU anywhere
        evaluate()
        assert factorizations == [("cholesky", shape) for shape in shapes]

    def test_gram_oracle_keeps_its_own_factorization(self, factorizations):
        # the independent oracle shares no arithmetic with the Nystrom route
        gram_det(1.0, 10, 0.3, 50)
        assert factorizations == [("slogdet", (10, 10))]

    @pytest.mark.parametrize("m", [5, 43, 50, 127, 200, 489, 490])
    def test_value_bit_equal_across_routes(self, m):
        # F of a value, of a density table row and of a density record comes
        # from one identical bordered factorization, whatever LAPACK's
        # blocking: at odd m (OpenBLAS 0.3, Haswell kernels) the leading
        # factor of a bordered system need not equal the plain factor
        a, s_values = 1.5, [0.5, 4.0, 20.0]
        table = limit_table(a, s_values, m, density=True)
        for s, row in zip(s_values, table.rows):
            [record] = fredholm._batch(bessel_spec(a), [s], m, resolvent=True)
            assert row.F == limit_cdf(a, s, m).value == record.value
            assert row.f == record.density == limit_density(a, s, m)

    @pytest.mark.parametrize("a,s", [(0.0, 1200.0), (1.0, 1600.0), (5.0, 1600.0)])
    def test_failed_factor_is_refused(self, a, s):
        # deep in the tail the rounding of I - A outweighs its smallest
        # eigenvalues, and at m = 50 it has no Cholesky factor: refused by
        # name, alone and as the middle s of a batch
        message = re.escape(f"not positive definite at s={s!r}, m=50")
        for evaluate in (lambda: limit_cdf(a, s, 50), lambda: limit_density(a, s, 50),
                         lambda: limit_table(a, [1.0, s, 2.0], 50),
                         lambda: limit_table(a, [1.0, s, 2.0], 50, density=True)):
            with pytest.raises(NumericError, match=message):
                evaluate()
