import math
import warnings
from dataclasses import FrozenInstanceError, fields

import mpmath
import numpy as np
import pytest
from scipy.special import eval_laguerre, gammainc, gammaincc

from hardedge import (
    AccuracyError,
    DomainError,
    HardEdgeError,
    NumericError,
    analytic_smallest_cdf,
    finite_cdf,
    ks_compare,
    ks_validate,
    sample_smallest,
)
from hardedge import fredholm, montecarlo
from hardedge.kernels import _kernel_blocks, finite_spec
from hardedge.montecarlo import SampleBatch, _survival_bound
from hardedge.specfun import S_MAX


@pytest.fixture(autouse=True)
def fresh_interpolants():
    # each test builds its own interpolants: a fit cached by an earlier test
    # would outlive that test, and one cached before a test patches
    # CHEBYSHEV_TAIL or S_MAX would stand in for the build the test asks
    montecarlo._chebyshev_fit.cache_clear()
    yield
    montecarlo._chebyshev_fit.cache_clear()


class TestSampler:
    def test_reproducible(self):
        first = sample_smallest(1, 6, 300, seed=42)
        second = sample_smallest(1, 6, 300, seed=42)
        assert np.array_equal(first.values, second.values)
        different = sample_smallest(1, 6, 300, seed=43)
        assert not np.array_equal(first.values, different.values)

    def test_scalar_case_is_unit_exponential(self):
        # a 1x1 draw is Gamma(1) ~ Exp(1), the law of |CN(0,1)|^2; the mean
        # over 1e5 draws sits inside the 3-sigma band [0.99, 1.01]
        batch = sample_smallest(0, 1, 100_000, seed=2024)
        assert 0.99 < float(batch.values.mean()) < 1.01

    def test_exponential_survival_at_a_zero(self):
        # P(lambda_min >= t) = e^{-n t}; empirical survival at t = 1/n within
        # a 3-sigma binomial band of e^{-1}
        n, count = 5, 20_000
        batch = sample_smallest(0, n, count, seed=99)
        survival = float(np.mean(batch.values >= 1.0 / n))
        p = math.exp(-1.0)
        band = 3.0 * math.sqrt(p * (1.0 - p) / count)
        assert abs(survival - p) < band

    def test_positive_and_hard_edge_scale(self):
        batch = sample_smallest(1, 20, 2000, seed=5)
        assert np.all(batch.values > 0.0)
        # sanity band only: the scaled mean lives at desk scale
        scaled_mean = float(batch.values.mean()) * 4.0 * 20
        assert 0.1 < scaled_mean < 100.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_smallest(-1, 5, 10, 0)
        with pytest.raises(DomainError):
            sample_smallest(0.5, 5, 10, 0)
        with pytest.raises(DomainError):
            sample_smallest(0, 0, 10, 0)
        with pytest.raises(DomainError):
            sample_smallest(0, 201, 10, 0)
        with pytest.raises(DomainError):
            sample_smallest(0, 5, 0, 0)
        with pytest.raises(DomainError):
            sample_smallest(0, 5, 10, -1)
        with pytest.raises(DomainError):
            sample_smallest(0, 5, 10, 2 ** 64)
        for bad in (math.nan, math.inf):
            for args in [(bad, 20, 10, 1), (1, bad, 10, 1), (1, 20, bad, 1), (1, 20, 10, bad)]:
                with pytest.raises(DomainError):
                    sample_smallest(*args)


def _reference_matrix(a, n, seed, index):
    """The n x (n+a) matrix of sample `index`, from a new Philox and Generator."""
    bits = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    rng = np.random.Generator(bits)
    shape = (n, n + a)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def _gaussian_sample(a, n, seed, index):
    """lambda_min of X X* with X from _reference_matrix: the Gaussian
    construction that the bidiagonal sampler is judged against."""
    singular_values = np.linalg.svd(_reference_matrix(a, n, seed, index), compute_uv=False)
    return float(singular_values[-1] ** 2)


def _reference_stack(a, n, seed, count):
    """The squared entries of the bidiagonals of samples 0, ..., count - 1,
    one row each, the diagonal top down then the entries above it, every row
    from a new Philox and Generator."""
    shapes = np.array([a + n - k for k in range(n)] + [n - 1 - k for k in range(n - 1)],
                      dtype=float)
    return np.array([
        np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        .standard_gamma(shapes) for i in range(count)])


def _block_size(a, n):
    return montecarlo.BLOCK_VARIATES // (2 * n - 1)


class TestBlockSampler:
    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
    @pytest.mark.parametrize("a,n", [(0, 1), (0, 5), (1, 20), (3, 7), (2, 200)])
    def test_equals_the_per_sample_reference(self, a, n, seed):
        # the whole first block and the one sample after it; the reference
        # draws each sample alone and solves them in one stack, which equals
        # each row solved alone (test_row_alone_equals_the_row_in_a_stack).
        # Shorter counts give prefixes (test_prefix_of_a_longer_sample)
        counts = sorted({1, _block_size(a, n) + 1, 1000})
        reference = montecarlo._smallest_eigenvalues(
            _reference_stack(a, n, seed, counts[-1])).tolist()
        for count in counts:
            assert sample_smallest(a, n, count, seed).values.tolist() == reference[:count]

    @pytest.mark.parametrize("a,n", [(0, 1), (0, 5), (1, 20), (3, 7), (2, 200)])
    def test_row_alone_equals_the_row_in_a_stack(self, a, n):
        squares = _reference_stack(a, n, 11, 64)
        stacked = montecarlo._smallest_eigenvalues(squares).tolist()
        assert [montecarlo._smallest_eigenvalues(row[None])[0] for row in squares] == stacked
        assert montecarlo._smallest_eigenvalues(squares[::-1]).tolist() == stacked[::-1]

    @pytest.mark.parametrize("a,n", [(0, 5), (1, 20), (3, 7)])
    def test_prefix_of_a_longer_sample(self, a, n):
        block = _block_size(a, n)
        longer = sample_smallest(a, n, 2 * block + 3, 8).values.tolist()
        for count in (1, block - 1, block, block + 1, 2 * block + 2):
            assert sample_smallest(a, n, count, 8).values.tolist() == longer[:count]

    @pytest.mark.parametrize("a", [0, 1, 3])
    def test_order_one_is_the_drawn_square(self, a):
        # at n = 1, lambda_min is the one Gamma(a+1) square, bit for bit
        for seed in (0, 7, 19):
            drawn = _reference_stack(a, 1, seed, 200)[:, 0]
            assert sample_smallest(a, 1, 200, seed).values.tolist() == drawn.tolist()

    def test_no_linear_algebra(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the sampler called numpy.linalg")

        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refused)
        for a, n in [(0, 1), (1, 20), (2, 200)]:
            assert np.all(sample_smallest(a, n, 200, 7).values > 0.0)

    @pytest.mark.parametrize("a,n,count,stacks", [
        (1, 20, 1000, [(1000, 39)]),
        # blocks of 2^16 // 39 = 1680 samples at n = 20, 2^16 // 399 = 164 at n = 200
        (1, 20, 4000, [(1680, 39)] * 2 + [(640, 39)]),
        (2, 200, 400, [(164, 399)] * 2 + [(72, 399)]),
    ])
    def test_one_solve_per_block(self, a, n, count, stacks, monkeypatch):
        solve, shapes = montecarlo._smallest_eigenvalues, []

        def counting(squares):
            shapes.append(squares.shape)
            return solve(squares)

        monkeypatch.setattr(montecarlo, "_smallest_eigenvalues", counting)
        sample_smallest(a, n, count, 7)
        assert shapes == stacks

    # a diagonal square of 0 makes B singular; a nan anywhere poisons the
    # pivots below it (a 0 above the diagonal only splits B, and is no fault)
    @pytest.mark.parametrize("n,index,column,bad", [
        (20, 0, 0, 0.0), (20, 100, 19, 0.0), (20, 999, 10, 0.0),
        (20, 0, 0, math.nan), (20, 163, 19, math.nan), (20, 999, 25, math.nan),
        (20, 500, 38, math.nan), (1, 0, 0, 0.0), (1, 999, 0, math.nan),
    ])
    def test_bad_variate_is_refused(self, n, index, column, bad, monkeypatch):
        solve = montecarlo._smallest_eigenvalues

        def poisoned(squares):
            squares[index, column] = bad
            return solve(squares)

        monkeypatch.setattr(montecarlo, "_smallest_eigenvalues", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as raised:
                sample_smallest(1, n, 1000, 7)
        # the solve stops at x = 0, whose pivots are not all positive; at
        # n = 1 the square that is not positive gives 0 too
        assert str(raised.value) == (
            f"sampler produced eigenvalue 0.0 for sample {index} (a=1, n={n}, seed=7)")


def _two_sample_ks(x, y):
    """sup |F_x - F_y| of the empirical CDFs of two samples."""
    x, y = np.sort(x), np.sort(y)
    pooled = np.concatenate([x, y])
    return float(np.max(np.abs(np.searchsorted(x, pooled, side="right") / len(x)
                               - np.searchsorted(y, pooled, side="right") / len(y))))


def _sturm_count(diagonal, off_squares, x):
    """Eigenvalues below x of the symmetric tridiagonal with that diagonal
    and those squared off-diagonal entries, from the signs of its LDL^T pivots."""
    pivot = diagonal[0] - x
    count = int(pivot < 0)
    for alpha, beta2 in zip(diagonal[1:], off_squares):
        pivot = alpha - x - beta2 / pivot
        count += int(pivot < 0)
    return count


def _exact_smallest(squares, n, estimate):
    """The smallest eigenvalue of T = B B^T to 40 digits, B the bidiagonal
    of the exact Gamma variates `squares`, by bisection from `estimate`."""
    with mpmath.workdps(40):
        d2 = [mpmath.mpf(float(v)) for v in squares[:n]]
        e2 = [mpmath.mpf(float(v)) for v in squares[n:]] + [mpmath.mpf(0)]
        diagonal = [d2[k] + e2[k] for k in range(n)]
        off_squares = [e2[k] * d2[k + 1] for k in range(n - 1)]
        low = mpmath.mpf(estimate) * (1 - mpmath.mpf("1e-8"))
        high = mpmath.mpf(estimate) * (1 + mpmath.mpf("1e-8"))
        assert _sturm_count(diagonal, off_squares, low) == 0
        assert _sturm_count(diagonal, off_squares, high) == 1
        for _ in range(100):
            middle = (low + high) / 2
            if _sturm_count(diagonal, off_squares, middle):
                high = middle
            else:
                low = middle
        return (low + high) / 2


class TestBidiagonalModel:
    # the alpha = 1e-6 two-sample coefficient sqrt(-log(alpha / 2) / 2)
    KS_COEFF_1E6 = 2.69

    @pytest.mark.parametrize("a,n", [(0, 1), (1, 20), (3, 7), (2, 50)])
    def test_two_sample_ks_against_the_gaussian_construction(self, a, n):
        count = 4000
        bidiagonal = sample_smallest(a, n, count, seed=2002).values
        gaussian = [_gaussian_sample(a, n, 5830, i) for i in range(count)]
        statistic = _two_sample_ks(bidiagonal, gaussian)
        assert statistic < self.KS_COEFF_1E6 * math.sqrt(2.0 / count), statistic

    @pytest.mark.parametrize("a,n,count,ulps", [
        (1, 20, 10, 4), (0, 200, 3, 8), (3, 7, 10, 2), (2, 50, 10, 4), (0, 1, 10, 2)])
    def test_relative_accuracy_against_40_digits(self, a, n, count, ulps):
        # lambda_min of the bidiagonal keeps high relative accuracy, however
        # small it is.  The worst errors measured here, in units of 2^-52, were
        # 1, 4, 1, 2 and 0 at seed 3; over seeds 0-19 they were 4, 17, 1, 3
        # and 0, where LAPACK's bidiagonal SVD read 5, 22, 4, 9 and 1.  At
        # n = 1 the sample is the drawn square itself
        values = sample_smallest(a, n, count, seed=3).values
        squares = _reference_stack(a, n, 3, count)
        errors = [abs(float(value / _exact_smallest(row, n, value)) - 1.0)
                  for row, value in zip(squares, values)]
        assert max(errors) < ulps * 2.0 ** -52, errors


class TestKsCompare:
    @staticmethod
    def _exponential_cdf(n):
        return lambda t: 1.0 - math.exp(-n * t)

    def test_self_consistent_synthetic_batch(self):
        # inverse-CDF draws from the analytic law itself must pass
        n, count = 5, 5000
        uniform = np.random.default_rng(11).uniform(size=count)
        values = -np.log1p(-uniform) / n
        batch = SampleBatch(a=0, n=n, seed=0, values=values)
        statistic, passed = ks_compare(batch, self._exponential_cdf(n))
        assert passed
        assert statistic < 1.63 / math.sqrt(count)

    def test_sampled_batch_against_closed_form(self):
        n, count = 5, 20_000
        batch = sample_smallest(0, n, count, seed=31)
        statistic, passed = ks_compare(batch, self._exponential_cdf(n))
        assert passed, statistic

    def test_shifted_law_fails(self):
        n, count = 5, 20_000
        batch = sample_smallest(0, n, count, seed=31)
        shifted = lambda t: 1.0 - math.exp(-n * (t + 0.2 / n))
        statistic, passed = ks_compare(batch, shifted)
        assert not passed
        assert statistic > 1.63 / math.sqrt(count)

    def test_non_finite_cdf_refused(self):
        batch = SampleBatch(a=0, n=5, seed=0, values=np.linspace(0.01, 1.0, 1000))
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                ks_compare(batch, lambda t, bad=bad: bad)

    def test_count_floor(self):
        batch = sample_smallest(0, 3, 999, seed=1)
        with pytest.raises(DomainError):
            ks_compare(batch, self._exponential_cdf(3))

    def test_sample_is_its_own_count(self):
        # a batch carries no count beside its values: the statistic and the
        # KS floor read the values, in whatever order they were given
        batch = sample_smallest(1, 20, 1500, seed=3)
        values = np.sort(batch.values)
        cdf = analytic_smallest_cdf(1, 20)
        expected = ks_compare(batch, cdf)
        assert ks_compare(SampleBatch(a=1, n=20, seed=3, values=values), cdf) == expected
        short = SampleBatch(a=1, n=20, seed=3, values=values[:999])
        with pytest.raises(DomainError, match="count >= 1000, got 999"):
            ks_compare(short, cdf)


class TestAnalyticCdf:
    def test_matches_closed_form_at_a_zero(self):
        cdf = analytic_smallest_cdf(0, 8, m=40)
        for t in [0.01, 0.05, 0.2]:
            assert cdf(t) == pytest.approx(1.0 - math.exp(-8.0 * t), abs=1e-10)

    def test_monotone_and_clamped(self):
        cdf = analytic_smallest_cdf(1, 10, m=40)
        grid = [0.01, 0.05, 0.1, 0.3, 0.8]
        values = [cdf(t) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert cdf(1e9) == 1.0
        assert cdf(0.0) == 0.0

    @pytest.mark.parametrize("a,n,t", [
        (1, 20, 21.0), (1, 20, 40.0), (0, 200, 14.0), (0, 1, math.inf), (400, 1, math.inf),
        (0, 200, 3.0), (10, 50, 20.0), (2.5, 30, math.inf),
    ])
    def test_clamped_beyond_the_axis(self, a, n, t):
        # past the interpolant's L, and t = inf with or without one: at
        # (0, 200, 3.0) the survival is e^{-600}
        assert analytic_smallest_cdf(a, n)(t) == 1.0

    @pytest.mark.parametrize("a,n,t", [
        (400, 1, 420.0), (300, 1, 401.0), (2.5, 30, 40.0), (-0.9, 1000, 12.0), (0.5, 1000, 0.5),
    ])
    def test_refused_past_the_axis_without_an_interpolant(self, a, n, t):
        # s = 4 n t > 1600 meets the determinants' s gate, whatever the law
        # there: at (400, 1) the CDF at t = 420 is 0.83, at (0.5, 1000) and
        # t = 0.5 it rounds to 1
        with pytest.raises(DomainError, match=r"s must lie in \(0, 1600\]"):
            analytic_smallest_cdf(a, n)(t)

    @pytest.mark.parametrize("a,n", [(0, 5), (1, 20), (1, 10), (3, 4), (0, 3)])
    def test_survival_bound_holds_on_the_axis(self, a, n):
        # out to where the survival leaves the determinant's absolute accuracy,
        # since the bound is closest to it in the tail
        spec = finite_spec(a, n)
        for t in np.geomspace(0.01, 100.0 / n, 30):
            [record] = fredholm._batch(spec, [4.0 * n * t], 50)
            survival = record.value
            assert survival <= _survival_bound(a, n, t) * (1.0 + 1e-12) + 1e-15
            if survival < 1e-10:
                break

    @pytest.mark.parametrize("a", [-0.9, 0.5, 2.0])
    def test_determinant_is_the_law_at_order_one(self, a):
        # n = 1: lambda_min is a single Gamma(a+1) variable
        for t in (0.1, 1.0, 5.0):
            [record] = fredholm._batch(finite_spec(a, 1), [4.0 * t], 50)
            assert record.value == pytest.approx(gammaincc(a + 1.0, t), rel=1e-12)

    @staticmethod
    def count_assemblies(monkeypatch) -> list:
        sizes = []

        def counting(spec, node_sets):
            sizes.append(tuple(nodes.size for nodes in node_sets))
            return _kernel_blocks(spec, node_sets)

        monkeypatch.setattr(fredholm, "_kernel_blocks", counting)
        return sizes

    @pytest.mark.parametrize("m", [3, 491, 50.5, math.nan])
    def test_node_count_checked_when_made(self, m, monkeypatch):
        # beside a and n, before any assembly, not at the first evaluation
        sizes = self.count_assemblies(monkeypatch)
        with pytest.raises(DomainError, match="node count"):
            analytic_smallest_cdf(1, 20, m=m)
        assert sizes == []

    def test_one_assembly_per_value(self, monkeypatch):
        # the m + 10 error estimate of finite_cdf is not needed for a CDF
        # value; at non-integer a every value is a determinant
        sizes = self.count_assemblies(monkeypatch)
        grid = [0.005, 0.02, 0.1]
        values = [analytic_smallest_cdf(0.5, 20, m=50)(t) for t in grid]
        assert sizes == [(50,)] * len(grid)
        assert values == [1.0 - finite_cdf(0.5, 20, 4.0 * 20 * t, m=50).value for t in grid]

    def test_one_interpolant_build_per_key(self, monkeypatch):
        # at integer a: making the first callable at (a, n, m) does the whole
        # build (survivals at L = 16, ..., 256, then 32 and 64 points), and no
        # t of that callable or of a later one assembles anything
        sizes = self.count_assemblies(monkeypatch)
        cdf = analytic_smallest_cdf(1, 20, m=50)
        assert sizes[:5] == [(50,)] * 5
        assert sum(size for (size,) in sizes) == 50 * (5 + 32 + 64)
        built = len(sizes)
        grid = [0.005, 0.02, 0.1, 1.0, 3.0]
        values = [cdf(t) for t in grid]
        assert cdf(np.array(grid)).tolist() == values
        again = analytic_smallest_cdf(1, 20, m=50)
        assert [again(t) for t in grid] == values
        assert again(np.array(grid)).tolist() == values
        assert len(sizes) == built
        # one cache lookup per callable, when it is made, not per value
        info = montecarlo._chebyshev_fit.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestSurvivalBound:
    """_survival_bound against scipy's Q on the ladder's domain, and at n = 1,
    where it is Q(a+1, t), against closed forms and 40-digit values at
    integer p = a + 1 and t <= 700."""

    def test_diagonal_product(self):
        # integer a, and t = L/(4n) for L = 16, ..., 1024
        for a in range(41):
            for n in (1, 2, 3, 5, 7, 10, 20, 33, 50, 100, 150, 200):
                shapes = a + 2.0 * np.arange(n) + 1.0
                for length in (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0):
                    t = length / (4.0 * n)
                    expected = math.prod(gammaincc(shapes, t).tolist())
                    assert _survival_bound(float(a), n, t) == pytest.approx(expected, rel=1e-13)

    def test_anchors(self):
        assert _survival_bound(0.0, 1, 0.0) == 1.0
        for t in [0.1, 1.0, 5.0]:
            assert _survival_bound(0.0, 1, t) == pytest.approx(math.exp(-t), rel=1e-13)
        # Gamma(2, t) = (1 + t) e^{-t}
        assert _survival_bound(1.0, 1, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)
        assert _survival_bound(1.0, 1, 1.0) == pytest.approx(0.7357588823428847, rel=1e-12)

    def test_against_mpmath(self):
        # past t = 256, the largest t of the ladder (L = 1024 at n = 1)
        with mpmath.workdps(40):
            for p in [1, 7, 40, 150, 400]:
                for t in [0.0, 0.2, 1.0, 3.0, 10.0, 80.0, 150.0, 400.0, 420.0]:
                    ref = float(mpmath.gammainc(p, t, regularized=True))
                    bound = _survival_bound(p - 1.0, 1, t)
                    assert bound == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("p", [1, 2, 7, 40, 100])
    def test_against_mpmath_at_moderate_arguments(self, p):
        # where Q stays above about 1e-30
        with mpmath.workdps(40):
            for t in [0.01, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 45.0, 60.0, 90.0, 120.0]:
                ref = mpmath.gammainc(p, t, regularized=True)
                if ref > 1e-30:
                    bound = _survival_bound(p - 1.0, 1, t)
                    assert bound == pytest.approx(float(ref), rel=1e-13), (p, t)


class TestBatchedCdf:
    def test_array_equals_the_scalar_calls(self):
        # t <= 0, on the axis, clamped beyond s = 4 n t = 1600, and t = inf
        cdf = analytic_smallest_cdf(1, 20, m=50)
        t = np.array([-math.inf, -1.0, 0.0, 1e-12, 0.003, 0.05, 0.3, 1.0, 20.5, 21.0, 40.0,
                      math.inf])
        values = cdf(t)
        assert isinstance(values, np.ndarray) and values.shape == t.shape
        assert values.tolist() == [cdf(float(t_k)) for t_k in t]
        assert values[0] == 0.0 and values[-3:].tolist() == [1.0, 1.0, 1.0]
        assert cdf(t[:0]).shape == (0,)

    @staticmethod
    def refusal(evaluate):
        try:
            evaluate()
        except HardEdgeError as exc:
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("a,n,t,error", [
        # s = 4 n t = 2400 meets the determinants' s gate
        pytest.param(0.5, 200, [1e-3, 3.0, 6.0], DomainError, id="0.5-200-3.0-DomainError"),
        # 1e-3 is refused alone: the weights underflow at s = 0.004
        pytest.param(400, 1, [1e-3, 420.0, 840.0], AccuracyError,
                     id="400-1-420.0-AccuracyError"),
        pytest.param(1, 20, [1e-3, math.nan, math.nan], DomainError, id="1-20-nan-DomainError"),
        # a negative determinant at s = 800 before the s gate at t = 3
        pytest.param(0.5, 200, [1.0, 3.0], NumericError, id="0.5-200-1.0-NumericError"),
    ])
    def test_refused_t_keeps_the_scalar_refusal(self, a, n, t, error):
        # the first t in input order that is refused alone raises its refusal
        cdf = analytic_smallest_cdf(a, n)
        one_t = [self.refusal(lambda: cdf(t_k)) for t_k in t]
        expected = next(refusal for refusal in one_t if refusal is not None)
        assert expected[0] is error
        assert self.refusal(lambda: cdf(np.array(t))) == expected

    @pytest.mark.parametrize("a,n,tail", [(0.5, 20, 1e-14), (1, 20, 0.0)])
    def test_past_the_axis_takes_the_s_gate(self, a, n, tail, monkeypatch):
        # without an interpolant: a non-integer a, and an integer build
        # refused by a tail that no bound of zero accepts.  t = 21 is s = 1680,
        # and t = 10 (s = 800) has a negative determinant
        monkeypatch.setattr(montecarlo, "CHEBYSHEV_TAIL", tail)
        cdf = analytic_smallest_cdf(a, n)
        gate = self.refusal(lambda: cdf(21.0))
        assert gate == (DomainError, "s must lie in (0, 1600], got 1680.0")
        assert self.refusal(lambda: cdf(np.array([0.01, 21.0, 0.02]))) == gate
        earlier = self.refusal(lambda: cdf(10.0))
        assert earlier[0] is NumericError
        assert self.refusal(lambda: cdf(np.array([0.01, 10.0, 21.0]))) == earlier
        assert self.refusal(lambda: cdf(np.array([21.0, 10.0]))) == gate


class TestChebyshevCdf:
    @staticmethod
    def fit(a, n):
        fit = montecarlo._chebyshev_fit(finite_spec(a, n), 50)
        assert fit is not None
        return fit

    @staticmethod
    def direct(a, n, t):
        return [1.0 - record.value
                for record in fredholm._batch(finite_spec(a, n), [4.0 * n * t_k for t_k in t], 50)]

    @pytest.mark.parametrize("a,n", [(0, 5), (0, 200), (1, 3), (1, 20), (1, 100)])
    def test_closed_forms_on_the_interval(self, a, n):
        t = np.linspace(0.0, self.fit(a, n).length, 2001) / (4.0 * n)
        survival = np.exp(-n * t) * (1.0 if a == 0 else eval_laguerre(n, -t))
        assert np.max(np.abs(analytic_smallest_cdf(a, n)(t) - (1.0 - survival))) < 1e-14

    @pytest.mark.parametrize("a", [1, 3])
    def test_gamma_law_at_order_one(self, a):
        # n = 1: lambda_min is a single Gamma(a+1) variable.  The survival
        # bound, exact here, ends the ladder at L = 256 before the m-node
        # survival leaves the determinants' accuracy
        t = np.linspace(0.0, self.fit(a, 1).length, 2001) / 4.0
        closed = gammainc(a + 1.0, t)
        assert np.max(np.abs(analytic_smallest_cdf(a, 1)(t) - closed)) < 1e-14

    @pytest.mark.parametrize("a,n", [(0, 5), (1, 20), (3, 50), (10, 50)])
    def test_interpolant_against_the_determinants(self, a, n):
        t = np.linspace(0.0, self.fit(a, n).length, 502)[1:] / (4.0 * n)
        values = analytic_smallest_cdf(a, n)(t)
        error = np.abs(values - self.direct(a, n, t))
        assert np.max(error) < montecarlo.CHEBYSHEV_TAIL
        # a probability, also where the sum rounds below 0 (a = 10) or above 1
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_no_determinant_after_the_build(self, monkeypatch):
        a, n = 1, 20
        length = self.fit(a, n).length
        s = np.array([1e-9, 1e-6 * length, 0.5 * length, length, length * (1.0 + 1e-12),
                      0.5 * (length + S_MAX), S_MAX, S_MAX * (1.0 + 1e-12), 1e6])
        t = s / (4.0 * n)
        cdf = analytic_smallest_cdf(a, n)
        cdf(0.01)  # the build, before the recording starts
        asked = []

        def recording(spec, s_values, m):
            asked.extend(s_values)
            return fredholm._batch(spec, s_values, m)

        monkeypatch.setattr(montecarlo, "_batch", recording)
        values = [cdf(t_k) for t_k in t]
        assert cdf(t).tolist() == values
        assert asked == []
        assert values[4:] == [1.0] * 5

    def test_one_past_the_length_without_refusal(self):
        # s from 264 to 1600 at (1, 20), past L = 256, where the determinants
        # alternate refusals with values that round to 1
        cdf = analytic_smallest_cdf(1, 20)
        t = np.linspace(3.3, 20.0, 40)
        assert [cdf(t_k) for t_k in t] == [1.0] * len(t)
        assert cdf(t).tolist() == [1.0] * len(t)

    @pytest.mark.parametrize("a,n", [(0, 5), (1, 20), (10, 50)])
    def test_non_decreasing_across_the_length(self, a, n):
        t = np.linspace(0.0, 2.0 * self.fit(a, n).length, 4001) / (4.0 * n)
        values = analytic_smallest_cdf(a, n)(t)
        assert np.all(np.diff(values) >= -1e-14)

    @pytest.mark.parametrize("a,n,tail", [(0.5, 20, 1e-14), (0, 1, 1e-14), (1, 20, 0.0)])
    def test_refused_fit_stays_direct(self, a, n, tail, monkeypatch):
        # (0.5, 20): a non-integer a; (0, 1): a refused node determinant of
        # the fit on [0, 256], the first at s = 147; (1, 20): a tail that no
        # bound of zero accepts
        monkeypatch.setattr(montecarlo, "CHEBYSHEV_TAIL", tail)
        spec = finite_spec(a, n)
        assert montecarlo._chebyshev_fit(spec, 50) is None
        t = np.geomspace(1e-3, 10.0, 40) / n
        assert analytic_smallest_cdf(a, n)(t).tolist() == self.direct(a, n, t)

    def test_ladder_past_the_axis_stays_direct(self, monkeypatch):
        # at (1, 20) the ladder stops at L = 256; on an axis that ends at 64
        # it passes the end at L = 128 first, so the build is refused and
        # every s <= 64 keeps its determinant
        monkeypatch.setattr(montecarlo, "S_MAX", 64.0)
        assert montecarlo._chebyshev_fit(finite_spec(1, 20), 50) is None
        t = np.geomspace(1e-3, 0.8, 20)
        assert analytic_smallest_cdf(1, 20)(t).tolist() == self.direct(1, 20, t)


class TestInterpolantCache:
    """One interpolant per (a, n, m) in a process, a refused build included."""

    @pytest.mark.parametrize("a,n", [(0, 5), (1, 1), (1, 20), (3, 50)])
    def test_cached_fit_is_a_fresh_build(self, a, n):
        cached = montecarlo._chebyshev_fit(finite_spec(a, n), 50)
        fresh = montecarlo._chebyshev_fit.__wrapped__(finite_spec(a, n), 50)
        assert [repr(getattr(cached, field.name)) for field in fields(cached)] == \
            [repr(getattr(fresh, field.name)) for field in fields(fresh)]
        # an equal spec made anew finds the same entry
        assert montecarlo._chebyshev_fit(finite_spec(float(a), n), 50) is cached

    def test_refused_build_is_cached(self, monkeypatch):
        # (0, 1) at m = 50: a node determinant of the fit on [0, 256] is
        # refused, so every value stays a determinant, one assembly each
        assert montecarlo._chebyshev_fit(finite_spec(0, 1), 50) is None
        grid = [0.05, 0.5, 5.0]
        direct = TestChebyshevCdf.direct(0, 1, grid)
        sizes = TestAnalyticCdf.count_assemblies(monkeypatch)
        for _ in range(2):
            cdf = analytic_smallest_cdf(0, 1, m=50)
            assert [cdf(t) for t in grid] == direct
        assert sizes == [(50,)] * (2 * len(grid))
        info = montecarlo._chebyshev_fit.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_node_count_is_part_of_the_key(self):
        spec = finite_spec(1, 20)
        at_50, at_60 = (montecarlo._chebyshev_fit(spec, m) for m in (50, 60))
        assert montecarlo._chebyshev_fit.cache_info().currsize == 2
        assert at_50 != at_60
        assert at_60 == montecarlo._chebyshev_fit.__wrapped__(spec, 60)
        assert montecarlo._chebyshev_fit(spec, 50) is at_50
        assert analytic_smallest_cdf(1, 20, m=60)(0.1) == at_60(8.0)

    def test_shared_fit_is_frozen(self):
        fit = montecarlo._chebyshev_fit(finite_spec(1, 20), 50)
        for field in fields(fit):
            with pytest.raises(FrozenInstanceError):
                setattr(fit, field.name, getattr(fit, field.name))
        assert isinstance(fit.tail, tuple)


class TestKsValidate:
    @pytest.mark.parametrize("a,n", [(0, 5), (1, 20), (3, 50)])
    def test_equals_ks_compare(self, a, n):
        batch = sample_smallest(a, n, 2000, seed=77)
        expected = ks_compare(batch, analytic_smallest_cdf(a, n))
        assert ks_validate(a, n, 2000, seed=77) == expected

    @pytest.mark.parametrize("count,m", [(999, 50), (500, 50), (math.nan, 50), (1000, 3)])
    def test_arguments_checked_before_the_first_draw(self, count, m, monkeypatch):
        draws = []
        monkeypatch.setattr(montecarlo, "_sample_block", lambda *args: draws.append(args) or [1.0])
        with pytest.raises(DomainError):
            ks_validate(0, 200, count, seed=1, m=m)
        assert draws == []
        # and the patched function is the one that draws: one block of both samples
        sample_smallest(0, 200, 2, seed=1)
        assert [args[3:] for args in draws] == [(0, 2)]

    @pytest.mark.parametrize("a,n,count,seed,message", [
        (0.5, 5, 999, 1, "KS comparison needs count >= 1000"),
        (0.5, 5, 1000, 1, "sampler order a must be an integer >= 0"),
        (-1, 5, 1000, 1, "sampler order a must be an integer >= 0"),
        (0, 201, 1000, 1, r"sampler order n must be an integer in \[1, 200\]"),
        (0, 5, 1000, -1, "seed must be an integer"),
        (0, 5, 1000, 1, "node count"),
    ])
    def test_refusal_order(self, a, n, count, seed, message, monkeypatch):
        # m = 3 is refused too: the count floor first, then the sampler's own
        # refusals, then m when the CDF is made, all before any draw
        draws = []
        monkeypatch.setattr(montecarlo, "_sample_block", lambda *args: draws.append(args) or [1.0])
        with pytest.raises(DomainError, match=message):
            ks_validate(a, n, count, seed=seed, m=3)
        assert draws == []

    def test_count_cap(self, monkeypatch):
        # the cap is accepted up to the CDF and the first draw, each patched
        # to fail, and one past it is refused before either
        def fail(what):
            def reached(*args):
                raise RuntimeError(what)
            return reached

        monkeypatch.setattr(montecarlo, "_sample_block", fail("draw"))
        monkeypatch.setattr(montecarlo, "analytic_smallest_cdf", fail("cdf"))
        cap = montecarlo.MAX_SAMPLE_COUNT
        assert cap == 10 ** 7
        with pytest.raises(RuntimeError, match="draw"):
            sample_smallest(1, 20, cap, seed=1)
        with pytest.raises(RuntimeError, match="cdf"):
            ks_validate(1, 20, cap, seed=1)
        for run in (sample_smallest, ks_validate):
            with pytest.raises(DomainError, match=rf"count must be an integer in \[1, {cap}\], "
                                                  rf"got {cap + 1}$"):
                run(1, 20, cap + 1, seed=1)

    def test_cdf_made_before_the_draw_with_one_m_check(self, monkeypatch):
        events = []
        check_m, make_cdf = montecarlo._check_m, montecarlo.analytic_smallest_cdf
        draw = montecarlo.sample_smallest
        monkeypatch.setattr(montecarlo, "_check_m", lambda m: events.append("m") or check_m(m))
        monkeypatch.setattr(montecarlo, "analytic_smallest_cdf",
                            lambda *args: events.append("cdf") or make_cdf(*args))
        monkeypatch.setattr(montecarlo, "sample_smallest",
                            lambda *args: events.append("draw") or draw(*args))
        ks_validate(0, 5, 1000, seed=1, m=30)
        assert events == ["cdf", "m", "draw"]
