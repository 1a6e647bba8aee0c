import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

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
from hardedge.specfun import S_MAX, reg_upper_gamma


class TestSampler:
    def test_reproducible(self):
        first = sample_smallest(1, 6, 300, seed=42)
        second = sample_smallest(1, 6, 300, seed=42)
        assert np.array_equal(first.values, second.values)
        different = sample_smallest(1, 6, 300, seed=43)
        assert not np.array_equal(first.values, different.values)

    def test_scalar_case_is_unit_exponential(self):
        # a 1x1 draw is |CN(0,1)|^2 ~ Exp(1); the mean over 1e5 draws sits
        # inside the 3-sigma band [0.99, 1.01]
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


def _reference_sample(a, n, seed, index):
    """One sample with one SVD of its own: the reference that the block
    sampler equals bit for bit."""
    singular_values = np.linalg.svd(_reference_matrix(a, n, seed, index), compute_uv=False)
    return float(singular_values[-1] ** 2)


def _block_size(a, n):
    return max(1, montecarlo.BLOCK_ENTRIES // (n * (n + a)))


class TestBlockSampler:
    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
    @pytest.mark.parametrize("a,n", [(0, 1), (0, 5), (1, 20), (3, 7), (2, 200)])
    def test_equals_the_per_sample_reference(self, a, n, seed):
        # counts on either side of the first block boundary. At n = 200 every
        # block is one sample, so 3 stands in for 1000: an SVD there takes
        # 13 ms (x86-64, OpenBLAS), and 1000 would take 26 s per seed
        block = _block_size(a, n)
        counts = sorted({1, block - 1, block, block + 1, 1000 if n < 200 else 3} - {0})
        reference = [_reference_sample(a, n, seed, i) for i in range(counts[-1])]
        for count in counts:
            assert sample_smallest(a, n, count, seed).values.tolist() == reference[:count]

    @pytest.mark.parametrize("a,n", [(0, 5), (1, 20), (3, 7)])
    def test_prefix_of_a_longer_sample(self, a, n):
        block = _block_size(a, n)
        longer = sample_smallest(a, n, 2 * block + 3, 8).values.tolist()
        for count in (1, block - 1, block, block + 1, 2 * block + 2):
            assert sample_smallest(a, n, count, 8).values.tolist() == longer[:count]

    def test_one_svd_call_per_block(self, monkeypatch):
        svd, stacks = np.linalg.svd, []

        def counting(x, *args, **kwargs):
            stacks.append(len(x))
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        sample_smallest(1, 20, 1000, 7)
        # blocks of 2^16 // (20 * 21) = 156 samples
        assert stacks == [156] * 6 + [64]

    @pytest.mark.parametrize("index", [0, 100, 156, 999])
    def test_failed_svd_names_the_sample(self, index, monkeypatch):
        a, n, seed = 1, 20, 7
        svd, failing = np.linalg.svd, _reference_matrix(a, n, seed, index)

        def refusing(x, *args, **kwargs):
            if np.any(np.all(x == failing, axis=(-2, -1))):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", refusing)
        with pytest.raises(NumericError) as raised:
            sample_smallest(a, n, 1000, seed)
        assert str(raised.value) == f"SVD failed for sample {index} (a=1, n=20, seed=7)"
        assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)


class TestKsCompare:
    @staticmethod
    def _exponential_cdf(n):
        return lambda t: 1.0 - math.exp(-n * t)

    def test_self_consistent_synthetic_batch(self):
        # inverse-CDF draws from the analytic law itself must pass
        n, count = 5, 5000
        uniform = np.random.default_rng(11).uniform(size=count)
        values = -np.log1p(-uniform) / n
        batch = SampleBatch(a=0, n=n, count=count, seed=0, values=values)
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
        batch = SampleBatch(a=0, n=5, count=1000, seed=0, values=np.linspace(0.01, 1.0, 1000))
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                ks_compare(batch, lambda t, bad=bad: bad)

    def test_count_floor(self):
        batch = sample_smallest(0, 3, 999, seed=1)
        with pytest.raises(DomainError):
            ks_compare(batch, self._exponential_cdf(3))


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

    @pytest.mark.parametrize("a,n,t", [(400, 1, 420.0), (300, 1, 401.0)])
    def test_clamp_refused_where_the_survival_is_not_negligible(self, a, n, t):
        # s = 4 n t > 1600, but at n = 1 the law is Gamma(a + 1): at a = 400
        # the CDF at t = 420 is 0.83, not 1
        with pytest.raises(AccuracyError):
            analytic_smallest_cdf(a, n)(t)

    def test_clamp_kept_where_the_survival_bound_is_negligible(self):
        assert analytic_smallest_cdf(1, 20)(40.0) == 1.0

    @pytest.mark.parametrize("a,n,t", [
        (1, 20, 21.0), (0, 200, 14.0), (2.5, 30, 40.0), (-0.9, 1000, 12.0), (0, 1, math.inf),
        (400, 1, math.inf), (0, 200, 3.0), (10, 50, 20.0),
    ])
    def test_clamped_beyond_the_axis(self, a, n, t):
        # non-integer a included: the bidiagonal model holds for every a > -1.
        # At integer a past the interpolant's L the survival bound is not
        # asked: at (0, 200, 3.0) the survival is e^{-600}, the bound 0.017
        assert analytic_smallest_cdf(a, n)(t) == 1.0

    @pytest.mark.parametrize("a,n,t", [(0.5, 1000, 0.5)])
    def test_loose_bound_refuses_beyond_the_axis(self, a, n, t):
        # without an interpolant: the survival is negligible here, but the
        # diagonal bound is not (0.80)
        with pytest.raises(AccuracyError):
            analytic_smallest_cdf(a, n)(t)

    @pytest.mark.parametrize("a,n", [(-0.9, 5), (0.5, 20), (1, 10), (3, 4), (0, 3)])
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
    def test_survival_bound_is_the_law_at_order_one(self, a):
        # n = 1: lambda_min is a single Gamma(a+1) variable
        for t in (0.1, 1.0, 5.0):
            assert _survival_bound(a, 1, t) == reg_upper_gamma(a + 1.0, t)
            [record] = fredholm._batch(finite_spec(a, 1), [4.0 * t], 50)
            assert record.value == pytest.approx(
                reg_upper_gamma(a + 1.0, t), rel=1e-12
            )

    @staticmethod
    def count_assemblies(monkeypatch) -> list:
        sizes = []

        def counting(spec, node_sets):
            sizes.append(tuple(nodes.size for nodes in node_sets))
            return _kernel_blocks(spec, node_sets)

        monkeypatch.setattr(fredholm, "_kernel_blocks", counting)
        return sizes

    def test_one_assembly_per_value(self, monkeypatch):
        # the m + 10 error estimate of finite_cdf is not needed for a CDF
        # value; at non-integer a every value is a determinant
        sizes = self.count_assemblies(monkeypatch)
        grid = [0.005, 0.02, 0.1]
        values = [analytic_smallest_cdf(0.5, 20, m=50)(t) for t in grid]
        assert sizes == [(50,)] * len(grid)
        assert values == [1.0 - finite_cdf(0.5, 20, 4.0 * 20 * t, m=50).value for t in grid]

    def test_one_interpolant_build_per_callable(self, monkeypatch):
        # at integer a: nothing at construction, the whole build at the first
        # evaluation (survivals at L = 16, ..., 256, then 32 and 64 points),
        # and no assembly for a later t inside the hull
        sizes = self.count_assemblies(monkeypatch)
        cdf = analytic_smallest_cdf(1, 20, m=50)
        assert sizes == []
        first = cdf(0.005)
        assert sizes[:5] == [(50,)] * 5
        assert sum(size for (size,) in sizes) == 50 * (5 + 32 + 64)
        built = len(sizes)
        grid = [0.005, 0.02, 0.1, 1.0, 3.0]
        values = [cdf(t) for t in grid]
        assert cdf(np.array(grid)).tolist() == values and values[0] == first
        assert len(sizes) == built


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
        pytest.param(0.5, 200, [1e-3, 3.0, 6.0], AccuracyError, id="0.5-200-3.0-AccuracyError"),
        # 1e-3 is refused alone: the weights underflow at s = 0.004
        pytest.param(400, 1, [1e-3, 420.0, 840.0], AccuracyError,
                     id="400-1-420.0-AccuracyError"),
        pytest.param(1, 20, [1e-3, math.nan, math.nan], DomainError, id="1-20-nan-DomainError"),
        # a negative determinant at s = 800 before the survival bound at t = 3
        pytest.param(0.5, 200, [1.0, 3.0], NumericError, id="0.5-200-1.0-NumericError"),
    ])
    def test_refused_t_keeps_the_scalar_refusal(self, a, n, t, error):
        # the first t in input order that is refused alone raises its refusal
        cdf = analytic_smallest_cdf(a, n)
        one_t = [self.refusal(lambda: cdf(t_k)) for t_k in t]
        expected = next(refusal for refusal in one_t if refusal is not None)
        assert expected[0] is error
        assert self.refusal(lambda: cdf(np.array(t))) == expected


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

    @pytest.mark.parametrize("a,n,tail", [(0.5, 20, 1e-14), (1, 1, 1e-14), (1, 20, 0.0)])
    def test_refused_fit_stays_direct(self, a, n, tail, monkeypatch):
        # (0.5, 20): a non-integer a; (1, 1): a refused survival at L = 512;
        # (1, 20): a tail that no bound of zero accepts
        monkeypatch.setattr(montecarlo, "CHEBYSHEV_TAIL", tail)
        spec = finite_spec(a, n)
        assert montecarlo._chebyshev_fit(spec, 50) is None
        t = np.geomspace(1e-3, 10.0, 40) / n
        assert analytic_smallest_cdf(a, n)(t).tolist() == self.direct(a, n, t)


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
        # and the patched function is the one that draws: a block per sample here
        sample_smallest(0, 200, 2, seed=1)
        assert [args[3:] for args in draws] == [(0, 1), (1, 2)]
