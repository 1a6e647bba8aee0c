import math

import numpy as np
import pytest

from hardedge import (
    DomainError,
    analytic_smallest_cdf,
    finite_cdf,
    ks_compare,
    sample_smallest,
)
from hardedge import fredholm
from hardedge.kernels import kernel_matrix
from hardedge.montecarlo import SampleBatch


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

    def test_one_assembly_per_value(self, monkeypatch):
        # the m + 10 error estimate of finite_cdf is not needed for a CDF value
        sizes = []

        def counting(spec, nodes, **kwargs):
            sizes.append(nodes.size)
            return kernel_matrix(spec, nodes, **kwargs)

        monkeypatch.setattr(fredholm, "kernel_matrix", counting)
        grid = [0.005, 0.02, 0.1]
        values = [analytic_smallest_cdf(1, 20, m=50)(t) for t in grid]
        assert sizes == [50] * len(grid)
        assert values == [1.0 - finite_cdf(1, 20, 4.0 * 20 * t, m=50).value for t in grid]
