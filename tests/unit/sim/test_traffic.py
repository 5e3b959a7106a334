"""Unit tests for the open-loop traffic generator (repro.sim.traffic)."""

import math

import pytest

from repro.sim.rng import RandomStreams
from repro.sim.traffic import (
    DEFAULT_MIX,
    RequestClass,
    TrafficConfig,
    generate_arrivals,
    percentile,
    zipf_weights,
)


class TestZipfWeights:
    def test_normalized_and_monotone(self):
        w = zipf_weights(100, 1.1)
        assert w.shape == (100,)
        assert w.sum() == pytest.approx(1.0)
        assert all(w[i] > w[i + 1] for i in range(99))

    def test_s_zero_is_uniform(self):
        w = zipf_weights(10, 0.0)
        assert all(x == pytest.approx(0.1) for x in w)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.1)


class TestConfigValidation:
    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            TrafficConfig(rate=0.0, duration=10.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            TrafficConfig(rate=1.0, duration=-1.0)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            TrafficConfig(rate=1.0, duration=10.0, n_clients=0)

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            TrafficConfig(rate=1.0, duration=10.0, mix=())

    def test_bad_request_class_rejected(self):
        with pytest.raises(ValueError):
            RequestClass("zero-weight", weight=0.0, work=1.0)
        with pytest.raises(ValueError):
            RequestClass("zero-work", weight=1.0, work=0.0)


class TestGenerateArrivals:
    CONFIG = TrafficConfig(rate=50.0, duration=20.0, n_clients=200)

    def test_deterministic_per_seed(self):
        a = generate_arrivals(self.CONFIG, RandomStreams(42))
        b = generate_arrivals(self.CONFIG, RandomStreams(42))
        assert a == b
        c = generate_arrivals(self.CONFIG, RandomStreams(43))
        assert a != c

    def test_sorted_and_truncated_to_duration(self):
        arrivals = generate_arrivals(self.CONFIG, RandomStreams(7))
        assert arrivals
        assert all(0.0 <= a.at < self.CONFIG.duration for a in arrivals)
        assert all(arrivals[i].at <= arrivals[i + 1].at
                   for i in range(len(arrivals) - 1))

    def test_rate_roughly_honoured(self):
        arrivals = generate_arrivals(self.CONFIG, RandomStreams(7))
        expected = self.CONFIG.rate * self.CONFIG.duration
        assert 0.7 * expected < len(arrivals) < 1.3 * expected

    def test_zipf_population_is_head_heavy(self):
        """Rank-0 clients must dominate: the top 1% of the population
        absorbs far more than 1% of the arrivals."""
        arrivals = generate_arrivals(
            TrafficConfig(rate=200.0, duration=20.0, n_clients=1000,
                          zipf_s=1.1), RandomStreams(11))
        head = sum(1 for a in arrivals if a.client < 10)
        assert all(0 <= a.client < 1000 for a in arrivals)
        assert head / len(arrivals) > 0.10   # 1% of clients, >10% of load

    def test_mix_weights_honoured(self):
        arrivals = generate_arrivals(self.CONFIG, RandomStreams(11))
        counts = {cls.name: 0 for cls in DEFAULT_MIX}
        for a in arrivals:
            counts[a.request_class.name] += 1
        # 8:3:1 weights — the order must show in the counts.
        assert counts["interactive"] > counts["analysis"] > counts["survey"]

    def test_huge_population_stays_fast(self):
        """10^6 Zipf clients is a vectorized searchsorted, not a loop."""
        arrivals = generate_arrivals(
            TrafficConfig(rate=500.0, duration=10.0, n_clients=10 ** 6),
            RandomStreams(5))
        assert len(arrivals) > 1000
        assert all(0 <= a.client < 10 ** 6 for a in arrivals)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50.0) == 50
        assert percentile(values, 99.0) == 99
        assert percentile(values, 100.0) == 100

    def test_small_sample(self):
        assert percentile([3.0, 1.0, 2.0], 99.0) == 3.0
        assert percentile([5.0], 50.0) == 5.0

    def test_empty_sample_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
