"""Loss and jitter model tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.loss import (
    BernoulliLoss,
    CompositeJitter,
    CompositeLoss,
    GilbertElliottLoss,
    NoJitter,
    NoLoss,
    RandomWalkJitter,
    SpikeJitter,
    TimedBurstLoss,
    UniformJitter,
)


class TestBernoulli:
    def test_zero_never_drops(self):
        rng = random.Random(1)
        model = BernoulliLoss(0.0)
        assert not any(model.should_drop(rng) for _ in range(1000))

    def test_one_always_drops(self):
        rng = random.Random(1)
        model = BernoulliLoss(1.0)
        assert all(model.should_drop(rng) for _ in range(100))

    def test_rate_statistics(self):
        rng = random.Random(7)
        model = BernoulliLoss(0.1)
        drops = sum(model.should_drop(rng) for _ in range(20000))
        assert 0.08 < drops / 20000 < 0.12

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            BernoulliLoss(rate)


class TestNoLoss:
    def test_never_drops(self):
        rng = random.Random(0)
        assert not any(NoLoss().should_drop(rng) for _ in range(100))


def stationary_loss(p_bad: float, good_loss: float, bad_loss: float) -> float:
    """Long-run drop rate of a two-state chain that spends a share
    ``p_bad`` of its time in the bad state."""
    return p_bad * bad_loss + (1 - p_bad) * good_loss


def gilbert_elliott_loss(model: GilbertElliottLoss) -> float:
    """The chain's stationary drop rate: pi_bad = p_gb / (p_gb + p_bg)."""
    p_bad = model.p_gb / (model.p_gb + model.p_bg)
    return stationary_loss(p_bad, model.good_loss, model.bad_loss)


class TestGilbertElliott:
    def test_steady_state_formula(self):
        """The sampled drop rate meets the closed form written out:
        p_gb / (p_gb + p_bg) with no loss in the good state."""
        rng = random.Random(7)
        model = GilbertElliottLoss(p_gb=0.01, p_bg=0.3)
        drops = sum(model.should_drop(rng) for _ in range(100000))
        assert drops / 100000 == pytest.approx(0.01 / 0.31, rel=0.25)

    def test_empirical_matches_steady_state(self):
        rng = random.Random(3)
        model = GilbertElliottLoss(p_gb=0.02, p_bg=0.3)
        drops = sum(model.should_drop(rng) for _ in range(50000))
        assert drops / 50000 == pytest.approx(
            gilbert_elliott_loss(model), rel=0.25
        )

    def test_drops_are_bursty(self):
        """Drops cluster: P(drop | previous drop) >> base rate."""
        rng = random.Random(5)
        model = GilbertElliottLoss(p_gb=0.01, p_bg=0.2)
        outcomes = [model.should_drop(rng) for _ in range(50000)]
        follow = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if a and b
        )
        total_drops = sum(outcomes)
        assert follow / max(1, total_drops) > 3 * (total_drops / 50000)

    def test_reset(self):
        model = GilbertElliottLoss(p_gb=1.0, p_bg=0.0)
        rng = random.Random(0)
        model.should_drop(rng)
        model.reset()
        assert not model._bad

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_gb=2.0, p_bg=0.1)


class TestTimedBurst:
    def test_bursts_end_in_time(self):
        """A sender probing every 500ms escapes a ~150ms burst."""
        rng = random.Random(11)
        model = TimedBurstLoss(mean_good=1.0, mean_bad=0.15, bad_loss=1.0)
        # Sample sparsely: consecutive probes half a second apart are
        # rarely both inside a burst.
        drops = [model.should_drop(rng, now=i * 0.5) for i in range(2000)]
        consecutive = sum(1 for a, b in zip(drops, drops[1:]) if a and b)
        assert consecutive < sum(drops) * 0.45

    def test_steady_state(self):
        rng = random.Random(2)
        model = TimedBurstLoss(mean_good=1.0, mean_bad=0.1, bad_loss=1.0)
        drops = sum(
            model.should_drop(rng, now=i * 0.01) for i in range(100000)
        )
        # Time share of the bad state: mean_bad / (mean_good + mean_bad).
        p_bad = model.mean_bad / (model.mean_good + model.mean_bad)
        assert drops / 100000 == pytest.approx(
            stationary_loss(p_bad, model.good_loss, model.bad_loss), rel=0.35
        )

    def test_reset(self):
        model = TimedBurstLoss()
        rng = random.Random(0)
        model.should_drop(rng, now=100.0)
        model.reset()
        assert model._next_transition is None

    def test_rejects_bad_durations(self):
        with pytest.raises(ValueError):
            TimedBurstLoss(mean_good=0.0)
        with pytest.raises(ValueError):
            TimedBurstLoss(bad_loss=1.5)


class TestComposite:
    def test_any_model_drops(self):
        rng = random.Random(0)
        model = CompositeLoss(NoLoss(), BernoulliLoss(1.0))
        assert model.should_drop(rng)

    def test_none_drop(self):
        rng = random.Random(0)
        model = CompositeLoss(NoLoss(), NoLoss())
        assert not model.should_drop(rng)

    def test_reset_propagates(self):
        ge = GilbertElliottLoss(p_gb=1.0, p_bg=0.0)
        model = CompositeLoss(ge)
        rng = random.Random(0)
        model.should_drop(rng)
        model.reset()
        assert not ge._bad


class TestJitter:
    def test_no_jitter(self):
        assert NoJitter().extra_delay(random.Random(0)) == 0.0

    @given(st.floats(min_value=0.001, max_value=1.0))
    @settings(max_examples=20)
    def test_uniform_bounds(self, max_jitter):
        rng = random.Random(4)
        model = UniformJitter(max_jitter)
        for _ in range(50):
            assert 0 <= model.extra_delay(rng) <= max_jitter

    def test_spike_jitter_mixes_levels(self):
        rng = random.Random(9)
        model = SpikeJitter(
            base_jitter=0.01, spike_prob=0.2, spike_low=0.5, spike_high=0.6
        )
        delays = [model.extra_delay(rng) for _ in range(2000)]
        spikes = [d for d in delays if d >= 0.5]
        small = [d for d in delays if d <= 0.01]
        assert spikes and small
        assert all(d <= 0.6 for d in spikes)
        assert 0.1 < len(spikes) / 2000 < 0.3

    def test_spike_jitter_draws_as_rng_uniform(self):
        """The inlined draw takes the same numbers from the generator
        and returns the same floats as ``rng.uniform``."""
        model = SpikeJitter(
            base_jitter=0.003, spike_prob=0.3, spike_low=0.2, spike_high=0.7
        )
        rng, expected_rng = random.Random(11), random.Random(11)
        for _ in range(500):
            if expected_rng.random() < model.spike_prob:
                expected = expected_rng.uniform(0.2, 0.7)
            else:
                expected = expected_rng.uniform(0.0, 0.003)
            assert model.extra_delay(rng) == expected
        assert rng.getstate() == expected_rng.getstate()

    def test_random_walk_bounded(self):
        rng = random.Random(1)
        model = RandomWalkJitter(max_delay=0.3, volatility=0.2)
        for i in range(5000):
            delay = model.extra_delay(rng, now=i * 0.01)
            assert 0.0 <= delay <= 0.3

    def test_random_walk_is_correlated(self):
        """Successive delays move smoothly, unlike white noise."""
        rng = random.Random(2)
        model = RandomWalkJitter(max_delay=0.5, volatility=0.05)
        delays = [model.extra_delay(rng, now=i * 0.01) for i in range(1000)]
        steps = [abs(a - b) for a, b in zip(delays, delays[1:])]
        assert max(steps) < 0.1  # no instantaneous jumps

    def test_random_walk_reset(self):
        rng = random.Random(3)
        model = RandomWalkJitter(max_delay=0.5)
        model.extra_delay(rng, now=1.0)
        model.reset()
        assert model._current is None

    def test_random_walk_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RandomWalkJitter(max_delay=0.0)

    def test_composite_jitter_sums(self):
        rng = random.Random(0)
        model = CompositeJitter(UniformJitter(0.0), UniformJitter(0.0))
        assert model.extra_delay(rng) == 0.0
        model = CompositeJitter(
            SpikeJitter(base_jitter=0.0, spike_prob=0.0),
            UniformJitter(0.001),
        )
        assert 0 <= model.extra_delay(rng) <= 0.001
