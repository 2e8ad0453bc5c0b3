"""RTO estimator tests (Linux tcp_rtt_estimator semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.constants import MAX_RTO, MIN_RTO
from repro.tcp.rto import RTOEstimator

rtts = st.floats(min_value=0.001, max_value=3.0)


class TestBasics:
    def test_initial_rto_before_samples(self):
        est = RTOEstimator()
        assert est.rto == est.initial_rto
        assert est.srtt is None

    def test_first_sample_seeds(self):
        est = RTOEstimator()
        est.observe(0.1, now=0.0)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar4 == pytest.approx(max(0.2, MIN_RTO))

    def test_rto_floor_is_srtt_plus_min(self):
        """The kernel's deviation floor: RTO >= SRTT + 200ms even on a
        perfectly smooth path."""
        est = RTOEstimator()
        for i in range(200):
            est.observe(0.1, now=i * 0.1)
        assert est.rto >= 0.1 + MIN_RTO - 1e-9

    def test_srtt_converges(self):
        est = RTOEstimator()
        for i in range(100):
            est.observe(0.25, now=i * 0.25)
        assert est.srtt == pytest.approx(0.25, rel=0.01)

    def test_ignores_nonpositive(self):
        est = RTOEstimator()
        est.observe(-1.0)
        est.observe(0.0)
        assert est.srtt is None


class TestVarianceDynamics:
    def test_spike_raises_rto_immediately(self):
        est = RTOEstimator()
        for i in range(50):
            est.observe(0.1, now=i * 0.1)
        baseline = est.rto
        est.observe(1.0, now=5.1)  # delay spike
        assert est.rto > baseline

    def test_variance_decays_slowly(self):
        """rttvar decays ~25% per RTT window, not per sample."""
        est = RTOEstimator()
        now = 0.0
        for _ in range(20):
            est.observe(0.1, now=now)
            now += 0.1
        est.observe(1.5, now=now)
        spiked = est.rttvar4
        # Ten more smooth samples within roughly two RTT windows.
        for _ in range(4):
            now += 0.05
            est.observe(0.1, now=now)
        assert est.rttvar4 > spiked * 0.5

    def test_windowed_decay_eventually_settles(self):
        est = RTOEstimator()
        now = 0.0
        est.observe(0.1, now=now)
        est.observe(2.0, now=now + 0.1)
        for i in range(500):
            now += 0.11
            est.observe(0.1, now=now)
        assert est.rttvar4 <= 2 * MIN_RTO + 0.1


class TestBackoff:
    def test_timeout_doubles(self):
        est = RTOEstimator()
        est.observe(0.1, now=0.0)
        base = est.rto
        est.on_timeout()
        assert est.rto == pytest.approx(min(2 * base, MAX_RTO))
        est.on_timeout()
        assert est.rto == pytest.approx(min(4 * base, MAX_RTO))

    def test_backoff_capped_at_max(self):
        est = RTOEstimator()
        est.observe(0.1, now=0.0)
        for _ in range(40):
            est.on_timeout()
        assert est.rto == MAX_RTO

    def test_ack_clears_backoff(self):
        est = RTOEstimator()
        est.observe(0.1, now=0.0)
        base = est.rto
        est.on_timeout()
        est.on_ack()
        assert est.rto == pytest.approx(base)


class TestSeeding:
    def test_seed_sets_state(self):
        est = RTOEstimator()
        est.seed(0.15, 0.8)
        assert est.srtt == pytest.approx(0.15)
        assert est.rto == pytest.approx(0.15 + 0.8)

    def test_seed_floors_variance(self):
        est = RTOEstimator()
        est.seed(0.15, 0.0)
        assert est.rttvar4 >= MIN_RTO

    def test_samples_fold_into_seeded_state(self):
        est = RTOEstimator()
        est.seed(0.5, 0.4)
        for i in range(100):
            est.observe(0.1, now=i * 0.1)
        assert est.srtt < 0.2


class TestStallThreshold:
    def test_uses_rto_before_samples(self):
        est = RTOEstimator()
        assert est.stall_threshold() == est.rto

    def test_min_of_two_srtt_and_rto(self):
        est = RTOEstimator()
        est.observe(0.05, now=0.0)  # rto ~ 0.05 + 0.2
        assert est.stall_threshold(2.0) == pytest.approx(0.1)

    def test_rto_binds_when_srtt_large(self):
        est = RTOEstimator()
        est.seed(1.0, 0.2)
        assert est.stall_threshold(2.0) == pytest.approx(est.rto)


class TestInvariants:
    @given(st.lists(rtts, min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_rto_bounds(self, samples):
        est = RTOEstimator()
        now = 0.0
        for sample in samples:
            est.observe(sample, now=now)
            now += sample
        assert MIN_RTO <= est.rto <= MAX_RTO
        assert est.rto >= est.srtt  # RTO always above the mean RTT

    @given(st.lists(rtts, min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_srtt_within_sample_range(self, samples):
        est = RTOEstimator()
        now = 0.0
        for sample in samples:
            est.observe(sample, now=now)
            now += 0.05
        assert min(samples) - 1e-9 <= est.srtt <= max(samples) + 1e-9

    @given(st.lists(rtts, min_size=2, max_size=50))
    @settings(max_examples=50)
    def test_threshold_never_exceeds_rto(self, samples):
        est = RTOEstimator()
        now = 0.0
        for sample in samples:
            est.observe(sample, now=now)
            now += 0.05
        assert est.stall_threshold() <= est.rto + 1e-12


class TestStallFloor:
    """``stall_floor`` — the packet loops' pre-screen — is a lower bound
    of the stall threshold at every step, so skipping the exact
    threshold for gaps at or below it cannot lose a stall."""

    steps = st.lists(
        st.one_of(
            st.tuples(st.just("sample"), rtts),
            st.tuples(st.just("timeout"), st.just(0.0)),
            st.tuples(st.just("ack"), st.just(0.0)),
        ),
        min_size=1,
        max_size=60,
    )

    @given(
        steps,
        st.sampled_from((MIN_RTO, 0.001, 0.05, 1.0, 5.0)),
        st.sampled_from((0.5, 1.0, 2.0, 4.0)),
    )
    @settings(max_examples=200)
    def test_floor_never_exceeds_threshold(self, steps, min_rto, tau):
        est = RTOEstimator(min_rto=min_rto)
        assert est.stall_floor(tau) == 0.0  # the initial RTO may be lower
        now = 0.0
        for kind, value in steps:
            floor = est.stall_floor(tau)
            if kind == "sample":
                est.observe(value, now=now)
                now += value
                assert est.stall_floor(tau) == min(tau * est.srtt, min_rto)
            elif kind == "timeout":
                est.on_timeout()
                assert est.stall_floor(tau) == floor  # moves with SRTT only
            else:
                est.on_ack()
                assert est.stall_floor(tau) == floor
            assert est.stall_floor(tau) <= est.stall_threshold(tau)
