"""Aggregation and statistics helpers tests."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow_analyzer import FlowAnalysis
from repro.core.report import ServiceReport, cdf_points, percentile
from repro.experiments.tables import TABLE3_ROWS
from repro.core.stalls import (
    CaState,
    DoubleKind,
    RetxCause,
    Stall,
    StallCause,
    StallContext,
)
from repro.packet.flow import FlowKey, FlowTrace


def make_flow_trace():
    return FlowTrace(
        key=FlowKey(1, 2, 3, 4), server=(1, 2), client=(3, 4), packets=[]
    )


def make_stall(
    cause=StallCause.RETRANSMISSION,
    retx=None,
    duration=1.0,
    start=10.0,
    **ctx_kwargs,
):
    return Stall(
        start_time=start,
        end_time=start + duration,
        threshold=0.2,
        cur_pkt_index=0,
        cur_pkt_dir_in=False,
        cur_pkt_is_data=True,
        cur_pkt_is_retrans=True,
        cur_pkt_seq=0,
        cur_pkt_payload=1000,
        context=StallContext(**ctx_kwargs),
        cause=cause,
        retx_cause=retx,
    )


def make_analysis(stalls=(), **kwargs):
    analysis = FlowAnalysis(flow=make_flow_trace())
    analysis.stalls = list(stalls)
    for key, value in kwargs.items():
        setattr(analysis, key, value)
    return analysis


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7.0], 90) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_within_range(self, values):
        for q in (0, 25, 50, 75, 100):
            assert min(values) <= percentile(values, q) <= max(values)


class TestCdf:
    def test_points_monotone(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_empty(self):
        assert cdf_points([]) == []


class TestServiceReport:
    def test_table1_row_empty(self):
        report = ServiceReport(service="x")
        assert report.table1_row()["flows"] == 0

    def test_table1_aggregates(self):
        report = ServiceReport(service="x")
        report.add(
            make_analysis(
                data_packets=100,
                retransmissions=10,
                bytes_out=100_000,
                duration=10.0,
                rtt_samples=[0.1, 0.2],
                rto_samples=[1.0],
            )
        )
        row = report.table1_row()
        assert row["flows"] == 1
        assert row["avg_flow_size"] == 100_000
        assert row["pkt_loss"] == pytest.approx(0.1)
        assert row["avg_rtt"] == pytest.approx(0.15)
        assert row["avg_rto"] == pytest.approx(1.0)
        assert row["avg_speed"] == pytest.approx(10_000)

    def test_cause_breakdown_shares(self):
        report = ServiceReport(service="x")
        report.add(
            make_analysis(
                stalls=[
                    make_stall(StallCause.CLIENT_IDLE, duration=1.0),
                    make_stall(StallCause.RETRANSMISSION, duration=3.0),
                ]
            )
        )
        breakdown = report.cause_breakdown()
        assert breakdown[StallCause.CLIENT_IDLE].volume_share == 0.5
        assert breakdown[StallCause.CLIENT_IDLE].time_share == 0.25
        assert breakdown[StallCause.RETRANSMISSION].time_share == 0.75

    def test_category_breakdown(self):
        report = ServiceReport(service="x")
        report.add(
            make_analysis(
                stalls=[
                    make_stall(StallCause.DATA_UNAVAILABLE),
                    make_stall(StallCause.RESOURCE_CONSTRAINT),
                    make_stall(StallCause.PACKET_DELAY),
                ]
            )
        )
        # Table 3 groups its cause rows by the category it prints.
        breakdown = report.cause_breakdown()
        categories = {}
        for category, cause, _ in TABLE3_ROWS:
            categories[category] = (
                categories.get(category, 0) + breakdown[cause].count
            )
        assert categories == {"server": 2, "client": 0, "net.": 1}

    def test_retx_breakdown(self):
        report = ServiceReport(service="x")
        report.add(
            make_analysis(
                stalls=[
                    make_stall(retx=RetxCause.DOUBLE, duration=2.0),
                    make_stall(retx=RetxCause.TAIL, duration=1.0),
                    make_stall(StallCause.CLIENT_IDLE),  # not counted
                ]
            )
        )
        breakdown = report.retx_breakdown()
        assert breakdown[RetxCause.DOUBLE].volume_share == 0.5
        assert breakdown[RetxCause.DOUBLE].time_share == pytest.approx(2 / 3)

    def test_double_kind_shares(self):
        report = ServiceReport(service="x")
        stall_f = make_stall(retx=RetxCause.DOUBLE, duration=3.0)
        stall_f.double_kind = DoubleKind.F_DOUBLE
        stall_t = make_stall(retx=RetxCause.DOUBLE, duration=1.0)
        stall_t.double_kind = DoubleKind.T_DOUBLE
        report.add(make_analysis(stalls=[stall_f, stall_t]))
        shares = report.double_kind_shares()
        assert shares[DoubleKind.F_DOUBLE] == 0.75

    def test_tail_state_shares(self):
        report = ServiceReport(service="x")
        stall = make_stall(retx=RetxCause.TAIL, duration=2.0)
        stall.tail_state = CaState.OPEN
        report.add(make_analysis(stalls=[stall]))
        shares = report.tail_state_shares()
        assert shares[CaState.OPEN] == 1.0
        assert shares[CaState.RECOVERY] == 0.0

    def test_zero_rwnd_prob_by_init(self):
        report = ServiceReport(service="x")
        for seen in (True, False):
            analysis = make_analysis()
            analysis.init_rwnd = 2 * 1448
            analysis.mss = 1448
            analysis.zero_window_seen = seen
            report.add(analysis)
        probs = report.zero_rwnd_prob_by_init([2, 45])
        assert probs[2] == (0.5, 2)
        assert probs[45] == (0.0, 0)

    def test_stall_ratio_values(self):
        report = ServiceReport(service="x")
        report.add(
            make_analysis(
                stalls=[make_stall(duration=5.0)], duration=10.0
            )
        )
        assert report.stall_ratio_values() == [0.5]

    def test_in_flight_values_concatenated(self):
        report = ServiceReport(service="x")
        report.add(make_analysis(in_flight_on_ack=[1, 2]))
        report.add(make_analysis(in_flight_on_ack=[3]))
        assert report.in_flight_values() == [1, 2, 3]

    def test_counts(self):
        report = ServiceReport(service="x")
        report.add(make_analysis(stalls=[make_stall(), make_stall()]))
        report.add(make_analysis())
        assert report.total_stalls() == 2
        assert report.flows_with_stalls() == 1

    def test_serialized_stall_lists_every_dataclass_field(self):
        """The serializer reads its field names off the dataclasses, so
        a field added to ``Stall`` / ``StallContext`` cannot be dropped
        from the report — and the values are ``asdict``'s, enums as
        their values."""
        stall = make_stall(
            retx=RetxCause.DOUBLE, ca_state=CaState.LOSS,
            in_flight=7,
        )
        stall.double_kind = DoubleKind.T_DOUBLE
        report = ServiceReport(service="x")
        report.add(make_analysis(stalls=[stall]))
        (out,) = report.to_dict()["flows"][0]["stalls"]
        assert set(out) == {f.name for f in dataclasses.fields(Stall)}
        assert set(out["context"]) == {
            f.name for f in dataclasses.fields(StallContext)
        }
        expected = dataclasses.asdict(stall)
        expected["context"]["ca_state"] = "Loss"
        expected.update(
            cause=stall.cause.value, retx_cause="double_retrans",
            double_kind="t-double",
        )
        assert out == expected
