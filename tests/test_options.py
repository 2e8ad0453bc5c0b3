"""TCP option codec tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packet.options import (
    KIND_EOL,
    KIND_NOP,
    OptionDecodeError,
    TCPOptions,
)
from repro.packet.packet import PacketRecord

#: Option bytes a TCP header can carry (data offset 15, minus 20).
OPTION_SPACE = 40

sack_block = st.tuples(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)


class TestRoundTrip:
    def test_empty(self):
        assert TCPOptions.decode(TCPOptions().encode()) == TCPOptions()

    def test_mss(self):
        opts = TCPOptions(mss=1460)
        assert TCPOptions.decode(opts.encode()).mss == 1460

    def test_wscale(self):
        opts = TCPOptions(wscale=7)
        assert TCPOptions.decode(opts.encode()).wscale == 7

    def test_sack_permitted(self):
        opts = TCPOptions(sack_permitted=True)
        assert TCPOptions.decode(opts.encode()).sack_permitted

    def test_timestamps(self):
        opts = TCPOptions(ts_val=123456, ts_ecr=654321)
        decoded = TCPOptions.decode(opts.encode())
        assert decoded.ts_val == 123456
        assert decoded.ts_ecr == 654321

    def test_sack_blocks(self):
        blocks = [(100, 200), (300, 400), (500, 600)]
        opts = TCPOptions(sack_blocks=blocks)
        assert TCPOptions.decode(opts.encode()).sack_blocks == blocks

    def test_syn_style_combination(self):
        opts = TCPOptions(mss=1448, wscale=7, sack_permitted=True, ts_val=99)
        decoded = TCPOptions.decode(opts.encode())
        assert decoded.mss == 1448
        assert decoded.wscale == 7
        assert decoded.sack_permitted
        assert decoded.ts_val == 99

    @given(
        mss=st.one_of(st.none(), st.integers(0, 65535)),
        wscale=st.one_of(st.none(), st.integers(0, 14)),
        sack_permitted=st.booleans(),
        blocks=st.lists(sack_block, max_size=4),
        ts=st.one_of(
            st.none(),
            st.tuples(
                st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1)
            ),
        ),
    )
    def test_roundtrip_property(self, mss, wscale, sack_permitted, blocks, ts):
        opts = TCPOptions(
            mss=mss,
            wscale=wscale,
            sack_permitted=sack_permitted,
            sack_blocks=list(blocks),
            ts_val=ts[0] if ts else None,
            ts_ecr=ts[1] if ts else None,
        )
        wire = opts.encode()
        decoded = TCPOptions.decode(wire)
        assert len(wire) <= OPTION_SPACE
        assert decoded.mss == mss
        assert decoded.wscale == wscale
        assert decoded.sack_permitted == sack_permitted
        # Blocks are kept in order, as many as the option space holds.
        others = (
            4 * (mss is not None) + 3 * (wscale is not None)
            + 2 * sack_permitted + 10 * (ts is not None)
        )
        room = (OPTION_SPACE - 2 - others) // 8
        assert decoded.sack_blocks == list(blocks)[:room]
        if ts:
            assert decoded.ts_val == ts[0]


class TestWireFormat:
    def test_padded_to_word_boundary(self):
        for opts in (
            TCPOptions(mss=1448),
            TCPOptions(wscale=7),
            TCPOptions(sack_blocks=[(1, 2)]),
        ):
            assert len(opts.encode()) % 4 == 0

    def test_wire_length_matches_encode(self):
        opts = TCPOptions(mss=1448, sack_blocks=[(1, 2), (3, 4)])
        assert opts.wire_length() == len(opts.encode())

    def test_at_most_four_sack_blocks_encoded(self):
        blocks = [(i, i + 1) for i in range(0, 60, 10)]
        opts = TCPOptions(sack_blocks=blocks)
        assert len(TCPOptions.decode(opts.encode()).sack_blocks) == 4

    @pytest.mark.parametrize(
        "options,kept",
        [
            # RFC 2018 section 3: three blocks beside timestamps.
            (TCPOptions(ts_val=1, ts_ecr=2), 3),
            (TCPOptions(mss=1460, wscale=7, sack_permitted=True,
                        ts_val=1, ts_ecr=2), 2),
            (TCPOptions(mss=1460), 4),
        ],
    )
    def test_sack_blocks_capped_to_option_space(self, options, kept):
        blocks = [(i, i + 5) for i in range(0, 40, 10)]
        options.sack_blocks = blocks
        wire = options.encode()
        assert len(wire) <= OPTION_SPACE
        assert options.wire_length() == len(wire)
        assert TCPOptions.decode(wire).sack_blocks == blocks[:kept]
        # The whole packet encodes: data offset at most 15 words.
        record = PacketRecord(
            timestamp=0.0, src_ip=1, dst_ip=2, src_port=3, dst_port=4,
            seq=5, ack=6, options=options,
        )
        decoded = PacketRecord.decode(record.encode())
        assert decoded.sack_blocks == blocks[:kept]

    def test_eol_terminates(self):
        data = bytes([KIND_EOL, 2, 4, 0])
        assert TCPOptions.decode(data) == TCPOptions()

    def test_nop_skipped(self):
        data = bytes([KIND_NOP, KIND_NOP]) + TCPOptions(mss=100).encode()
        assert TCPOptions.decode(data).mss == 100

    def test_unknown_option_skipped(self):
        unknown = bytes([254, 4, 0, 0])
        data = unknown + TCPOptions(mss=100).encode()
        assert TCPOptions.decode(data).mss == 100


class TestMalformed:
    def test_truncated_kind(self):
        with pytest.raises(OptionDecodeError):
            TCPOptions.decode(bytes([2]))

    def test_bad_length_zero(self):
        with pytest.raises(OptionDecodeError):
            TCPOptions.decode(bytes([2, 0, 1, 2]))

    def test_length_past_end(self):
        with pytest.raises(OptionDecodeError):
            TCPOptions.decode(bytes([2, 10, 1]))

    def test_bad_sack_length(self):
        with pytest.raises(OptionDecodeError):
            TCPOptions.decode(bytes([5, 7, 0, 0, 0, 0, 0]))


_LEGAL_OPTION = st.one_of(
    st.builds(lambda v: TCPOptions(mss=v).encode()[:4], st.integers(0, 65535)),
    st.builds(lambda v: TCPOptions(wscale=v).encode()[:3], st.integers(0, 14)),
    st.just(TCPOptions(sack_permitted=True).encode()[:2]),
    st.builds(
        lambda v, e: TCPOptions(ts_val=v, ts_ecr=e).encode()[:10],
        st.integers(0, (1 << 32) - 1),
        st.integers(0, (1 << 32) - 1),
    ),
    st.builds(
        lambda blocks: TCPOptions(sack_blocks=blocks).encode()[
            : 2 + 8 * len(blocks)
        ],
        st.lists(sack_block, min_size=1, max_size=4),
    ),
    st.just(bytes([KIND_NOP])),
    st.just(bytes([254, 4, 0, 0])),
)


@given(st.lists(_LEGAL_OPTION, max_size=12))
def test_legal_option_area_round_trips(pieces):
    """What decodes from an option area that fits a TCP header encodes
    again, within the same space, to options that decode the same."""
    area = b""
    for piece in pieces:
        if len(area) + len(piece) <= OPTION_SPACE:
            area += piece
    decoded = TCPOptions.decode(area)
    wire = decoded.encode()
    assert len(wire) <= OPTION_SPACE
    assert TCPOptions.decode(wire) == decoded
