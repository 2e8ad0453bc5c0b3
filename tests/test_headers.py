"""IPv4 / TCP header codec tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packet.checksum import checksum, verify_tcp_checksum
from repro.packet.headers import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_SYN,
    HeaderDecodeError,
    IPv4Header,
    TCPHeader,
    ip_from_str,
    ip_to_str,
)
from repro.packet.options import TCPOptions


class TestIpStrings:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.0.0.0", 0),
            ("255.255.255.255", 0xFFFFFFFF),
            ("10.0.0.1", 0x0A000001),
            ("192.168.1.42", 0xC0A8012A),
        ],
    )
    def test_roundtrip_known(self, text, value):
        assert ip_from_str(text) == value
        assert ip_to_str(value) == text

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            ip_from_str("10.0.0")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ip_from_str("300.0.0.1")

    @given(st.integers(0, 0xFFFFFFFF))
    def test_roundtrip_property(self, value):
        assert ip_from_str(ip_to_str(value)) == value


class TestIPv4Header:
    def test_roundtrip(self):
        header = IPv4Header(src=0x0A000001, dst=0x0A000002, total_length=40)
        decoded, length = IPv4Header.decode(header.encode())
        assert length == 20
        assert decoded.src == header.src
        assert decoded.dst == header.dst
        assert decoded.total_length == 40
        assert decoded.protocol == 6

    def test_truncated(self):
        with pytest.raises(HeaderDecodeError):
            IPv4Header.decode(b"\x45\x00\x00")

    @given(
        src=st.integers(0, 0xFFFFFFFF),
        total_length=st.integers(0, 65535),
        ttl=st.integers(0, 255),
        protocol=st.integers(0, 255),
    )
    def test_header_checksum_verifies(self, src, total_length, ttl, protocol):
        header = IPv4Header(
            src=src, dst=7, total_length=total_length, ttl=ttl,
            protocol=protocol,
        )
        wire = header.encode()
        assert len(wire) == 20
        assert checksum(wire) == 0
        decoded, _ = IPv4Header.decode(wire)
        assert (decoded.ttl, decoded.protocol) == (ttl, protocol)

    def test_wrong_version(self):
        data = bytearray(IPv4Header(src=1, dst=2).encode())
        data[0] = (6 << 4) | 5
        with pytest.raises(HeaderDecodeError):
            IPv4Header.decode(bytes(data))


class TestTCPHeader:
    def test_roundtrip_no_options(self):
        header = TCPHeader(
            src_port=80,
            dst_port=45000,
            seq=1000,
            ack=2000,
            flags=FLAG_ACK,
            window=8192,
        )
        wire = header.encode(b"hello", src_ip=1, dst_ip=2)
        decoded, hlen = TCPHeader.decode(wire)
        assert hlen == 20
        assert decoded.src_port == 80
        assert decoded.dst_port == 45000
        assert decoded.seq == 1000
        assert decoded.ack == 2000
        assert decoded.window == 8192
        assert wire[hlen:] == b"hello"

    def test_roundtrip_with_options(self):
        header = TCPHeader(
            src_port=1,
            dst_port=2,
            seq=0,
            ack=0,
            flags=FLAG_SYN,
            options=TCPOptions(mss=1448, wscale=7, sack_permitted=True),
        )
        decoded, hlen = TCPHeader.decode(header.encode(b"", 0, 0))
        assert decoded.options.mss == 1448
        assert decoded.options.wscale == 7
        assert decoded.options.sack_permitted
        assert hlen == header.header_length()

    def test_flag_properties(self):
        header = TCPHeader(
            src_port=1, dst_port=2, seq=0, ack=0, flags=FLAG_SYN | FLAG_ACK
        )
        assert header.syn and header.ack_flag
        assert not header.fin and not header.rst
        fin = TCPHeader(src_port=1, dst_port=2, seq=0, ack=0, flags=FLAG_FIN)
        assert fin.fin

    def test_truncated(self):
        with pytest.raises(HeaderDecodeError):
            TCPHeader.decode(b"\x00" * 10)

    def test_bad_data_offset(self):
        wire = bytearray(
            TCPHeader(src_port=1, dst_port=2, seq=0, ack=0).encode(b"", 0, 0)
        )
        wire[12] = 2 << 4  # offset below minimum
        with pytest.raises(HeaderDecodeError):
            TCPHeader.decode(bytes(wire))

    @given(
        src=st.integers(0, 65535),
        dst=st.integers(0, 65535),
        seq=st.integers(0, (1 << 32) - 1),
        ack=st.integers(0, (1 << 32) - 1),
        window=st.integers(0, 65535),
        payload=st.binary(max_size=64),
    )
    def test_roundtrip_property(self, src, dst, seq, ack, window, payload):
        header = TCPHeader(
            src_port=src, dst_port=dst, seq=seq, ack=ack, window=window
        )
        wire = header.encode(payload, 7, 8)
        decoded, hlen = TCPHeader.decode(wire)
        assert (decoded.src_port, decoded.dst_port) == (src, dst)
        assert (decoded.seq, decoded.ack, decoded.window) == (seq, ack, window)
        # The checksum covers the payload, odd lengths included.
        assert wire[hlen:] == payload
        assert verify_tcp_checksum(7, 8, wire)
