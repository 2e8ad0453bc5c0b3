"""Internet checksum tests."""

import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.packet.checksum import (
    checksum,
    ones_complement_sum,
    tcp_checksum,
    verify_tcp_checksum,
)


def rfc1071_sum(data: bytes) -> int:
    """RFC 1071's word loop: add 16-bit big-endian words (odd input
    padded with a zero byte), then fold the carries back in.  The
    reference the big-integer fold is checked against."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


@st.composite
def sum_is_zero_mod_ffff(draw) -> bytes:
    """Nonzero data whose word sum is a multiple of 0xFFFF: the fold
    must answer 0xFFFF there, never 0."""
    words = draw(st.lists(st.integers(0, 0xFFFF), max_size=40))
    words.append(-sum(words) % 0xFFFF or 0xFFFF)
    words = draw(st.permutations(words))
    return struct.pack("!%dH" % len(words), *words)


class TestMatchesWordLoop:
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes(self, data):
        assert ones_complement_sum(data) == rfc1071_sum(data)

    @given(st.binary(min_size=1, max_size=301).filter(lambda d: len(d) % 2))
    def test_odd_lengths(self, data):
        assert ones_complement_sum(data) == rfc1071_sum(data)

    @given(st.integers(0, 1601), st.sampled_from([b"\x00", b"\xff"]))
    def test_constant_runs(self, length, byte):
        data = byte * length
        assert ones_complement_sum(data) == rfc1071_sum(data)

    def test_segment_sizes(self):
        for length in (1448, 1468, 1500, 65535):
            for data in (bytes(length), b"\xff" * length):
                assert ones_complement_sum(data) == rfc1071_sum(data)

    @given(sum_is_zero_mod_ffff())
    def test_nonzero_sum_multiple_of_ffff(self, data):
        assert ones_complement_sum(data) == rfc1071_sum(data) == 0xFFFF


class TestOnesComplement:
    def test_known_rfc1071_example(self):
        # RFC 1071 example: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0xddf2
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert ones_complement_sum(data) == 0xDDF2

    def test_odd_length_padding(self):
        assert ones_complement_sum(b"\x01") == ones_complement_sum(b"\x01\x00")

    def test_empty(self):
        assert ones_complement_sum(b"") == 0


class TestChecksum:
    def test_checksum_of_zeroes(self):
        assert checksum(b"\x00\x00") == 0xFFFF

    def test_checksum_complements_sum(self):
        data = b"\x12\x34\x56\x78"
        assert checksum(data) == (~ones_complement_sum(data)) & 0xFFFF

    @given(st.binary(min_size=0, max_size=200))
    def test_data_plus_checksum_verifies(self, data):
        csum = checksum(data)
        if len(data) % 2:
            data += b"\x00"
        total = ones_complement_sum(data + csum.to_bytes(2, "big"))
        assert total == 0xFFFF


class TestTcpChecksum:
    def test_verify_roundtrip(self):
        segment = bytearray(24)
        segment[0:2] = (8080).to_bytes(2, "big")
        csum = tcp_checksum(0x0A000001, 0x0A000002, bytes(segment))
        segment[16:18] = csum.to_bytes(2, "big")
        assert verify_tcp_checksum(0x0A000001, 0x0A000002, bytes(segment))

    def test_corruption_detected(self):
        segment = bytearray(24)
        csum = tcp_checksum(1, 2, bytes(segment))
        segment[16:18] = csum.to_bytes(2, "big")
        segment[5] ^= 0xFF
        assert not verify_tcp_checksum(1, 2, bytes(segment))

    @given(
        st.integers(0, (1 << 32) - 1),
        st.integers(0, (1 << 32) - 1),
        st.binary(min_size=20, max_size=100),
    )
    def test_checksummed_segment_always_verifies(self, src, dst, payload):
        segment = bytearray(payload)
        segment[16:18] = b"\x00\x00"
        csum = tcp_checksum(src, dst, bytes(segment))
        segment[16:18] = csum.to_bytes(2, "big")
        assert verify_tcp_checksum(src, dst, bytes(segment))
