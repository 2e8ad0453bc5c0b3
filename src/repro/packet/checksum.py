"""Internet checksum (RFC 1071) used by the IPv4 and TCP headers.

The one's-complement sum is taken as one big-integer fold rather than
a loop over 16-bit words.  Read little-endian, the data is the integer
``v = sum(s_i * 2**(16 * i))`` over its byte-swapped words ``s_i`` (an
odd last byte is the low byte of its word, so RFC 1071's zero pad is
implicit).  Since ``2**16 ≡ 1 (mod 0xFFFF)``, ``v ≡ sum(s_i)``; and a
swapped word is ``s ≡ 2**8 * w``, so the sum of the words themselves is
``≡ 2**8 * v``.  RFC 1071's end-around-carry sum is the member of that
residue class that lies in ``[1, 0xFFFF]`` — a carry fold of a nonzero
total never reaches 0 — or 0 when every byte is zero.  So the sum is
``(2**8 * v) % 0xFFFF``, except that a remainder of 0 from nonzero data
stands for ``0xFFFF``.

Little-endian, because trailing zero bytes (a zero payload) then become
high-order zeros, which ``int.from_bytes`` drops before converting:
they cost a byte scan, not a big-integer division.
"""

from __future__ import annotations

import struct


def ones_complement_sum(data: bytes) -> int:
    """Return the 16-bit one's-complement sum of ``data``.

    Odd-length input is padded with a trailing zero byte, as RFC 1071
    specifies.
    """
    value = int.from_bytes(data, "little")
    total = ((value % 0xFFFF) << 8) % 0xFFFF
    if total == 0 and value:
        return 0xFFFF
    return total


def checksum(data: bytes) -> int:
    """Return the Internet checksum of ``data``."""
    return (~ones_complement_sum(data)) & 0xFFFF


def tcp_pseudo_header(src_ip: int, dst_ip: int, tcp_length: int) -> bytes:
    """Build the IPv4 pseudo-header used in the TCP checksum."""
    return struct.pack("!IIBBH", src_ip, dst_ip, 0, 6, tcp_length)


def tcp_checksum(src_ip: int, dst_ip: int, segment: bytes) -> int:
    """Compute the TCP checksum over pseudo-header + segment."""
    pseudo = tcp_pseudo_header(src_ip, dst_ip, len(segment))
    return checksum(pseudo + segment)


def verify_tcp_checksum(src_ip: int, dst_ip: int, segment: bytes) -> bool:
    """True when ``segment`` (with its checksum field filled) verifies."""
    pseudo = tcp_pseudo_header(src_ip, dst_ip, len(segment))
    return ones_complement_sum(pseudo + segment) == 0xFFFF
