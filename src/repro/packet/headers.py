"""IPv4 and TCP header structures with wire-format codecs.

These are deliberately minimal: enough to serialize the simulator's
traffic into real pcap files and to parse those files back in TAPO.
IP addresses are stored as 32-bit integers; :func:`ip_to_str` and
:func:`ip_from_str` convert to and from dotted-quad notation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import ParseError
from .checksum import checksum
from .options import TCPOptions

IPPROTO_TCP = 6

# TCP flag bits.
FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20


class HeaderDecodeError(ParseError):
    """Raised when a packet cannot be parsed."""


#: An IPv4 header (IHL 5) followed by the fixed TCP header: the one
#: wire layout every encoder in this package writes.
_IPV4_TCP = struct.Struct("!BBHHHBBHIIHHIIBBHHH")
_CHECKSUM = struct.Struct("!H")
#: Bytes of :data:`_IPV4_TCP`; TCP options follow at this offset.
IPV4_TCP_LEN = _IPV4_TCP.size


def pack_ipv4_tcp(
    buffer: bytearray,
    at: int,
    payload_len: int,
    total_length: int,
    src: int,
    dst: int,
    identification: int,
    ttl: int,
    protocol: int,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    window: int,
    urgent: int,
    options: bytes,
) -> None:
    """Lay out an IPv4 header, a TCP header and its padded ``options``
    at ``buffer[at:]``, both checksums filled.

    The TCP segment is everything in ``buffer`` from the TCP header on,
    then ``payload_len`` zero bytes that are *not* in ``buffer``: zeros
    add nothing to a one's-complement sum, so they only count in the
    pseudo-header's length and are never built in order to be summed.
    """
    header_len = IPV4_TCP_LEN + len(options)
    tcp_length = len(buffer) - at - 20 + payload_len
    # The TCP checksum field is seeded with the pseudo-header words the
    # IP header does not already hold (zero + protocol, TCP length), as
    # checksum offload seeds it: buffer[at + 12:] — source, destination,
    # then the segment — then sums as pseudo-header plus segment.
    _IPV4_TCP.pack_into(
        buffer, at,
        0x45, 0, total_length, identification, 0, ttl, protocol, 0,
        src, dst,
        src_port, dst_port, seq, ack, (header_len - 20) << 2, flags,
        window, IPPROTO_TCP + tcp_length, urgent,
    )
    buffer[at + IPV4_TCP_LEN : at + header_len] = options
    _CHECKSUM.pack_into(buffer, at + 10, checksum(buffer[at : at + 20]))
    _CHECKSUM.pack_into(buffer, at + 36, checksum(buffer[at + 12 :]))


def ip_from_str(text: str) -> int:
    """Parse dotted-quad notation into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError("not a dotted quad: %r" % text)
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("octet out of range in %r" % text)
        value = (value << 8) | octet
    return value


def ip_to_str(value: int) -> str:
    """Format a 32-bit integer as dotted-quad notation."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(slots=True)
class IPv4Header:
    """An IPv4 header without options (IHL = 5)."""

    src: int
    dst: int
    total_length: int = 0
    identification: int = 0
    ttl: int = 64
    protocol: int = IPPROTO_TCP

    HEADER_LEN = 20

    def encode(self) -> bytes:
        """Serialize with a valid header checksum: the first 20 bytes of
        :func:`pack_ipv4_tcp`'s layout."""
        buffer = bytearray(IPV4_TCP_LEN)
        pack_ipv4_tcp(
            buffer, 0, 0, self.total_length, self.src, self.dst,
            self.identification, self.ttl, self.protocol,
            0, 0, 0, 0, 0, 0, 0, b"",
        )
        return bytes(buffer[: self.HEADER_LEN])

    @classmethod
    def decode(cls, data: bytes) -> tuple["IPv4Header", int]:
        """Parse an IPv4 header; return (header, header_length)."""
        if len(data) < cls.HEADER_LEN:
            raise HeaderDecodeError("IPv4 header truncated")
        (
            ver_ihl,
            _tos,
            total_length,
            identification,
            _frag,
            ttl,
            protocol,
            _csum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBHII", data[: cls.HEADER_LEN])
        version = ver_ihl >> 4
        ihl = (ver_ihl & 0x0F) * 4
        if version != 4:
            raise HeaderDecodeError("not IPv4 (version=%d)" % version)
        if ihl < cls.HEADER_LEN or ihl > len(data):
            raise HeaderDecodeError("bad IHL %d" % ihl)
        header = cls(
            src=src,
            dst=dst,
            total_length=total_length,
            identification=identification,
            ttl=ttl,
            protocol=protocol,
        )
        return header, ihl


@dataclass(slots=True)
class TCPHeader:
    """A TCP header with decoded options."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int = FLAG_ACK
    window: int = 65535
    urgent: int = 0
    options: TCPOptions = field(default_factory=TCPOptions)

    BASE_LEN = 20

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    def header_length(self) -> int:
        return self.BASE_LEN + self.options.wire_length()

    def encode(self, payload: bytes, src_ip: int, dst_ip: int) -> bytes:
        """Serialize header + payload with a valid checksum."""
        options = self.options.encode()
        buffer = bytearray(IPV4_TCP_LEN + len(options))
        buffer += payload
        pack_ipv4_tcp(
            buffer, 0, 0, len(buffer), src_ip, dst_ip, 0, 64, IPPROTO_TCP,
            self.src_port, self.dst_port, self.seq, self.ack, self.flags,
            self.window, self.urgent, options,
        )
        return bytes(buffer[IPv4Header.HEADER_LEN :])

    @classmethod
    def decode(
        cls, data: bytes, lenient: bool = False
    ) -> tuple["TCPHeader", int]:
        """Parse a TCP header; return (header, header_length).

        ``lenient`` tolerates a malformed option area (partial options
        are kept) instead of raising
        :class:`~repro.packet.options.OptionDecodeError`.
        """
        if len(data) < cls.BASE_LEN:
            raise HeaderDecodeError("TCP header truncated")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_reserved,
            flags,
            window,
            _csum,
            urgent,
        ) = struct.unpack("!HHIIBBHHH", data[: cls.BASE_LEN])
        header_len = (offset_reserved >> 4) * 4
        if header_len < cls.BASE_LEN or header_len > len(data):
            raise HeaderDecodeError("bad TCP data offset %d" % header_len)
        options = TCPOptions.decode(
            data[cls.BASE_LEN : header_len], lenient=lenient
        )
        header = cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            urgent=urgent,
            options=options,
        )
        return header, header_len
