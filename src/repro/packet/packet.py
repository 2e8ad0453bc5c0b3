"""The packet record shared by the simulator and the analyzer.

A :class:`PacketRecord` is what a capture tap at the server observes: a
timestamp plus the IPv4/TCP headers and the payload length.  Payload
*content* is not retained (TAPO never needs it), which keeps multi-
million-packet traces cheap.  Records serialize to and from real
raw-IP packet bytes so traces can round-trip through pcap files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .headers import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    IPPROTO_TCP,
    IPV4_TCP_LEN,
    HeaderDecodeError,
    IPv4Header,
    TCPHeader,
    pack_ipv4_tcp,
)
from .options import SackBlock, TCPOptions
from .seqnum import seq_add


@dataclass(slots=True)
class PacketRecord:
    """One TCP/IPv4 packet as seen at a capture point.

    ``payload_len`` is the TCP payload length in bytes; SYN and FIN each
    consume one sequence number but carry no payload here.

    Slotted: multi-million-packet traces are the norm once datasets are
    cached on disk, and dropping the per-instance ``__dict__`` cuts the
    record's footprint roughly in half.
    """

    timestamp: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int = FLAG_ACK
    window: int = 65535
    payload_len: int = 0
    options: TCPOptions = field(default_factory=TCPOptions)

    # -- flag helpers -------------------------------------------------
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
    def has_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def sack_blocks(self) -> list[SackBlock]:
        return self.options.sack_blocks

    @property
    def seq_space(self) -> int:
        """Sequence-number space consumed (payload + SYN/FIN flags)."""
        return self.payload_len + int(self.syn) + int(self.fin)

    @property
    def end_seq(self) -> int:
        """First sequence number after this segment."""
        return seq_add(self.seq, self.seq_space)

    def is_data(self) -> bool:
        """True when the segment carries payload bytes."""
        return self.payload_len > 0

    def is_pure_ack(self) -> bool:
        """True for an ACK with no payload and no SYN/FIN/RST."""
        return (
            self.has_ack
            and self.payload_len == 0
            and not (self.syn or self.fin or self.rst)
        )

    def copy(self, **changes) -> "PacketRecord":
        """Return a copy with ``changes`` applied (options are shared)."""
        return replace(self, **changes)

    # -- wire codec ---------------------------------------------------
    def encode(self) -> bytes:
        """Serialize as a raw IPv4 packet (payload is zero bytes)."""
        return bytes(self.encode_headers()) + bytes(self.payload_len)

    def encode_headers(self, lead: int = 0) -> bytearray:
        """Return ``lead`` spare bytes, then this packet's IPv4 and TCP
        headers with both checksums filled.

        The payload — ``payload_len`` zero bytes — follows the headers
        on the wire but is not in the buffer: a writer takes it from a
        shared zero buffer, and the checksum never has to sum it.
        """
        options = self.options.encode()
        buffer = bytearray(lead + IPV4_TCP_LEN + len(options))
        payload_len = self.payload_len
        pack_ipv4_tcp(
            buffer, lead, payload_len, len(buffer) - lead + payload_len,
            self.src_ip, self.dst_ip, 0, 64, IPPROTO_TCP,
            self.src_port, self.dst_port, self.seq, self.ack, self.flags,
            self.window, 0, options,
        )
        return buffer

    @classmethod
    def decode(
        cls, data: bytes, timestamp: float = 0.0, lenient: bool = False
    ) -> "PacketRecord":
        """Parse a raw IPv4 packet into a record.

        ``lenient`` tolerates a malformed TCP option area (keeping the
        cleanly-parsed prefix) instead of raising.
        """
        ip, ip_len = IPv4Header.decode(data)
        if ip.protocol != 6:
            raise HeaderDecodeError("not TCP (protocol=%d)" % ip.protocol)
        end = min(len(data), ip_len + max(ip.total_length - ip_len, 0))
        tcp_bytes = data[ip_len:end] if ip.total_length else data[ip_len:]
        tcp, tcp_len = TCPHeader.decode(tcp_bytes, lenient=lenient)
        payload_len = len(tcp_bytes) - tcp_len
        return cls(
            timestamp=timestamp,
            src_ip=ip.src,
            dst_ip=ip.dst,
            src_port=tcp.src_port,
            dst_port=tcp.dst_port,
            seq=tcp.seq,
            ack=tcp.ack,
            flags=tcp.flags,
            window=tcp.window,
            payload_len=payload_len,
            options=tcp.options,
        )

    def describe(self) -> str:
        """Human-readable one-liner, tcpdump style."""
        names = []
        for bit, name in (
            (FLAG_SYN, "S"),
            (FLAG_FIN, "F"),
            (FLAG_RST, "R"),
            (FLAG_PSH, "P"),
            (FLAG_ACK, "."),
        ):
            if self.flags & bit:
                names.append(name)
        return (
            f"{self.timestamp:.6f} "
            f"{self.src_ip:#010x}:{self.src_port} > "
            f"{self.dst_ip:#010x}:{self.dst_port} "
            f"[{''.join(names) or '-'}] seq={self.seq} ack={self.ack} "
            f"len={self.payload_len} win={self.window}"
        )
