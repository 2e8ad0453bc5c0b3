"""Capture taps.

A :class:`CaptureTap` sits at the server's NIC and records every packet
the server sends or receives, stamped with the simulation clock — the
same vantage point as the tcpdump captures the paper's dataset comes
from.  The tap yields :class:`~repro.packet.packet.PacketRecord`
objects directly and can also spill to a pcap file.
"""

from __future__ import annotations

from pathlib import Path

from ..packet.packet import PacketRecord
from ..packet.pcap import PcapWriter
from .engine import EventLoop


class CaptureTap:
    """Records packets crossing a capture point."""

    def __init__(self, engine: EventLoop, pcap_path: str | Path | None = None):
        self.engine = engine
        self.packets: list[PacketRecord] = []
        self._writer = PcapWriter(pcap_path) if pcap_path else None

    def capture(self, pkt: PacketRecord) -> PacketRecord:
        """Record ``pkt`` at the current simulation time.

        Returns the stamped copy so callers can forward it.
        """
        stamped = PacketRecord(
            self.engine.now, pkt.src_ip, pkt.dst_ip, pkt.src_port,
            pkt.dst_port, pkt.seq, pkt.ack, pkt.flags, pkt.window,
            pkt.payload_len, pkt.options,
        )
        self.record(stamped)
        return stamped

    def record(self, pkt: PacketRecord) -> None:
        """Record a packet that already carries the current simulation
        time, without copying it."""
        self.packets.append(pkt)
        if self._writer is not None:
            self._writer.write(pkt)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __len__(self) -> int:
        return len(self.packets)
