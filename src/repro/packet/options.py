"""TCP option encoding and decoding.

Implements the option kinds that matter for server-side stall analysis:

* ``MSS`` (kind 2) — maximum segment size, carried on SYN.
* ``Window Scale`` (kind 3) — receive-window shift count.
* ``SACK Permitted`` (kind 4) — negotiated on SYN.
* ``SACK`` (kind 5) — selective acknowledgment blocks; the first block
  may be a DSACK (RFC 2883) reporting a duplicate segment.
* ``Timestamps`` (kind 8) — TSval/TSecr, used for RTT measurement.

The wire format follows RFC 793 / RFC 7323: ``NOP`` (kind 1) padding and
``EOL`` (kind 0) termination are honoured when decoding, and options are
padded to a 4-byte boundary when encoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import ParseError

KIND_EOL = 0
KIND_NOP = 1
KIND_MSS = 2
KIND_WSCALE = 3
KIND_SACK_PERMITTED = 4
KIND_SACK = 5
KIND_TIMESTAMP = 8

#: Bytes a TCP header has for options (data offset 15 words, minus the
#: 20-byte fixed header).
MAX_OPTION_BYTES = 40

_MSS = struct.Struct("!BBH")
_WSCALE = struct.Struct("!BBB")
_SACK_PERMITTED = bytes([KIND_SACK_PERMITTED, 2])
_TIMESTAMP = struct.Struct("!BBII")
#: NOP padding that brings an option area of length ``n`` to a 4-byte
#: boundary, indexed by ``n % 4``.
_PADDING = tuple(bytes([KIND_NOP]) * (-n % 4) for n in range(4))

#: A SACK block: (left edge, right edge), right edge exclusive.
SackBlock = tuple[int, int]


class OptionDecodeError(ParseError):
    """Raised when a TCP option area is malformed."""


@dataclass(slots=True)
class TCPOptions:
    """Decoded TCP options of a single segment.

    Absent options are ``None`` (or an empty list for SACK blocks).
    """

    mss: int | None = None
    wscale: int | None = None
    sack_permitted: bool = False
    sack_blocks: list[SackBlock] = field(default_factory=list)
    ts_val: int | None = None
    ts_ecr: int | None = None
    #: Lenient decode hit a malformed option and stopped early; the
    #: fields above hold whatever parsed cleanly before the damage.
    truncated_options: bool = False

    def encode(self) -> bytes:
        """Serialize to wire format, padded to a 4-byte boundary.

        SACK blocks come last and are capped to what the 40-byte option
        space leaves (RFC 2018 §3: four blocks alone, three beside
        timestamps); the first blocks, the most recent, are kept.
        """
        out = b""
        if self.mss is not None:
            out += _MSS.pack(KIND_MSS, 4, self.mss)
        if self.wscale is not None:
            out += _WSCALE.pack(KIND_WSCALE, 3, self.wscale)
        if self.sack_permitted:
            out += _SACK_PERMITTED
        if self.ts_val is not None:
            out += _TIMESTAMP.pack(
                KIND_TIMESTAMP, 10, self.ts_val, self.ts_ecr or 0
            )
        blocks = self.sack_blocks
        if blocks:
            blocks = blocks[: (MAX_OPTION_BYTES - 2 - len(out)) // 8]
            out += struct.pack(
                "!BB%dI" % (2 * len(blocks)),
                KIND_SACK,
                2 + 8 * len(blocks),
                *[edge for block in blocks for edge in block],
            )
        return out + _PADDING[len(out) % 4]

    @classmethod
    def decode(cls, data: bytes, lenient: bool = False) -> "TCPOptions":
        """Parse a TCP option area.

        Raises :class:`OptionDecodeError` on truncated or malformed
        options rather than silently guessing.  With ``lenient=True``
        a malformed option instead *ends* parsing — everything decoded
        up to that point is kept, as real stacks behave — and the
        partial result is flagged via :attr:`truncated_options`.
        """
        opts = cls()
        i = 0
        n = len(data)
        while i < n:
            kind = data[i]
            if kind == KIND_EOL:
                break
            if kind == KIND_NOP:
                i += 1
                continue
            if i + 1 >= n:
                if lenient:
                    opts.truncated_options = True
                    break
                raise OptionDecodeError("option kind %d truncated" % kind)
            length = data[i + 1]
            if length < 2 or i + length > n:
                if lenient:
                    opts.truncated_options = True
                    break
                raise OptionDecodeError(
                    "option kind %d has bad length %d" % (kind, length)
                )
            body = data[i + 2 : i + length]
            if kind == KIND_MSS and length == 4:
                (opts.mss,) = struct.unpack("!H", body)
            elif kind == KIND_WSCALE and length == 3:
                opts.wscale = body[0]
            elif kind == KIND_SACK_PERMITTED and length == 2:
                opts.sack_permitted = True
            elif kind == KIND_TIMESTAMP and length == 10:
                opts.ts_val, opts.ts_ecr = struct.unpack("!II", body)
            elif kind == KIND_SACK:
                if (length - 2) % 8:
                    if lenient:
                        opts.truncated_options = True
                        break
                    raise OptionDecodeError("SACK option length %d" % length)
                for off in range(0, length - 2, 8):
                    left, right = struct.unpack("!II", body[off : off + 8])
                    opts.sack_blocks.append((left, right))
            # Unknown option kinds are skipped, as real stacks do.
            i += length
        return opts

    def wire_length(self) -> int:
        """Length of the encoded option area including padding."""
        return len(self.encode())
