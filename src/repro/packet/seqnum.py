"""32-bit TCP sequence-number arithmetic.

TCP sequence numbers live in a 32-bit space and wrap around.  All
comparisons must therefore be made modulo 2**32 using signed circular
distance, exactly as the Linux kernel's ``before()``/``after()`` macros
do.  Every module in this repository that touches sequence numbers goes
through these helpers so that wraparound is handled in exactly one
place — except the analyzer's per-packet loops, which spell the same
comparisons inline on :data:`SEQ_MASK` / :data:`SEQ_HALF` (a function
call per comparison is measurable there).  Each comparison is one
masked expression, the sign of :func:`seq_sub` without the call; with
``d = (a - b) & SEQ_MASK``::

    seq_geq(a, b)     d < SEQ_HALF
    seq_before(a, b)  d >= SEQ_HALF
    seq_after(a, b)   0 < d < SEQ_HALF
    seq_leq(a, b)     not 0 < d < SEQ_HALF
"""

from __future__ import annotations

SEQ_SPACE = 1 << 32
SEQ_MASK = SEQ_SPACE - 1
SEQ_HALF = 1 << 31


def seq_add(seq: int, delta: int) -> int:
    """Return ``seq + delta`` modulo the 32-bit sequence space."""
    return (seq + delta) % SEQ_SPACE


def seq_sub(a: int, b: int) -> int:
    """Return the circular distance ``a - b``.

    The result is signed: positive when ``a`` is after ``b``, negative
    when ``a`` is before ``b``.  Values are interpreted using the usual
    "closest direction around the circle" rule, which is correct as long
    as the two numbers are within 2**31 of each other (always true for
    real TCP windows).
    """
    diff = (a - b) % SEQ_SPACE
    if diff >= SEQ_HALF:
        diff -= SEQ_SPACE
    return diff


def seq_before(a: int, b: int) -> bool:
    """True when sequence number ``a`` is strictly before ``b``."""
    return (a - b) & SEQ_MASK >= SEQ_HALF


def seq_after(a: int, b: int) -> bool:
    """True when sequence number ``a`` is strictly after ``b``."""
    return 0 < (a - b) & SEQ_MASK < SEQ_HALF


def seq_leq(a: int, b: int) -> bool:
    """True when ``a`` is before or equal to ``b``."""
    return not 0 < (a - b) & SEQ_MASK < SEQ_HALF


def seq_geq(a: int, b: int) -> bool:
    """True when ``a`` is after or equal to ``b``."""
    return (a - b) & SEQ_MASK < SEQ_HALF


def seq_max(a: int, b: int) -> int:
    """Return the later of two sequence numbers."""
    return a if seq_after(a, b) else b


def seq_min(a: int, b: int) -> int:
    """Return the earlier of two sequence numbers."""
    return a if seq_before(a, b) else b


def seq_between(seq: int, low: int, high: int) -> bool:
    """True when ``low <= seq < high`` in circular order."""
    return seq_leq(low, seq) and seq_before(seq, high)


def seq_wrap(seq: int) -> int:
    """Clamp an arbitrary integer into the 32-bit sequence space."""
    return seq % SEQ_SPACE
