"""Index arithmetic for the m-stage butterfly decoding graph and its tree.

The decoding graph for a length ``n = 2**m`` code has ``m`` stages of ``n``
node rows each.  Stage ``m - 1`` sits next to the channel values and pairs
adjacent rows; stage ``l`` pairs rows at stride ``2**(m - 1 - l)``; stage 0
feeds the bit decisions.  Estimated input bit ``i`` emerges on row
``bit_reverse(i, m)`` of stage 0.

Every decoder and machine holds the graph on the tree of ``2n - 1``
values: stage ``l`` has ``2**l`` tree positions, and the stage-``l`` row
``fix + z * 2**(m - l)`` (``fix`` below ``2**(m - l)``) sits at tree
position ``z = row >> (m - l)``, so the rows that differ only in ``fix``
share one register.  Phase ``i`` activates the stage-``l`` rows with
``fix = bit_reverse(i >> l, m - l)``.  The decoder stores tree position
``q`` of level ``l`` at index ``bit_reverse(q, l)`` (see ``reference``).

``single_vector_ops`` is the one control sequence: the reference decoder
and every schedule replay it.  Everything here is small integer arithmetic
shared by the reference decoder, the schedule builder and the cycle
simulator.
"""

from __future__ import annotations

from functools import lru_cache


def bit_reverse(i: int, m: int) -> int:
    """Reverse the m-bit binary representation of i."""
    r = 0
    for _ in range(m):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


def reversed_low_bits(i: int, l: int) -> int:
    """Reverse the lowest l bits of i (0 for l == 0)."""
    return bit_reverse(i & ((1 << l) - 1), l)


@lru_cache(maxsize=32)
def single_vector_ops(n: int) -> tuple[tuple[int, str, int], ...]:
    """The SC control sequence for one vector: (stage, fn, phase) per step.

    Phase ``i`` recomputes stages ``ntz(i)`` down to 0 (every stage for
    phase 0), where ``ntz`` counts trailing zero bits, and applies g at
    stage ``l`` iff bit ``l`` of ``i`` is set, f otherwise.  ``2 * n - 2``
    steps in all: stage l is activated ``2**(m - l)`` times, alternating f
    and g.  Computed once per n; the tuple is shared by every caller.
    """
    m = n.bit_length() - 1
    ops = []
    for i in range(n):
        top = (i & -i).bit_length() - 1 if i else m - 1
        for l in range(top, -1, -1):
            ops.append((l, "g" if (i >> l) & 1 else "f", i))
    return tuple(ops)


def enabled_sites(i: int, m: int) -> list[tuple[int, int]]:
    """Tree positions (l, q) whose g partial sum decision bit i feeds: the
    partial-sum sites of a hardware machine that must latch bit i.

    Bit i reaches the stage-l sites only when bit l of i is clear; the site
    indices are the sub-masks of the reversed low l bits of i.
    """
    sites = []
    for l in range(m):
        if (i >> l) & 1:
            continue
        rev = reversed_low_bits(i, l)
        q = rev
        while True:
            sites.append((l, q))
            if q == 0:
                break
            q = (q - 1) & rev
    return sites
