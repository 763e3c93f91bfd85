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
``fix = bit_reverse(i >> l, m - l)``.  Tree position ``(l, q)`` owns the
partial-sum site ``site_id(l, q)``.

``single_vector_ops`` is the one control sequence: the reference decoder
and every schedule replay it, and every decided bit latches through
``psum_enable``.  Everything here is small integer arithmetic shared by the
reference decoder, the schedule builder and the cycle simulator.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def bit_reverse(i: int, m: int) -> int:
    """Reverse the m-bit binary representation of i."""
    r = 0
    for _ in range(m):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


def reversed_low_bits(i: int, l: int) -> int:
    """Reverse the lowest l bits of i (0 for l == 0); elementwise on arrays."""
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


def site_id(l: int, q: int) -> int:
    """Linear id of the partial-sum site attached to tree position (l, q)."""
    return (1 << l) - 1 + q


def enabled_sites(i: int, m: int) -> list[tuple[int, int]]:
    """Partial-sum sites (l, q) that must latch decision bit i.

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


def psum_enable(m: int) -> np.ndarray:
    """Boolean (n, n - 1) matrix, True at [i, site_id(l, q)] for every
    site (l, q) in ``enabled_sites(i, m)``: the sites bit i latches into.

    Built a stage at a time over the whole column of bit indices: bit l of
    i is clear and q is a sub-mask of ``reversed_low_bits(i, l)``.
    """
    i = np.arange(1 << m)[:, None]
    return np.hstack([((i >> l) & 1 == 0)
                      & (np.arange(1 << l) & ~reversed_low_bits(i, l) == 0)
                      for l in range(m)])
