"""Golden-model successive cancellation decoder on the tree register file.

Like the paper's pipelined tree, the decoder keeps ``2n - 1`` soft values:
level ``l`` holds ``2**l`` of them, level ``m`` the channel values in
bit-reversed order, so stage ``l`` reads the two halves of level ``l + 1``.
``_sc_decode`` is the one SC loop: it runs ``graph.single_vector_ops``, the
one SC control sequence, each step on a whole level, for the reference
decoder and for every machine alike (a machine's schedule is checked
against that sequence, see ``archsim``).  After each stage-0 step it
decides that phase's bit and folds it into the partial sums that g reads.
As in simplified SC, it prunes the tree by the frozen set: an activation
whose phases are all frozen (a rate-0 subtree) is skipped, and with a
kernel whose ``rate1_is_hard_decision`` holds (min-sum), a subtree whose
phases all carry information (rate-1) is decided at once by the hard
decision of its soft values, unless one of them is an exact zero.  Both
give SC's own decisions.  Levels are laid out ``(2**l, batch)``: one
kernel call serves every frame.

Like the paper's decoders, the loop updates O(n) memory in place and
allocates nothing per step.  The kernels' in-place stage ops
(``Kernel.f_into``/``Kernel.g_into``) write into the level arrays and
share one ``(n/2, batch)`` scratch array.  All partial sums live in one
``(n, batch)`` uint8 array in block layout: each decision goes into its
phase's row, and each fold is an in-place XOR of a block's right half into
its left half.  After the last phase that array is the codeword in
bit-reversed order, and one more pass of every fold turns it back into the
decided bits.  The public entry points check the shape of their channel
log-ratios and convert them once, through ``Kernel.from_llr``, into the
kernel's domain.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import graph
from .codespec import CodeSpec, bit_reverse_permutation
from .kernels import Kernel

_GENIE_BLOCK = 512  # frames per random stream; part of the reproducibility contract


@lru_cache(maxsize=32)
def _phase_tables(spec: CodeSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-code lookups for ``_sc_decode``.

    ``frozen_before[i]`` counts the frozen phases below ``i``.  ``rate1[i]``
    is ``L >= 1`` when ``[i, i + 2**L)`` is a maximal rate-1 node (every
    phase an information bit, and not so for its parent), else 0.
    """
    frozen_before = tuple(accumulate(spec.frozen_mask.tolist(), initial=0))
    rate1 = [0] * spec.n

    def visit(lo: int, l: int) -> None:
        size = 1 << l
        if frozen_before[lo + size] == frozen_before[lo]:
            rate1[lo] = l
        elif l:
            visit(lo, l - 1)
            visit(lo + size // 2, l - 1)

    visit(0, spec.m)
    return frozen_before, tuple(rate1)


def _sc_decode(values: np.ndarray, spec: CodeSpec, kernel: Kernel,
               force_bits: np.ndarray | None = None) -> tuple:
    """Run SC decoding over a (batch, n) array of kernel-domain values.

    Each step ``(l, fn, i)`` of ``graph.single_vector_ops(n)`` computes
    level ``l`` from the two halves of level ``l + 1``, and a g also from
    the left sibling's partial sum.  The stage-``l`` step of phase ``i``
    feeds only phases ``[i, i + 2**l)``; when all of them are frozen it is
    dead and skipped, and a dead stage-0 step decides 0.

    Partial sums live in one ``(n, batch)`` buffer ``x`` in block layout:
    phase ``i`` decides into row ``i``, and once phase ``i`` closes a
    level-``l`` block ``[b, b + 2h)`` (``h = 2**l``) the fold
    ``x[b:b+h] ^= x[b+h:b+2h]`` turns the block into its level-``l + 1``
    partial sum, so a g at stage ``l`` of phase ``i`` reads the left sibling
    block ``x[i-h:i]``.  A fold whose right half is all frozen XORs zeros
    and is skipped.  At the end ``x`` is the butterfly transform of the
    decided bits in block layout: gathered in bit-reversed order it is the
    codeword, and since the transform is its own inverse, ``m`` more
    passes of every fold turn it back into the decided bits.

    Where ``kernel.rate1_is_hard_decision``, a maximal rate-1 node
    ``[i, i + 2**L)`` (``L >= 1``) is decided at its first step below stage
    ``L``: if level ``L`` holds no ``+/-0.0`` in any frame, its hard
    decision is the node's partial sum, in the level's storage order, and
    the node's remaining steps are skipped; otherwise they run as usual.

    When ``force_bits`` is given, each phase's raw decision is compared to
    the forced bit, the mismatch is counted, and the forced bit is what
    propagates (genie mode, used for code construction; it skips nothing).
    Returns the decided bits, their codewords, and the genie mode's
    per-position error counts (else None).
    """
    n, m, batch = spec.n, spec.m, values.shape[0]
    perm = bit_reverse_permutation(m)

    soft = [np.empty((1 << l, batch)) for l in range(m)] + [values.T[perm]]
    scratch = np.empty((n // 2, batch))  # the stage ops' temporaries
    x = np.zeros((n, batch), dtype=np.uint8)
    bits, root, threshold = x.view(bool), soft[0][0], kernel.threshold
    f_into, g_into = kernel.f_into, kernel.g_into
    forced = None if force_bits is None else force_bits.T
    err_counts = np.zeros(n, dtype=np.int64) if forced is not None else None
    miss = np.empty(batch, dtype=bool)  # genie mode: raw decision != forced bit
    if forced is None:
        frozen_before, rate1 = _phase_tables(spec)
        if not kernel.rate1_is_hard_decision:
            rate1 = (0,) * n
    else:  # genie mode: nothing counts as frozen, nothing is pruned
        frozen_before, rate1 = (0,) * (n + 1), (0,) * n

    def fold(i: int, l: int) -> None:
        """Phase ``i`` closed a level-``l`` block: fold it and every block
        above that it closes."""
        while (i >> l) & 1:
            h = 1 << l
            if frozen_before[i + 1] - frozen_before[i + 1 - h] != h:
                x[i + 1 - 2 * h:i + 1 - h] ^= x[i + 1 - h:i + 1]
            l += 1

    resume = 0  # phases below it lie in a node already decided
    for l, fn, i in graph.single_vector_ops(n):
        if i < resume:
            continue
        top = rate1[i]
        # a step below a maximal rate-1 node's root; with a tie the check
        # fails again at each such step, and the node runs in full
        if l < top and soft[top].all():  # no +/-0.0 in any frame
            np.less_equal(soft[top], threshold, out=bits[i:i + (1 << top)])
            resume = i + (1 << top)
            fold(resume - 1, top)
            continue
        h = 1 << l
        dead = frozen_before[i + h] - frozen_before[i] == h
        if not dead:
            src = soft[l + 1]
            if fn == "g":
                g_into(src[:h], src[h:], x[i - h:i], soft[l], scratch[:h])
            else:
                f_into(src[:h], src[h:], soft[l], scratch[:h])
        if l:
            continue

        if not dead:  # a dead step keeps the 0 that x starts with
            np.less_equal(root, threshold, out=bits[i])  # Kernel.hard_decision
        if forced is not None:
            err_counts[i] = np.count_nonzero(np.not_equal(x[i], forced[i], out=miss))
            x[i] = forced[i]
        fold(i, 0)

    c_hat = x[perm].T
    for l in range(m):  # every fold once more: x becomes the decided bits
        blocks = x.reshape(n >> (l + 1), 2, 1 << l, batch)
        blocks[:, 0] ^= blocks[:, 1]
    return x.T, c_hat, err_counts


def _kernel_frames(llr, spec: CodeSpec, kernel: Kernel, batch: bool = True) -> np.ndarray:
    """Check the shape of channel log-ratio input and convert it, through
    ``kernel.from_llr``, into a (batch, n) array of kernel-domain values.

    Accepts one frame, shape ``(n,)``, or when ``batch`` also a batch of
    them, shape ``(batch, n)``; any other shape raises ValueError naming it.
    """
    llr = np.asarray(llr)
    n = spec.n
    if llr.shape != (n,) and (not batch or llr.ndim != 2 or llr.shape[1] != n):
        expected = f"({n},) or (batch, {n})" if batch else f"({n},)"
        raise ValueError(f"channel log-ratios must have shape {expected}, "
                         f"got shape {llr.shape}")
    return np.atleast_2d(kernel.from_llr(llr))


def decode_batch(llr, spec: CodeSpec, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (batch, n) array of channel log-likelihood ratios.

    A single ``(n,)`` frame counts as a batch of one; any other shape
    raises ValueError.  ``kernel.from_llr`` rejects NaN/inf and maps the
    frames into the kernel's domain.

    Returns
    -------
    (u_hat, c_hat)
        Decided input blocks and the codewords they encode, both
        ``(batch, n)`` uint8 arrays.
    """
    values = _kernel_frames(llr, spec, kernel)
    u_hat, c_hat, _ = _sc_decode(values, spec, kernel)
    return u_hat, c_hat


def decode(llr, spec: CodeSpec, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Decode one ``(n,)`` frame of channel log-likelihood ratios."""
    values = _kernel_frames(llr, spec, kernel, batch=False)
    u_hat, c_hat, _ = _sc_decode(values, spec, kernel)
    return u_hat[0], c_hat[0]


def genie_error_counts(n: int, noise_sigma: float, trials: int, seed: int) -> np.ndarray:
    """Per-position first-error counts under genie-corrected decoding.

    Random full-rate blocks are encoded, sent as antipodal symbols through
    Gaussian noise, and decoded with every decision corrected to the true
    bit after its error is recorded.
    """
    from .channel import _noisy_frames

    spec = CodeSpec(m=n.bit_length() - 1, frozen=())
    counts = np.zeros(n, dtype=np.int64)
    for done in range(0, trials, _GENIE_BLOCK):
        u, llr = _noisy_frames(spec, noise_sigma, min(_GENIE_BLOCK, trials - done),
                               seed, done)
        _, _, errs = _sc_decode(Kernel.LLR_EXACT.from_llr(llr), spec, Kernel.LLR_EXACT,
                                force_bits=u)
        counts += errs
    return counts
