"""Golden-model successive cancellation decoder on the tree register file.

Like the paper's pipelined tree, the decoder keeps ``2n - 1`` soft values:
level ``l`` holds ``2**l`` of them, level ``m`` the channel values in
bit-reversed order, so stage ``l`` reads the two contiguous halves of level
``l + 1``.  The decoder replays ``graph.single_vector_ops``, the control
sequence every machine's schedule replays too; after each stage-0 step it
decides that phase's bit and folds it into the left-sibling partial sums
that g reads; the root's partial sum is the codeword in bit-reversed
order.  Every cycle simulator must reproduce this decoder's output bit for
bit.  Levels are laid out ``(2**l, batch)``: one kernel call serves every
frame.  The public entry points take channel log-ratios and convert them
once, through ``Kernel.from_llr``, into the kernel's domain.
"""

from __future__ import annotations

import numpy as np

from . import graph
from .codespec import CodeSpec, bit_reverse_permutation
from .kernels import Kernel

_GENIE_BLOCK = 512  # frames per random stream; part of the reproducibility contract


def _sc_decode(values: np.ndarray, spec: CodeSpec, kernel: Kernel,
               force_bits: np.ndarray | None = None) -> tuple:
    """Run SC decoding over a (batch, n) array of kernel-domain values.

    When ``force_bits`` is given, each phase's raw decision is compared to
    the forced bit, the mismatch is counted, and the forced bit is what
    propagates (genie mode, used for code construction).  Returns the
    decided bits, their codewords, and the genie mode's per-position
    error counts (else None).
    """
    n, m, batch = spec.n, spec.m, values.shape[0]
    perm = bit_reverse_permutation(m)

    soft = [None] * m + [values.T[perm]]
    left = [None] * (m + 1)  # left[l]: partial sum of the last decided level-l block
    forced = None if force_bits is None else force_bits.T
    u_hat = np.empty((n, batch), dtype=np.uint8)
    err_counts = np.zeros(n, dtype=np.int64) if forced is not None else None

    for l, fn, i in graph.single_vector_ops(n):
        src, h = soft[l + 1], 1 << l
        if fn == "g":
            soft[l] = kernel.g(src[:h], src[h:], left[l])
        else:
            soft[l] = kernel.f(src[:h], src[h:])
        if l:
            continue

        if forced is None and spec.frozen_mask[i]:
            bits = np.zeros(batch, dtype=np.uint8)
        else:
            bits = kernel.hard_decision(soft[0][0])
        if forced is not None:
            err_counts[i] = int(np.count_nonzero(bits != forced[i]))
            bits = forced[i]
        u_hat[i] = bits

        cur, l = bits[None, :], 0
        while (i >> l) & 1:
            cur = np.concatenate((left[l] ^ cur, cur))
            l += 1
        left[l] = cur

    return u_hat.T, left[m][perm].T, err_counts


def decode_batch(llr, spec: CodeSpec, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (batch, n) array of channel log-likelihood ratios.

    ``kernel.from_llr`` rejects NaN/inf and maps the frames into the
    kernel's domain.

    Returns
    -------
    (u_hat, c_hat)
        Decided input blocks and the codewords they encode, both
        ``(batch, n)`` uint8 arrays.
    """
    values = np.atleast_2d(kernel.from_llr(llr))
    if values.shape[1] != spec.n:
        raise ValueError(f"frame length {values.shape[1]} != code length {spec.n}")
    u_hat, c_hat, _ = _sc_decode(values, spec, kernel)
    return u_hat, c_hat


def decode(llr, spec: CodeSpec, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Decode one frame of channel log-likelihood ratios."""
    u_hat, c_hat = decode_batch(np.asarray(llr)[None, :], spec, kernel)
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
        _, _, errs = _sc_decode(Kernel.LLR_EXACT.from_llr(llr), spec,
                                Kernel.LLR_EXACT, force_bits=u)
        counts += errs
    return counts
