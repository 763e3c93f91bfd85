"""Shared helpers: frame generation, the exhaustive decision oracle, the
recursive SC oracle and the iterative SC control sequence."""

from functools import lru_cache

import numpy as np
import pytest

from polarsc import (awgn_llr, bit_reverse_permutation, bpsk_modulate,
                     butterfly_transform, encode)


def random_frames(spec, count, sigma, seed):
    """Noisy channel log-ratio frames for random valid messages.

    Returns (messages, llr_frames).
    """
    rng = np.random.default_rng(seed)
    u = np.zeros((count, spec.n), dtype=np.uint8)
    u[:, spec.info_indices] = rng.integers(0, 2, size=(count, spec.k), dtype=np.uint8)
    y = bpsk_modulate(encode(u, spec)) + sigma * rng.standard_normal((count, spec.n))
    return u, awgn_llr(y, sigma)


def oracle_phase_decision(llr, prefix_bits, i, spec):
    """Hard decision for phase i by summing channel likelihoods over every
    completion of the future input bits (uniform future, boundary -> 1)."""
    n = spec.n
    tail = n - 1 - i
    totals = []
    for b in (0, 1):
        blocks = np.zeros((1 << tail, n), dtype=np.uint8)
        blocks[:, :i] = prefix_bits
        blocks[:, i] = b
        if tail:
            completions = (np.arange(1 << tail)[:, None] >> np.arange(tail)) & 1
            blocks[:, i + 1:] = completions.astype(np.uint8)
        cw = butterfly_transform(blocks[:, bit_reverse_permutation(spec.m)])
        weights = np.exp(((1.0 - 2.0 * cw) * llr / 2.0).sum(axis=1))
        totals.append(weights.sum())
    if spec.frozen_mask[i]:
        return 0
    return 0 if totals[0] > totals[1] else 1


def recursive_sc(values, frozen_mask, kernel, forced=None):
    """Textbook recursive SC (Arikan 2009) on kernel-domain values
    (batch, n) with the package kernels; returns (u_hat, c_hat).

    With ``forced``, a (batch, n) uint8 array of true input blocks, the
    decoder is genie-aided: each phase's decision goes into ``u_hat``, but
    later phases see its forced bit, so ``c_hat`` encodes ``forced``."""
    batch, n = values.shape
    if n == 1:
        u = np.zeros((batch, 1), dtype=np.uint8)
        if not frozen_mask[0]:
            u[:, 0] = kernel.hard_decision(values[:, 0])
        return u, (u if forced is None else forced)
    a, b = values[:, 0::2], values[:, 1::2]
    left, right = (None, None) if forced is None else (forced[:, :n // 2], forced[:, n // 2:])
    u0, x0 = recursive_sc(kernel.f(a, b), frozen_mask[:n // 2], kernel, left)
    u1, x1 = recursive_sc(kernel.g(a, b, x0), frozen_mask[n // 2:], kernel, right)
    x = np.empty((batch, n), dtype=np.uint8)
    x[:, 0::2], x[:, 1::2] = x0 ^ x1, x1
    return np.hstack([u0, u1]), x


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
