"""Shared helpers: frame generation, the exhaustive decision oracle and the
recursive SC oracle."""

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


def recursive_sc(values, frozen_mask, kernel):
    """Textbook recursive SC (Arikan 2009) on kernel-domain values
    (batch, n) with the package kernels; returns (u_hat, c_hat)."""
    batch, n = values.shape
    if n == 1:
        u = np.zeros((batch, 1), dtype=np.uint8)
        if not frozen_mask[0]:
            u[:, 0] = kernel.hard_decision(values[:, 0])
        return u, u
    a, b = values[:, 0::2], values[:, 1::2]
    u0, x0 = recursive_sc(kernel.f(a, b), frozen_mask[:n // 2], kernel)
    u1, x1 = recursive_sc(kernel.g(a, b, x0), frozen_mask[n // 2:], kernel)
    x = np.empty((batch, n), dtype=np.uint8)
    x[:, 0::2], x[:, 1::2] = x0 ^ x1, x1
    return np.hstack([u0, u1]), x


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
