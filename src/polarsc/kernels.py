"""Soft update rules for successive cancellation decoding.

Two node computations exist: f combines a pair of soft values with no bit
hypothesis, g combines them conditioned on a partial sum of earlier
decisions.  Both are available in the likelihood-ratio domain, the exact
log domain, and the min-sum approximation of the log-domain f.

Values are plain floats (or numpy arrays); the kernel choice fixes the
domain.  Log-domain magnitudes are clipped to ``LLR_CLIP`` and ratio-domain
values to the matching ``exp(+/-LLR_CLIP)`` range, which keeps every
intermediate finite without moving any decision threshold.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

LLR_CLIP = 40.0
LR_MAX = float(np.exp(LLR_CLIP))
LR_MIN = float(np.exp(-LLR_CLIP))


def clip_llr(x):
    return np.clip(x, -LLR_CLIP, LLR_CLIP)


def clip_lr(x):
    return np.clip(x, LR_MIN, LR_MAX)


def f_lr(a, b):
    """Ratio-domain pair combine: (1 + ab) / (a + b). Symmetric."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("likelihood ratios must be strictly positive")
    return clip_lr((1.0 + a * b) / (a + b))


def g_lr(a, b, us):
    """Ratio-domain conditioned combine: a**(1 - 2*us) * b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("likelihood ratios must be strictly positive")
    us = np.asarray(us)
    return clip_lr(np.where(us == 0, a * b, b / a))


def f_llr_exact(la, lb):
    """Exact log-domain pair combine (boxplus).

    Evaluates log((1 + e**(la+lb)) / (e**la + e**lb)), the log of the
    ratio-domain f, which equals 2*atanh(tanh(la/2)*tanh(lb/2)) and stays
    finite at saturated inputs.
    """
    la = np.asarray(la, dtype=np.float64)
    lb = np.asarray(lb, dtype=np.float64)
    return clip_llr(np.logaddexp(la + lb, 0.0) - np.logaddexp(la, lb))


def f_minsum(la, lb):
    """Min-sum approximation of the log-domain f: sign product, min magnitude."""
    la = np.asarray(la, dtype=np.float64)
    lb = np.asarray(lb, dtype=np.float64)
    return np.sign(la) * np.sign(lb) * np.minimum(np.abs(la), np.abs(lb))


def g_llr(la, lb, us):
    """Log-domain conditioned combine: la * (-1)**us + lb."""
    la = np.asarray(la, dtype=np.float64)
    lb = np.asarray(lb, dtype=np.float64)
    # The sign is computed in float: 1 - 2*us in uint8 wraps to 255.
    return clip_llr(lb + (1.0 - 2.0 * np.asarray(us)) * la)


class Kernel(Enum):
    """Arithmetic variant used by a decoder."""

    LR_EXACT = "lr_exact"
    LLR_EXACT = "llr_exact"
    LLR_MINSUM = "llr_minsum"

    def f(self, a, b):
        if self is Kernel.LR_EXACT:
            return f_lr(a, b)
        if self is Kernel.LLR_EXACT:
            return f_llr_exact(a, b)
        return f_minsum(a, b)

    def g(self, a, b, us):
        if self is Kernel.LR_EXACT:
            return g_lr(a, b, us)
        return g_llr(a, b, us)

    def from_llr(self, llr) -> np.ndarray:
        """Convert channel log-ratios into this kernel's domain.

        Every decoder entry point takes channel log-ratios and converts
        them here, so this is where bad input fails: NaN or inf raises
        ValueError before the clip to ``+/-LLR_CLIP`` could hide it.
        """
        llr = np.asarray(llr, dtype=np.float64)
        if not np.isfinite(llr).all():
            raise ValueError("channel log-ratios must be finite (no NaN or inf)")
        llr = clip_llr(llr)
        if self is Kernel.LR_EXACT:
            return np.exp(llr)
        return llr

    def hard_decision(self, value) -> np.ndarray:
        """0 when the soft value favors bit 0 strictly, else 1.

        The threshold sits at ratio 1 (log-ratio 0); the boundary itself
        decides 1.
        """
        value = np.asarray(value)
        threshold = 1.0 if self is Kernel.LR_EXACT else 0.0
        return np.where(value > threshold, 0, 1).astype(np.uint8)

