"""Soft update rules for successive cancellation decoding.

Two node computations exist: f combines a pair of soft values with no bit
hypothesis, g combines them conditioned on a partial sum of earlier
decisions.  Both are available in the likelihood-ratio domain, the exact
log domain, and the min-sum approximation of the log-domain f.

Values are plain floats (or numpy arrays); the kernel choice fixes the
domain.  Log-domain magnitudes are clipped to ``LLR_CLIP`` and ratio-domain
values to the matching ``exp(+/-LLR_CLIP)`` range, which keeps every
intermediate finite without moving any decision threshold.

Each rule is written once, as an in-place stage op: ``f_into(a, b, out,
scratch)`` or ``g_into(a, b, us, out, scratch)`` writes its result into
``out`` through ufunc ``out=`` arguments, using ``scratch`` (a float array of
``out``'s shape) for its one temporary.  ``out`` must not overlap the
inputs.  A third op, ``g0_into(a, b, out, scratch)``, is g with all partial
sums 0, as after a rate-0 sibling in simplified SC: the plain combine and
the clip, with no partial-sum read, bit-identical to ``g_into`` on zeros.
The log-domain ``g_into`` is its sign flip followed by that op.  The ops
allocate nothing and check nothing: the decoder loop
(``reference._sc_decode``) and the genie evaluator
(``reference._genie_errors``) call them on preallocated level arrays
through ``Kernel.f_into``/``g_into``/``g0_into``.  The public
functions ``f_lr``, ``g_lr``, ``f_llr_exact``, ``f_minsum`` and ``g_llr``
are thin wrappers that convert their inputs, allocate ``out`` and call the
same op; the ratio-domain wrappers reject non-positive ratios there.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

LLR_CLIP = 40.0
LR_MAX = float(np.exp(LLR_CLIP))
LR_MIN = float(np.exp(-LLR_CLIP))


def _const(value, dtype=np.float64) -> np.ndarray:
    """A read-only 0-d operand: a ufunc converts no Python scalar per call."""
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


_ZERO, _ONE = _const(0.0), _const(1.0)
_LLR_LO, _LLR_HI = _const(-LLR_CLIP), _const(LLR_CLIP)
_LR_LO, _LR_HI = _const(LR_MIN), _const(LR_MAX)
_SIGN_SHIFT = _const(63, np.uint64)  # to the sign bit of a float64 viewed as uint64


def _f_lr_into(a, b, out, scratch):
    np.multiply(a, b, out=out)
    np.add(_ONE, out, out=out)
    np.add(a, b, out=scratch)
    np.divide(out, scratch, out=out)
    np.minimum(out, _LR_HI, out=out)
    np.maximum(out, _LR_LO, out=out)


def _g0_lr_into(a, b, out, scratch):
    np.multiply(a, b, out=out)  # us == 0
    np.minimum(out, _LR_HI, out=out)
    np.maximum(out, _LR_LO, out=out)


def _g_lr_into(a, b, us, out, scratch):
    np.multiply(a, b, out=out)        # us == 0
    np.divide(b, a, out=scratch)      # us == 1
    # Select bit patterns without a masked loop: keep the difference only
    # where us is 1, then flip those bits of out.
    o, d = out.view(np.uint64), scratch.view(np.uint64)
    np.bitwise_xor(d, o, out=d)
    np.multiply(d, us, out=d)
    np.bitwise_xor(o, d, out=o)
    np.minimum(out, _LR_HI, out=out)
    np.maximum(out, _LR_LO, out=out)


def _f_llr_exact_into(la, lb, out, scratch):
    np.add(la, lb, out=out)
    np.logaddexp(out, _ZERO, out=out)
    np.logaddexp(la, lb, out=scratch)
    np.subtract(out, scratch, out=out)
    np.minimum(out, _LLR_HI, out=out)
    np.maximum(out, _LLR_LO, out=out)


def _f_minsum_into(la, lb, out, scratch):
    np.abs(la, out=out)
    np.abs(lb, out=scratch)
    np.minimum(out, scratch, out=out)
    # The product's sign is sign(la) * sign(lb), kept even when it rounds to 0.
    np.multiply(la, lb, out=scratch)
    np.copysign(out, scratch, out=out)


def _g0_llr_into(la, lb, out, scratch):
    np.add(lb, la, out=out)
    np.minimum(out, _LLR_HI, out=out)
    np.maximum(out, _LLR_LO, out=out)


def _g_llr_into(la, lb, us, out, scratch):
    flip = scratch.view(np.uint64)
    np.left_shift(us, _SIGN_SHIFT, out=flip)
    np.bitwise_xor(flip, la.view(np.uint64), out=flip)  # (-1)**us * la, exactly
    _g0_llr_into(scratch, lb, out, None)


def _apply(op, a, b, *us):
    """Run a stage op on the inputs as float arrays (partial sums as 0/1
    uint8) and freshly allocated ``out`` and scratch arrays; a 0-d result
    comes back as a numpy scalar."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    us = [(np.asarray(u) != 0).view(np.uint8) for u in us]
    shape = np.broadcast_shapes(a.shape, b.shape, *(u.shape for u in us))
    out = np.empty(shape)
    op(a, b, *us, out, np.empty(shape))
    return out[()]


def _positive_ratios(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("likelihood ratios must be strictly positive")
    return a, b


def f_lr(a, b):
    """Ratio-domain pair combine: (1 + ab) / (a + b). Symmetric."""
    return _apply(_f_lr_into, *_positive_ratios(a, b))


def g_lr(a, b, us):
    """Ratio-domain conditioned combine: a**(1 - 2*us) * b."""
    return _apply(_g_lr_into, *_positive_ratios(a, b), us)


def f_llr_exact(la, lb):
    """Exact log-domain pair combine (boxplus).

    Evaluates log((1 + e**(la+lb)) / (e**la + e**lb)), the log of the
    ratio-domain f, which equals 2*atanh(tanh(la/2)*tanh(lb/2)) and stays
    finite at saturated inputs.
    """
    return _apply(_f_llr_exact_into, la, lb)


def f_minsum(la, lb):
    """Min-sum approximation of the log-domain f: sign product, min magnitude."""
    return _apply(_f_minsum_into, la, lb)


def g_llr(la, lb, us):
    """Log-domain conditioned combine: la * (-1)**us + lb."""
    return _apply(_g_llr_into, la, lb, us)


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

    @property
    def f_into(self):
        """This kernel's in-place f, ``f_into(a, b, out, scratch)``."""
        if self is Kernel.LR_EXACT:
            return _f_lr_into
        if self is Kernel.LLR_EXACT:
            return _f_llr_exact_into
        return _f_minsum_into

    @property
    def g_into(self):
        """This kernel's in-place g, ``g_into(a, b, us, out, scratch)``; ``us``
        is a uint8 array of partial sums, each 0 or 1."""
        return _g_lr_into if self is Kernel.LR_EXACT else _g_llr_into

    @property
    def g0_into(self):
        """This kernel's in-place g after a rate-0 sibling, whose partial sums
        are all 0: ``g0_into(a, b, out, scratch)``, bit-identical to
        ``g_into`` with an all-zero ``us``."""
        return _g0_lr_into if self is Kernel.LR_EXACT else _g0_llr_into

    @property
    def rate1_is_hard_decision(self) -> bool:
        """Whether SC on a rate-1 subtree whose inputs hold no ``+/-0.0``
        returns their hard decision.  True for min-sum: its f,
        ``copysign(min(|a|, |b|), a*b)``, is non-zero with the sign product,
        so given the left child's hard decision its g is ``b + sign(b)*|a|``,
        and by induction each child decides its own inputs' signs.  The
        exact kernels' f can round to 0 on small inputs, so they run in full.
        """
        return self is Kernel.LLR_MINSUM

    @property
    def threshold(self) -> np.ndarray:
        """The 0-d decision threshold: ratio 1, log-ratio 0."""
        return _ONE if self is Kernel.LR_EXACT else _ZERO

    def from_llr(self, llr) -> np.ndarray:
        """Convert channel log-ratios into this kernel's domain.

        Every decoder entry point takes channel log-ratios and converts
        them here, or in place through ``_from_llr_in_place`` when it owns
        them, so this is where bad input fails: NaN or inf raises
        ValueError before the clip to ``+/-LLR_CLIP`` could hide it.
        """
        # [()]: a 0-d input comes back as a numpy scalar
        return self._from_llr_in_place(np.array(llr, dtype=np.float64))[()]

    def _from_llr_in_place(self, llr: np.ndarray) -> np.ndarray:
        """``from_llr`` on a float64 array the caller owns, converted in
        place and returned: the frame source and the decoder's entry points
        convert their own copies without allocating another."""
        if not np.isfinite(llr).all():
            raise ValueError("channel log-ratios must be finite (no NaN or inf)")
        np.clip(llr, -LLR_CLIP, LLR_CLIP, out=llr)
        if self is Kernel.LR_EXACT:
            np.exp(llr, out=llr)
        return llr

    def hard_decision(self, value) -> np.ndarray:
        """0 when the soft value is above ``threshold``, else 1.

        The boundary itself decides 1.  The decoder loop applies the same
        rule in place, ``np.less_equal(value, threshold, out=bits)``, to
        each phase's root value, and to a whole tree level when a rate-1
        subtree is decided at once (see ``rate1_is_hard_decision``).
        """
        return np.less_equal(value, self.threshold).astype(np.uint8)
