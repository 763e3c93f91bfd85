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
``out`` through ufunc ``out=`` arguments, using ``scratch`` (an array of the
values' dtype and ``out``'s shape) for its one temporary.  ``out`` must not
overlap the inputs.  A third op, ``g0_into(a, b, out, scratch)``, is g with
all partial sums 0, as after a rate-0 sibling in simplified SC: the plain
combine and the clip, with no partial-sum read, bit-identical to
``g_into`` on zeros.  The log-domain ``g_into`` is the sign op
``_signed_into(values, bits, out)``, ``(-1)**bits * values`` exactly,
followed by that op; the genie evaluator's floor check calls the same sign
op, so the float layout it relies on is stated here only.  The ops
allocate nothing and check nothing: the decoder loop
(``reference._sc_decode``) and the genie evaluator
(``reference._genie_errors``) call them on preallocated level arrays
through ``Kernel.f_into``/``g_into``/``g0_into``.  The public doors
to the rules are ``Kernel.f`` and ``Kernel.g``, which convert their
inputs, allocate ``out`` and call the same op; the ratio-domain member
rejects non-positive ratios there.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

try:  # the ufunc under np.clip, whose Python wrapper costs more than a small level's clip
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from .codespec import _as_real

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
    _clip(out, _LR_LO, _LR_HI, out=out)


def _g0_lr_into(a, b, out, scratch):
    np.multiply(a, b, out=out)  # us == 0
    _clip(out, _LR_LO, _LR_HI, out=out)


def _g_lr_into(a, b, us, out, scratch):
    np.multiply(a, b, out=out)        # us == 0
    np.divide(b, a, out=scratch)      # us == 1
    # Select bit patterns without a masked loop: keep the difference only
    # where us is 1, then flip those bits of out.
    o, d = out.view(np.uint64), scratch.view(np.uint64)
    np.bitwise_xor(d, o, out=d)
    np.multiply(d, us, out=d)
    np.bitwise_xor(o, d, out=o)
    _clip(out, _LR_LO, _LR_HI, out=out)


def _f_llr_exact_into(la, lb, out, scratch):
    np.add(la, lb, out=out)
    np.logaddexp(out, _ZERO, out=out)
    np.logaddexp(la, lb, out=scratch)
    np.subtract(out, scratch, out=out)
    _clip(out, _LLR_LO, _LLR_HI, out=out)


# A bound on |computed f - true f| for _f_llr_exact_into on [-LLR_CLIP,
# LLR_CLIP]**2, from which the exact kernel's rate-1 floors are derived (see
# "Rate-1 floors" in the Kernel docstring).
_F_EXACT_ERROR = 1e-13
_FLOOR_LEVELS = 64  # more levels than any code has


def _exact_rate1_floors(delta: float) -> tuple:
    """``t_0 = 0`` and, for each ``L >= 1``, the least double ``t`` whose
    ``log cosh(t) - delta``, computed as ``log1p(2*sinh(t/2)**2) - delta``,
    is at least ``t_{L-1}``: ``t = 2*asinh(sqrt(expm1(t_{L-1} + delta)/2))``,
    raised by an ulp while the computed chain step falls short."""
    floors = [0.0]
    for _ in range(1, _FLOOR_LEVELS):
        t = 2.0 * math.asinh(math.sqrt(math.expm1(floors[-1] + delta) / 2.0))
        while math.log1p(2.0 * math.sinh(t / 2.0) ** 2) - delta < floors[-1]:
            t = math.nextafter(t, math.inf)
        floors.append(t)
    return tuple(floors)


_EXACT_RATE1_FLOORS = _exact_rate1_floors(_F_EXACT_ERROR)
_MINSUM_RATE1_FLOORS = (0.0,) * _FLOOR_LEVELS


def _f_minsum_into(la, lb, out, scratch):
    np.abs(la, out=out)
    np.abs(lb, out=scratch)
    np.minimum(out, scratch, out=out)
    # The product's sign is sign(la) * sign(lb), kept even when it rounds to 0.
    np.multiply(la, lb, out=scratch)
    np.copysign(out, scratch, out=out)


def _g0_llr_into(la, lb, out, scratch):
    np.add(lb, la, out=out)
    _clip(out, _LLR_LO, _LLR_HI, out=out)


def _signed_into(values, bits, out):
    """``(-1)**bits * values`` into ``out``, exactly: each bit, 0 or 1, is
    XORed into its value's sign bit.  ``out`` must not overlap ``values``.
    The bits are widened by a copy into ``out`` and shifted there, as a
    shift of uint8 bits into a uint64 output casts through a buffer of its
    own."""
    flip = out.view(np.uint64)
    np.copyto(flip, bits)
    np.left_shift(flip, _SIGN_SHIFT, out=flip)
    np.bitwise_xor(flip, values.view(np.uint64), out=flip)


def _g_llr_into(la, lb, us, out, scratch):
    _signed_into(la, us, scratch)
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


class Kernel(Enum):
    """Arithmetic variant used by a decoder.

    Each member is declared once, as its whole record: the value string,
    then the stage ops ``f_into(a, b, out, scratch)``, ``g_into(a, b, us,
    out, scratch)`` (``us`` a uint8 array of partial sums, each 0 or 1) and
    ``g0_into(a, b, out, scratch)``, g after a rate-0 sibling, whose partial
    sums are all 0, bit-identical to ``g_into`` with an all-zero ``us``;
    the per-level ``rate1_floors`` (below); the 0-d decision ``threshold``,
    ratio 1 or log-ratio 0; and the in-place map from clipped channel
    log-ratios into the kernel's domain, ``np.exp`` or none.  The values
    ``from_llr`` returns (float64 for every member) fix the dtype of every
    buffer the decoder makes: its tree levels, its scratch and the genie
    evaluator's levels and temporaries take the dtype of the values they
    decode.

    ``f(a, b)`` and ``g(a, b, us)`` are the public doors to the update
    rules: each runs the member's stage op on fresh arrays.  The rules:

    - ratio domain: f is ``(1 + ab) / (a + b)``, symmetric, and g is
      ``a**(1 - 2*us) * b``;
    - exact log domain: f (boxplus) is ``log((1 + e**(la+lb)) / (e**la +
      e**lb))``, the log of the ratio-domain f, which equals
      ``2*atanh(tanh(la/2)*tanh(lb/2))`` and stays finite at saturated
      inputs; g is ``la * (-1)**us + lb``;
    - min-sum: f is the sign product with the smaller magnitude; g is the
      exact log domain's.

    Rate-1 floors
    -------------
    Per-level floors ``t_L`` above which SC on a rate-1 subtree is the
    hard decision of its inputs, or None where no floor is known.

    A frame's ``2**L`` values at level ``L`` of a rate-1 subtree are
    decided by their hard decision, in storage order, when every
    ``|value| > t_L``.  The argument is one induction over ``L``, given
    two facts about the kernel's f and g:

    - (f) ``|a|, |b| > t_L`` makes f's result non-zero, with the sign
      product ``sign(a) * sign(b)``, and above ``t_{L-1}`` in magnitude;
    - (g) given the left child's hard decision as its partial sum, g
      is ``(-1)**(hd(a) ^ hd(b)) * a + b = sign(b) * (|a| + |b|)``, which
      rounds and clips to at least ``|b|`` in magnitude.

    So the left child's inputs are above ``t_{L-1}`` and decide
    ``hd(a) ^ hd(b)``, the right child's are above ``t_L >= t_{L-1}``
    and decide ``hd(b)``, and the fold gives ``(hd(a), hd(b))``.

    Min-sum: every floor is 0, which means "no ``+/-0.0``".  Its f,
    ``copysign(min(|a|, |b|), a*b)``, is the smaller magnitude with the
    sign product, so (f) holds with ``t_L = 0``.

    Exact log domain: the true f is ``2*atanh(tanh(a/2)*tanh(b/2))``,
    whose magnitude is at least ``log cosh(s)`` for ``s = min(|a|, |b|)``.
    On ``[-LLR_CLIP, LLR_CLIP]**2`` the computed f is within
    ``_F_EXACT_ERROR`` (delta = 1e-13) of it: each of its operations
    (``a + b``, two ``logaddexp``, the difference) rounds a value of at
    most 80 by about one ulp, 1.4e-14, so the bound is about 5e-14, and
    the largest error measured against a ``longdouble`` reference, on
    2.6 million pairs, is 1.1e-14.  So where ``log cosh(s) > delta``, the
    computed f has the sign product and ``|f| >= log cosh(s) - delta``.
    (f) then holds with ``t_0 = 0`` and ``t_L`` the least ``t`` with
    ``log cosh(t) - delta >= t_{L-1}``, as ``s > t_L`` gives ``|f| >
    log cosh(t_L) - delta``: ``t_L`` is the smallest start of the chain
    ``h <- log cosh(h) - delta`` that stays above 0 for ``L`` steps.
    ``_exact_rate1_floors`` computes them, about 4.5e-7, 9e-4, 0.044,
    0.30, 0.81, 1.45 and 2.13 for ``L = 1 ... 7``; delta's margin over
    the bound absorbs their own rounding.  Below the floor, small inputs
    can break the rule: a chain of ``L`` f steps on equal small values
    shrinks like ``x**(2**L)`` and rounds to 0, and the tie rule then
    decides 1.  The floors hold for this formula of f only, and must be
    derived again if it changes, for genie counting as well.

    Genie corollary: genie decoding decides every phase, so to it every
    node is a rate-1 node.  Take a node at level ``L >= 1`` whose values
    all satisfy ``|v| > t_L`` and whose hard decisions equal the node's
    true codeword (the true bits folded over stages ``0 ... L - 1``, in
    storage order).  SC on the node decides that codeword, so each of
    its decisions is the true bit.  By induction over the node's phases,
    the partial sums the genie forces are SC's own, so its soft values
    are SC's, and its hard decision at each phase is SC's decision, the
    true bit: the node holds no genie error.  ``reference._genie_errors``
    drops such nodes, so the floors now decide genie counts too.

    The ratio domain keeps no floor: its rate-1 subtrees run in full.
    Indexed by ``L``, for every level of every code.
    """

    LR_EXACT = "lr_exact", _f_lr_into, _g_lr_into, _g0_lr_into, None, _ONE, np.exp
    LLR_EXACT = ("llr_exact", _f_llr_exact_into, _g_llr_into, _g0_llr_into,
                 _EXACT_RATE1_FLOORS, _ZERO, None)
    LLR_MINSUM = ("llr_minsum", _f_minsum_into, _g_llr_into, _g0_llr_into,
                  _MINSUM_RATE1_FLOORS, _ZERO, None)

    def __new__(cls, value, f_into, g_into, g0_into, rate1_floors, threshold, to_domain):
        member = object.__new__(cls)
        member._value_ = value  # so Kernel("llr_exact") and pickling find the member
        member.f_into, member.g_into, member.g0_into = f_into, g_into, g0_into
        member.rate1_floors, member.threshold = rate1_floors, threshold
        member._to_domain = to_domain
        return member

    def f(self, a, b):
        return _apply(self.f_into, *self._operands(a, b))

    def g(self, a, b, us):
        return _apply(self.g_into, *self._operands(a, b), us)

    def _operands(self, a, b) -> tuple:
        return _positive_ratios(a, b) if self is Kernel.LR_EXACT else (a, b)

    def from_llr(self, llr) -> np.ndarray:
        """Convert channel log-ratios into this kernel's domain.

        Every decoder entry point takes channel log-ratios and converts
        them here, or in place through ``_from_llr_in_place`` when it owns
        them, so this is where bad input fails: NaN or inf raises
        ValueError before the clip to ``+/-LLR_CLIP`` could hide it.
        """
        # [()]: a 0-d input comes back as a numpy scalar
        return self._from_llr_in_place(np.array(_as_real("channel log-ratios", llr)))[()]

    def _from_llr_in_place(self, llr: np.ndarray) -> np.ndarray:
        """``from_llr`` on a real array the caller owns, converted in place
        and returned, after a cast to float64 only where it holds another
        dtype: the frame source and the decoder's entry points convert
        their own copies without allocating another."""
        llr = llr.astype(np.float64, copy=False)
        if not np.isfinite(llr).all():
            raise ValueError("channel log-ratios must be finite (no NaN or inf)")
        _clip(llr, _LLR_LO, _LLR_HI, out=llr)
        if self._to_domain is not None:
            self._to_domain(llr, out=llr)
        return llr

    def hard_decision(self, value) -> np.ndarray:
        """0 when the soft value is above ``threshold``, else 1.

        The boundary itself decides 1, and a NaN raises ValueError.  The
        decoder loop applies the same rule in place, ``np.less_equal(value,
        threshold, out=bits)``, to each phase's root value, and to a whole
        tree level when a rate-1 subtree is decided at once (see "Rate-1
        floors" in ``Kernel``).
        """
        if np.isnan(value).any():
            raise ValueError("soft values must not be NaN")
        return np.less_equal(value, self.threshold).astype(np.uint8)
