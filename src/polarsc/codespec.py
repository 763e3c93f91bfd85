"""Code definition, frozen-set construction and butterfly encoding.

A code is fixed by its length ``n = 2**m`` and the set of frozen input
positions.  Frozen inputs are pinned to 0 at both ends of the link and the
remaining ``k`` positions carry information.  Encoding presents the input
block in bit-reversed order to an m-stage XOR butterfly network.

The butterfly is written once, as ``_fold``: in-place XOR folds over the
``(n, batch)`` block layout, one row per position and one column per frame,
the layout of the decoder's partial sums.  ``butterfly_transform`` and
``encode`` keep their ``(batch, n)`` contract around it.  Folding a block of
messages in natural order gives their codewords in bit-reversed order: row
``i`` is codeword position ``bit_reverse(i)``, the order of the decoder's
channel level, so the campaign and genie frames are built in that order
with no gather of the codeword (``channel._level_frames``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral, Real

import numpy as np


def bit_reverse_permutation(m: int) -> np.ndarray:
    """Permutation array reversing the m-bit representation of each index.

    Built once per ``m`` and shared by every caller, so the array is
    read-only; copy it to modify it.

    Parameters
    ----------
    m : int
        Number of index bits; the permutation covers ``[0, 2**m)``.

    Returns
    -------
    ndarray of int
        ``perm[i]`` is ``i`` with its m-bit representation reversed.  The
        permutation is an involution.
    """
    return _bit_reverse_permutation(_as_int("m", m))  # checked first: True and 1 share a key


@lru_cache(maxsize=32)
def _bit_reverse_permutation(m: int) -> np.ndarray:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    perm = np.zeros(1, dtype=np.int64)
    for _ in range(m):  # one more bit: i -> 2*perm[i], i + len(perm) -> 2*perm[i] + 1
        perm = np.concatenate((2 * perm, 2 * perm + 1))
    perm.flags.writeable = False
    return perm


def _fold(x: np.ndarray) -> np.ndarray:
    """Apply every XOR butterfly stage in place to ``x``, a C-contiguous
    ``(n, ...)`` array in block layout, and return it.

    The stage-``l`` fold XORs the second half of every block of
    ``2**(l+1)`` rows into its first half.  The stages commute and each is
    its own inverse, so folding every stage is the polar transform and
    undoes itself.
    """
    n = len(x)
    for l in range(n.bit_length() - 1):
        # a view of x, as x is C-contiguous, so the XOR updates x
        blocks = x.reshape(n >> (l + 1), 2, 1 << l, *x.shape[1:])
        np.bitwise_xor(blocks[:, 0], blocks[:, 1], blocks[:, 0])  # not ^=, which copies back
    return x


def butterfly_transform(bits) -> np.ndarray:
    """Apply the m-stage XOR butterfly network along the last axis.

    No permutation is applied; the network is its own inverse over GF(2).
    Accepts a single block or a batch of blocks, every entry 0 or 1.
    """
    x = np.asarray(bits)
    n = _as_length("block length", x.shape[-1])
    rows = np.array(_as_bits(x).reshape(-1, n).T, dtype=np.uint8, order="C")  # bits is kept
    return np.ascontiguousarray(_fold(rows).T).reshape(x.shape)


def _as_bits(bits) -> np.ndarray:
    """``bits`` as an array; ValueError unless every entry is 0 or 1."""
    bits = np.asarray(bits)
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("input bits must be 0 or 1")
    return bits


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool does not count as one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _as_int(name: str, value) -> int:
    """``value`` as an ``int``; ValueError naming ``name`` and ``value`` unless
    it is an integer (see ``_is_int``)."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_length(name: str, value) -> int:
    """``value`` as an ``int``; ValueError naming ``name`` unless it is an
    integer power of 2 >= 2."""
    n = _as_int(name, value)
    if n < 2 or n & (n - 1):
        raise ValueError(f"{name} must be a power of 2 >= 2, got {n}")
    return n


def _as_real(name: str, values) -> np.ndarray:
    """``values`` as an array; ValueError naming ``name`` and its dtype
    unless it holds real numbers (bool, int or float), as a complex array
    would lose its imaginary part in a cast to float and a string array be
    parsed."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real numbers, got dtype {values.dtype}")
    return values


def _as_finite(name: str, value) -> float:
    """``value`` as a ``float``; ValueError naming ``name`` and ``value``
    unless it is a real number, neither NaN nor +/-inf (a bool does not
    count as one)."""
    if not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _as_seed(seed) -> int:
    """``seed`` as an ``int``; ValueError naming ``seed`` unless it is a
    non-negative integer."""
    seed = _as_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class CodeSpec:
    """Static definition of one code: length, frozen set, rate.

    Attributes
    ----------
    m : int
        Length exponent, ``n = 2**m``.
    frozen : tuple of int
        Sorted frozen input positions, each in ``[0, n)``.
    """

    m: int
    frozen: tuple
    frozen_mask: np.ndarray = field(init=False, repr=False, compare=False)
    info_indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "m", _as_int("m", self.m))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        try:
            frozen = tuple(self.frozen)
        except TypeError:
            raise ValueError(f"frozen must be a sequence of integers, "
                             f"got {self.frozen!r}") from None
        for i in frozen:
            if not _is_int(i):
                raise ValueError(f"frozen indices must be integers, got {i!r}")
        frozen = tuple(sorted(int(i) for i in frozen))
        if len(set(frozen)) != len(frozen):
            raise ValueError("frozen set contains duplicate indices")
        n = 1 << self.m
        if frozen and (frozen[0] < 0 or frozen[-1] >= n):
            raise ValueError(f"frozen indices must lie in [0, {n})")
        object.__setattr__(self, "frozen", frozen)
        mask = np.zeros(n, dtype=bool)
        mask[list(frozen)] = True
        object.__setattr__(self, "frozen_mask", mask)
        object.__setattr__(self, "info_indices", np.flatnonzero(~mask))

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return self.n - len(self.frozen)

    def to_json(self) -> str:
        return json.dumps({"m": self.m, "frozen": list(self.frozen)})

    @classmethod
    def from_json(cls, text: str) -> "CodeSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"a CodeSpec must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {"m", "frozen"}
        if unknown:
            raise ValueError(f"unknown CodeSpec keys: {sorted(unknown)}")
        missing = {"m", "frozen"} - set(doc)
        if missing:
            raise ValueError(f"missing CodeSpec keys: {sorted(missing)}")
        return cls(m=doc["m"], frozen=doc["frozen"])


def _as_instance(name: str, value, cls: type):
    """``value``; ValueError naming ``name`` and the type of ``value`` unless
    it is an instance of ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, "
                         f"got {type(value).__name__}")
    return value


def _as_spec(spec) -> CodeSpec:
    """``spec``; ValueError naming its type unless it is a ``CodeSpec``."""
    return _as_instance("spec", spec, CodeSpec)


def encode(u, spec: CodeSpec) -> np.ndarray:
    """Encode input block(s) u into codeword block(s).

    The input is permuted into bit-reversed order and pushed through the
    XOR butterfly network.  Every entry of u must be 0 or 1, and its frozen
    positions 0.
    """
    spec, u = _as_spec(spec), np.asarray(u)
    if u.shape[-1] != spec.n:
        raise ValueError(f"input length {u.shape[-1]} != code length {spec.n}")
    if spec.frozen and np.any(u[..., list(spec.frozen)]):
        raise ValueError("frozen positions must be 0")
    return butterfly_transform(u[..., bit_reverse_permutation(spec.m)])  # checks 0 or 1


def bec_erasure_profile(n: int, design_erasure: float) -> np.ndarray:
    """Per-input erasure parameters under the splitting recursion.

    Starting from the design erasure probability, each doubling maps a
    parameter z to the pair ``(2z - z**2, z**2)``.  Larger values mark less
    reliable inputs.
    """
    n = _as_length("n", n)
    if not 0.0 < _as_finite("design_erasure", design_erasure) < 1.0:
        raise ValueError(f"design erasure must be in (0, 1), got {design_erasure}")
    z = np.array([design_erasure], dtype=np.float64)
    while len(z) < n:
        worse = 2.0 * z - z * z
        better = z * z
        out = np.empty(2 * len(z), dtype=np.float64)
        out[0::2] = worse
        out[1::2] = better
        z = out
    return z


def _freeze_worst(scores, n: int, k: int) -> tuple:
    # Freeze the n - k highest scores; ties freeze the smaller index first.
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    return tuple(sorted(order[: n - k]))


def construct_frozen_bec(n: int, k: int, design_erasure: float) -> CodeSpec:
    """Build a CodeSpec by freezing the least reliable erasure parameters.

    Parameters
    ----------
    n, k : int
        Code length (power of 2) and information length, ``1 <= k <= n``.
    design_erasure : float
        Channel erasure probability used for the design, in (0, 1).
    """
    n, k = _as_int("n", n), _as_int("k", k)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    z = bec_erasure_profile(n, design_erasure)
    return CodeSpec(m=n.bit_length() - 1, frozen=_freeze_worst(z, n, k))


def construct_frozen_mc(
    n: int, k: int, noise_sigma: float, trials: int, seed: int
) -> CodeSpec:
    """Build a CodeSpec from genie-aided error statistics on a noisy channel.

    Random full-rate blocks are transmitted; the decoder is run with every
    decision corrected to the true bit after its error is recorded, so each
    count is a per-position first-error rate.  The worst ``n - k`` positions
    are frozen.  Reproducible from the seed.
    """
    n, k, trials = _as_int("n", n), _as_int("k", k), _as_int("trials", trials)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    from .reference import genie_error_counts

    counts = genie_error_counts(n, noise_sigma, trials, seed)
    rates = counts / float(trials)
    return CodeSpec(m=n.bit_length() - 1, frozen=_freeze_worst(rates, n, k))
