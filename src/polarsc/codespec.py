"""Code definition, frozen-set construction and butterfly encoding.

A code is fixed by its length ``n = 2**m`` and the set of frozen input
positions.  Frozen inputs are pinned to 0 at both ends of the link and the
remaining ``k`` positions carry information.  Encoding presents the input
block in bit-reversed order to an m-stage XOR butterfly network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graph import bit_reverse


def bit_reverse_permutation(m: int) -> np.ndarray:
    """Permutation array reversing the m-bit representation of each index.

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
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return np.array([bit_reverse(i, m) for i in range(1 << m)], dtype=np.int64)


def butterfly_transform(bits) -> np.ndarray:
    """Apply the m-stage XOR butterfly network along the last axis.

    No permutation is applied; the network is its own inverse over GF(2).
    Accepts a single block or a batch of blocks.
    """
    x = np.asarray(bits)
    n = x.shape[-1]
    if n < 2 or n & (n - 1):
        raise ValueError(f"block length must be a power of 2 >= 2, got {n}")
    x = np.ascontiguousarray(x.astype(np.uint8) & 1)
    stride = n // 2
    while stride:
        # (..., blocks, top/bottom half, stride): a view of x, so x is updated
        v = x.reshape(*x.shape[:-1], n // (2 * stride), 2, stride)
        v[..., 0, :] ^= v[..., 1, :]
        stride //= 2
    return x


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
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        frozen = tuple(sorted(int(i) for i in self.frozen))
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
        unknown = set(doc) - {"m", "frozen"}
        if unknown:
            raise ValueError(f"unknown CodeSpec keys: {sorted(unknown)}")
        return cls(m=int(doc["m"]), frozen=tuple(doc["frozen"]))


def encode(u, spec: CodeSpec) -> np.ndarray:
    """Encode input block(s) u into codeword block(s).

    The input is permuted into bit-reversed order and pushed through the
    XOR butterfly network.  Every entry of u must be 0 or 1, and its frozen
    positions 0.
    """
    u = np.asarray(u)
    if u.shape[-1] != spec.n:
        raise ValueError(f"input length {u.shape[-1]} != code length {spec.n}")
    if np.any((u != 0) & (u != 1)):
        raise ValueError("input bits must be 0 or 1")
    u = u.astype(np.uint8)
    if spec.frozen and np.any(u[..., list(spec.frozen)]):
        raise ValueError("frozen positions must be 0")
    perm = bit_reverse_permutation(spec.m)
    return butterfly_transform(u[..., perm])


def bec_erasure_profile(n: int, design_erasure: float) -> np.ndarray:
    """Per-input erasure parameters under the splitting recursion.

    Starting from the design erasure probability, each doubling maps a
    parameter z to the pair ``(2z - z**2, z**2)``.  Larger values mark less
    reliable inputs.
    """
    if not 0.0 < design_erasure < 1.0:
        raise ValueError(f"design erasure must be in (0, 1), got {design_erasure}")
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of 2 >= 2, got {n}")
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
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if noise_sigma <= 0:
        raise ValueError(f"noise_sigma must be > 0, got {noise_sigma}")
    from .reference import genie_error_counts

    counts = genie_error_counts(n, noise_sigma, trials, seed)
    rates = counts / float(trials)
    return CodeSpec(m=n.bit_length() - 1, frozen=_freeze_worst(rates, n, k))
