"""Antipodal modulation, Gaussian noise, and error-rate campaigns.

Bit 0 maps to +1 and bit 1 to -1, so a positive channel log-ratio favors
bit 0, matching the decoder's decision threshold.  Campaign randomness is
drawn from counter-based streams keyed on (seed, point, frame block), so a
report depends only on its seed, never on execution order.  A point's
blocks are therefore decoded several at once, on the CPUs of the process's
affinity mask (up to ``reference._WORKERS``), and counted in block order:
the report is the same on any number of CPUs, and a block decoded past a
point's stop is never counted.

Campaign and genie frames are born in the decoder's layout: ``_noisy_frames``
returns ``(n, count)`` arrays, one row per position and one column per
frame, the messages in natural order and the channel log-ratios in level
``m``'s bit-reversed order (see ``reference``).  Folding the message rows
(``codespec._fold``) gives the codeword already in that order, so only the
noise is gathered, once, and no frame is transposed on its way to the
decoder.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from numbers import Real

import numpy as np

from .codespec import (CodeSpec, _as_bits, _as_finite, _as_instance, _as_int, _as_real,
                       _as_seed, _as_spec, _fold, bit_reverse_permutation)
from .kernels import Kernel

_WILSON_Z = 1.959963984540054  # two-sided 95%
_RNG_BLOCK = 256  # frames per random stream; part of the reproducibility contract


def bpsk_modulate(bits) -> np.ndarray:
    """Map bit 0 to +1.0 and bit 1 to -1.0; every entry must be 0 or 1."""
    symbols = _as_bits(bits).astype(np.float64)
    # 1 - 2 * bits in place: with the 0/1 check's temporaries, one more per
    # operation raised the machines benchmark's peak RSS by 0.4 MB
    np.multiply(symbols, -2.0, out=symbols)
    np.add(symbols, 1.0, out=symbols)
    return symbols


def _ratios_overflow(sigma: float) -> bool:
    """Whether a unit symbol's channel log-ratio 2 / sigma**2 overflows."""
    return sigma * sigma * sys.float_info.max < 2.0


def _as_sigma(name: str, value) -> float:
    """``value`` as a noise sigma; ValueError naming ``name`` unless it is a
    finite number > 0 whose channel log-ratios do not overflow."""
    sigma = _as_finite(name, value)
    if sigma <= 0:
        raise ValueError(f"{name} must be > 0, got {sigma}")
    if _ratios_overflow(sigma):
        raise ValueError(f"{name} = {sigma} is too small: the channel log-ratios "
                         f"2y / sigma**2 overflow")
    return sigma


def awgn_llr(y, sigma: float) -> np.ndarray:
    """Channel log-ratios for unit-energy antipodal symbols: 2*y / sigma**2.

    Raises ValueError naming ``y`` unless it holds real numbers, and naming
    ``sigma`` when a log-ratio of a finite ``y`` overflows: ``_as_sigma``
    bounds sigma for a unit symbol only, and a received value ``|y| > 1``
    can overflow just above that bound.
    """
    y, sigma = _as_real("y", y), _as_sigma("sigma", sigma)
    try:
        with np.errstate(over="raise"):  # an infinite y does not overflow
            return 2.0 * y.astype(np.float64, copy=False) / (sigma * sigma)
    except FloatingPointError:
        raise ValueError(f"sigma = {sigma} is too small: the channel log-ratios "
                         f"2y / sigma**2 overflow") from None


def sigma_from_ebn0_db(ebn0_db: float, rate: float) -> float:
    """Noise standard deviation for a given Eb/N0 (dB) at code rate k/n.

    Raises ValueError naming ``ebn0_db`` when the sigma it gives is not a
    positive finite number, as at +/-4000 dB, or when the channel
    log-ratios ``2y / sigma**2`` it gives overflow, as at 3080 dB.
    """
    if not 0 < _as_finite("rate", rate) <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    ebn0_db = _as_finite("ebn0_db", ebn0_db)
    try:
        ebn0 = 10.0 ** (ebn0_db / 10.0)
    except OverflowError:  # sigma would round to 0
        ebn0 = math.inf
    with np.errstate(divide="ignore"):  # ebn0 rounded to 0: sigma would be inf
        sigma = float(1.0 / np.sqrt(2.0 * rate * ebn0))
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"ebn0_db = {ebn0_db} gives noise sigma {sigma}, "
                         f"not a positive finite number")
    if _ratios_overflow(sigma):
        raise ValueError(f"ebn0_db = {ebn0_db} gives noise sigma {sigma}, "
                         f"whose channel log-ratios 2y / sigma**2 overflow")
    return sigma


@dataclass(frozen=True)
class CampaignStop:
    """Stop a point once enough frame errors or frames have accumulated."""

    max_frames: int = 10**6
    min_frame_errors: int = 100

    def __post_init__(self):
        for name in ("max_frames", "min_frame_errors"):
            value = _as_int(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def wilson_halfwidth(errors: int, total: int) -> float:
    """Half-width of the Wilson 95% interval for a binomial proportion:
    0.0 for no trials, and ValueError unless ``0 <= errors <= total`` and
    both counts are integers."""
    for name, value in (("errors", errors), ("total", total)):
        if not isinstance(value, Real):  # no order to check it against: reject now
            _as_int(name, value)
    if total > 0 and not 0 <= errors <= total:
        raise ValueError(f"errors must satisfy 0 <= errors <= total = {total}, "
                         f"got {errors}")
    errors, total = _as_int("errors", errors), _as_int("total", total)
    if total <= 0:
        return 0.0
    p, z = errors / total, _WILSON_Z
    denom = 1.0 + z * z / total
    return float(z * np.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom)


@dataclass(frozen=True)
class BerPoint:
    ebn0_db: float
    noise_sigma: float
    frames: int
    bit_errors: int
    frame_errors: int

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0

    def ber(self, k: int) -> float:
        return self.bit_errors / (self.frames * k) if self.frames else 0.0

    @property
    def fer_halfwidth(self) -> float:
        return wilson_halfwidth(self.frame_errors, self.frames)


@dataclass
class BerReport:
    """Per-point error statistics for one (code, kernel, seed) campaign."""

    spec: CodeSpec
    kernel: Kernel
    seed: int
    points: list = field(default_factory=list)

    def to_rows(self) -> list[dict]:
        k = self.spec.k
        return [
            {
                "ebn0_db": p.ebn0_db,
                "frames": p.frames,
                "bit_errors": p.bit_errors,
                "frame_errors": p.frame_errors,
                "ber": p.ber(k),
                "fer": p.fer,
                "fer_ci95_halfwidth": p.fer_halfwidth,
            }
            for p in self.points
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        fields = ["ebn0_db", "frames", "bit_errors", "frame_errors",
                  "ber", "fer", "fer_ci95_halfwidth"]
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in self.to_rows():
            writer.writerow(row)
        return buf.getvalue()

    def to_json(self, meta: dict | None = None) -> str:
        doc = {
            "code": {"m": self.spec.m, "n": self.spec.n, "k": self.spec.k},
            "kernel": self.kernel.value,
            "seed": self.seed,
            "points": self.to_rows(),
        }
        if meta:
            doc["_meta"] = meta
        return json.dumps(doc, indent=2)


def _draw(spec: CodeSpec, count: int, *entropy) -> tuple:
    """Draw ``count`` frames' randomness from one Philox stream keyed on
    ``entropy``: the ``(count, k)`` information bits, then the ``(count,
    n)`` standard normal noise.  This order and these shapes are the
    reproducibility contract of campaigns and genie counts."""
    seq = np.random.SeedSequence(entropy=tuple(int(e) for e in entropy))
    rng = np.random.Generator(np.random.Philox(seq))
    bits = rng.integers(0, 2, size=(count, spec.k), dtype=np.uint8)
    return bits, rng.standard_normal((count, spec.n))


def _level_frames(spec: CodeSpec, sigma: float, bits: np.ndarray, z: np.ndarray) -> tuple:
    """Build frames from drawn information bits and noise (see ``_draw``).

    Returns the ``(n, count)`` message rows, in natural order, and the
    ``(n, count)`` channel log-ratios in level ``m``'s order: row ``i`` is
    codeword position ``bit_reverse(i)``.  Folding the message rows gives
    the codeword in that order, so only the noise is gathered.  Each value
    is bit for bit ``awgn_llr(bpsk_modulate(c) + sigma * z, sigma)``: the
    same float operations on the same operands.
    """
    # The noise is gathered before the symbols are made: in that order a
    # campaign worker thread's glibc arena kept 2.4 MB of freed arrays after
    # the campaigns, and in the other 6.4 MB (ROADMAP item 15).
    llr = z.T[bit_reverse_permutation(spec.m)]  # the noise, in level m's order
    np.multiply(llr, sigma, out=llr)
    u = np.zeros((spec.n, len(bits)), dtype=np.uint8)
    u[spec.info_indices] = bits.T
    symbols = _fold(u.copy()).view(np.int8)  # the codeword, in level m's order
    np.multiply(symbols, -2, out=symbols)  # bpsk_modulate, 1 - 2c, exact in int8
    np.add(symbols, 1, out=symbols)
    np.add(llr, symbols, out=llr)  # converts the symbols in small buffers, not all at once
    np.multiply(llr, 2.0, out=llr)  # awgn_llr: 2y / sigma**2
    np.divide(llr, sigma * sigma, out=llr)
    return u, llr


def _noisy_frames(spec: CodeSpec, sigma: float, count: int, *entropy) -> tuple:
    """Draw ``count`` random messages and their channel log-ratios from the
    stream keyed on ``entropy`` (``_draw``), as ``(n, count)`` message rows
    and level-``m`` log-ratios (``_level_frames``)."""
    return _level_frames(spec, sigma, *_draw(spec, count, *entropy))


def _block_errors(spec: CodeSpec, kernel: Kernel, sigma: float, count: int,
                  *entropy) -> tuple:
    """Draw one campaign block of ``count`` frames from ``entropy`` (see
    ``_noisy_frames``), decode it, and return ``(count, bit errors, frame
    errors)`` over its information rows."""
    from .reference import _sc_decode

    u, llr = _noisy_frames(spec, sigma, count, *entropy)
    u_hat, _ = _sc_decode(kernel._from_llr_in_place(llr), spec, kernel)
    info = spec.info_indices
    wrong = u_hat[info] != u[info]
    return count, int(wrong.sum()), int(wrong.any(axis=0).sum())


def run_campaign(spec: CodeSpec, kernel: Kernel, points_db, stop: CampaignStop | None = None,
                 seed: int = 0) -> BerReport:
    """Measure bit and frame error rates over a list of Eb/N0 points.

    Random information bits are encoded, sent through the Gaussian channel
    and decoded until a stop criterion fires.  Randomness is keyed on
    (seed, point index, frame block) only, so two campaigns with the same
    seed see identical messages and noise regardless of kernel: comparing
    kernels is a paired experiment.

    A point's blocks of ``_RNG_BLOCK`` frames are decoded up to
    ``reference._WORKERS`` at a time, on as many CPUs (see
    ``reference._run_jobs``), and counted in block order, one block at a
    time until the stop criterion fires, so the report is the same on any
    number of CPUs.  A batch holds no more blocks than the stop is expected
    to need: before a point's first block, those counted even if every
    frame fails; then as many as its frame error rate so far takes to reach
    ``min_frame_errors``, or all that run at once while it has no error.  A
    block past the stop is decoded only when that guess overshoots, and is
    never counted.  Every point's Eb/N0 is checked before a frame is drawn.
    ``kernel`` may be a ``Kernel`` or its value string; the report holds
    the member.
    """
    from . import reference

    spec, kernel, seed = _as_spec(spec), Kernel(kernel), _as_seed(seed)
    stop = CampaignStop() if stop is None else _as_instance("stop", stop, CampaignStop)
    report = BerReport(spec=spec, kernel=kernel, seed=seed)
    points_db = list(points_db)
    sigmas = [sigma_from_ebn0_db(ebn0_db, spec.k / spec.n) for ebn0_db in points_db]

    for point_idx, (ebn0_db, sigma) in enumerate(zip(points_db, sigmas)):
        frames = bit_errors = frame_errors = 0
        while frames < stop.max_frames and frame_errors < stop.min_frame_errors:
            short = stop.min_frame_errors - frame_errors  # frame errors still wanted
            if frame_errors:  # the blocks the error rate so far expects to need
                ahead = -(-short * frames // (frame_errors * _RNG_BLOCK))
            elif frames:  # no error yet
                ahead = reference._WORKERS
            else:  # the blocks counted even if every frame fails
                ahead = -(-short // _RNG_BLOCK)
            reach = min(ahead, reference._WORKERS) * _RNG_BLOCK  # frames decoded at once
            blocks = range(frames, min(frames + reach, stop.max_frames), _RNG_BLOCK)
            jobs = [partial(_block_errors, spec, kernel, sigma,
                            min(_RNG_BLOCK, stop.max_frames - start), seed, point_idx, start)
                    for start in blocks]
            for todo, bits, errs in reference._run_jobs(jobs):
                if frame_errors >= stop.min_frame_errors:
                    break  # a block decoded past the stop
                frames += todo
                bit_errors += bits
                frame_errors += errs
        report.points.append(BerPoint(
            ebn0_db=float(ebn0_db), noise_sigma=sigma, frames=frames,
            bit_errors=bit_errors, frame_errors=frame_errors,
        ))
    return report


def monotonicity_flags(report: BerReport) -> list[str]:
    """Flag error-rate increases between consecutive points beyond twice the
    combined interval half-widths.  Checks both FER and BER."""
    _as_instance("report", report, BerReport)
    flags = []
    k = report.spec.k
    pts = sorted(report.points, key=lambda p: p.ebn0_db)
    for lo, hi in zip(pts, pts[1:]):
        slack = 2.0 * (lo.fer_halfwidth + hi.fer_halfwidth)
        if hi.fer > lo.fer + slack:
            flags.append(
                f"FER rose from {lo.fer:.3g} at {lo.ebn0_db} dB "
                f"to {hi.fer:.3g} at {hi.ebn0_db} dB"
            )
        ber_slack = 2.0 * (wilson_halfwidth(lo.bit_errors, lo.frames * k)
                           + wilson_halfwidth(hi.bit_errors, hi.frames * k))
        if hi.ber(k) > lo.ber(k) + ber_slack:
            flags.append(
                f"BER rose from {lo.ber(k):.3g} at {lo.ebn0_db} dB "
                f"to {hi.ber(k):.3g} at {hi.ebn0_db} dB"
            )
    return flags
