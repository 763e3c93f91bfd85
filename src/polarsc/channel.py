"""Antipodal modulation, Gaussian noise, and error-rate campaigns.

Bit 0 maps to +1 and bit 1 to -1, so a positive channel log-ratio favors
bit 0, matching the decoder's decision threshold.  Campaign randomness is
drawn from counter-based streams keyed on (seed, point, frame block), so a
report depends only on its seed, never on execution order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .codespec import CodeSpec, _is_int, encode
from .kernels import Kernel

_WILSON_Z = 1.959963984540054  # two-sided 95%
_RNG_BLOCK = 256  # frames per random stream; part of the reproducibility contract


def bpsk_modulate(bits) -> np.ndarray:
    """Map bit 0 to +1.0 and bit 1 to -1.0."""
    bits = np.asarray(bits)
    return 1.0 - 2.0 * bits.astype(np.float64)


def awgn_llr(y, sigma: float) -> np.ndarray:
    """Channel log-ratios for unit-energy antipodal symbols: 2*y / sigma**2."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return 2.0 * np.asarray(y, dtype=np.float64) / (sigma * sigma)


def sigma_from_ebn0_db(ebn0_db: float, rate: float) -> float:
    """Noise standard deviation for a given Eb/N0 (dB) at code rate k/n."""
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return float(1.0 / np.sqrt(2.0 * rate * ebn0))


@dataclass(frozen=True)
class CampaignStop:
    """Stop a point once enough frame errors or frames have accumulated."""

    max_frames: int = 10**6
    min_frame_errors: int = 100

    def __post_init__(self):
        for name in ("max_frames", "min_frame_errors"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def wilson_halfwidth(errors: int, total: int) -> float:
    """Half-width of the Wilson 95% interval for a binomial proportion:
    0.0 for no trials, and ValueError unless ``0 <= errors <= total``."""
    if total <= 0:
        return 0.0
    if not 0 <= errors <= total:
        raise ValueError(f"errors must satisfy 0 <= errors <= total = {total}, "
                         f"got {errors}")
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


def _noisy_frames(spec: CodeSpec, sigma: float, count: int, *entropy) -> tuple:
    """Draw ``count`` random messages and their channel log-ratios.

    One Philox stream keyed on ``entropy`` supplies the information bits,
    then the noise.  Returns the ``(count, n)`` input blocks and log-ratios.
    """
    seq = np.random.SeedSequence(entropy=tuple(int(e) for e in entropy))
    rng = np.random.Generator(np.random.Philox(seq))
    u = np.zeros((count, spec.n), dtype=np.uint8)
    u[:, spec.info_indices] = rng.integers(0, 2, size=(count, spec.k), dtype=np.uint8)
    y = bpsk_modulate(encode(u, spec)) + sigma * rng.standard_normal((count, spec.n))
    return u, awgn_llr(y, sigma)


def run_campaign(spec: CodeSpec, kernel: Kernel, points_db, stop: CampaignStop | None = None,
                 seed: int = 0) -> BerReport:
    """Measure bit and frame error rates over a list of Eb/N0 points.

    Random information bits are encoded, sent through the Gaussian channel
    and decoded until a stop criterion fires.  Randomness is keyed on
    (seed, point index, frame block) only, so two campaigns with the same
    seed see identical messages and noise regardless of kernel: comparing
    kernels is a paired experiment.
    """
    from .reference import decode_batch

    stop = stop or CampaignStop()
    report = BerReport(spec=spec, kernel=kernel, seed=seed)
    rate = spec.k / spec.n
    info = spec.info_indices

    for point_idx, ebn0_db in enumerate(points_db):
        sigma = sigma_from_ebn0_db(ebn0_db, rate)
        frames = bit_errors = frame_errors = 0
        while frames < stop.max_frames and frame_errors < stop.min_frame_errors:
            todo = min(_RNG_BLOCK, stop.max_frames - frames)
            u, llr = _noisy_frames(spec, sigma, todo, seed, point_idx, frames)
            u_hat, _ = decode_batch(llr, spec, kernel)
            wrong = u_hat[:, info] != u[:, info]
            bit_errors += int(wrong.sum())
            frame_errors += int(wrong.any(axis=1).sum())
            frames += todo
        report.points.append(BerPoint(
            ebn0_db=float(ebn0_db), noise_sigma=sigma, frames=frames,
            bit_errors=bit_errors, frame_errors=frame_errors,
        ))
    return report


def monotonicity_flags(report: BerReport) -> list[str]:
    """Flag error-rate increases between consecutive points beyond twice the
    combined interval half-widths.  Checks both FER and BER."""
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
