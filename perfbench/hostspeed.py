"""Host-speed calibration for the benchmark's end-to-end time metrics.

The benchmark runs on small virtual machines that share their host with
other tenants.  There the speed of one process drifts by up to 2x over
minutes, which no median over one run can absorb: two runs of the same code
half an hour apart differ by more than any useful bound.  The drift is not
time spent descheduled (process CPU time equals wall time), so the only
way to see it is to time a piece of work that does not change.

``calibrate`` runs such work.  It uses no ``polarsc`` code and has three
parts, one per kind of host work the workloads do, because the drift does
not slow every kind alike:

- ``interpreter``: dict and f-string bookkeeping, as in the simulators;
- ``narrow``: numpy calls on narrow slices of a (48, 64) array, as in the
  simulators' per-cycle register updates;
- ``wide``: strided min-sum arithmetic streamed over a 4 MiB array, larger
  than one core's L2 cache, as the decoders do on a batch's (512, 1024)
  channel values.

A ``Stopwatch`` runs the parts that match its workload right before and
right after each timed call, and rescales the call's wall time by their
reference time over the median of the last ``WINDOW`` calibration times,
those two included.  The result is the time the call would have taken on a
host where the parts take their reference time.  The window spans a few
seconds of the run: long enough to smooth the calibration's own jitter,
short enough to follow the drift.  A change to the program moves the
rescaled time as much as the raw one; a change of host speed, which moves
the call and the calibration alike, cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Calibrations whose median rescales a call: the last six calls' brackets.
WINDOW = 12

_NARROW = np.linspace(-4.0, 4.0, 48 * 64).reshape(48, 64)
_WIDE = np.linspace(-4.0, 4.0, 512 * 1024).reshape(512, 1024)


def _interpreter() -> None:
    counts: dict[str, int] = {}
    for i in range(7000):
        name = f"P_{i & 63},{i & 7}"
        counts[name] = counts.get(name, 0) + 48


def _narrow() -> None:
    narrow = _NARROW.copy()
    for i in range(300):
        q0 = i & 31
        a = narrow[:, q0: q0 + 32: 2]
        b = narrow[:, q0 + 1: q0 + 33: 2]
        narrow[:, q0: q0 + 16] = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _wide() -> None:
    a, b = _WIDE[:, ::2], _WIDE[:, 1::2]
    for _ in range(2):
        np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


#: Each part's work and its seconds on the reference host, about its
#: median on an unloaded 2-vCPU x86_64 VM.
PARTS = {"interpreter": (_interpreter, 0.004), "narrow": (_narrow, 0.006),
         "wide": (_wide, 0.010)}


def calibrate(parts=tuple(PARTS)) -> float:
    """Run the named calibration parts; return their wall time in seconds."""
    t0 = time.perf_counter()
    for part in parts:
        PARTS[part][0]()
    return time.perf_counter() - t0


class Stopwatch:
    """Times calls raw and rescaled to the reference host by the named
    calibration parts, and sums both until ``take`` reads and clears them."""

    def __init__(self, parts=tuple(PARTS)):
        self.parts = tuple(parts)
        self.ref_s = sum(PARTS[part][1] for part in self.parts)
        self.raw = 0.0
        self.scaled = 0.0
        self.calibrations: list[float] = []

    def call(self, context, fn, *args, **kwargs):
        """Return ``fn(*args, **kwargs)``, called inside ``context`` (the
        caller's spans) and timed; the calibrations lie outside it."""
        before = calibrate(self.parts)
        with context:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            raw = time.perf_counter() - t0
        after = calibrate(self.parts)
        self.raw += raw
        self.calibrations += [before, after]
        self.scaled += raw * self.ref_s / statistics.median(self.calibrations[-WINDOW:])
        return out

    def take(self) -> tuple[float, float]:
        """(raw, rescaled) seconds of the calls since the last take."""
        out = (self.raw, self.scaled)
        self.raw = self.scaled = 0.0
        return out
