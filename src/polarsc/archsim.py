"""Cycle-accurate simulation of the decoder architectures.

Five machines are modeled: the fully unrolled graph with one node
processor per graph node (``FFT_LIKE``), the resource-shared tree of
``n - 1`` processing elements (``PIPELINED_TREE``), the line of ``n / 2``
PEs with tree-shaped registers (``LINE``), the line with a reduced PE
budget (``SEMI_PARALLEL``), and the overlapped machine decoding several
vectors on duplicated stage instances (``VECTOR_OVERLAP``).

The machines run the same data-independent activation sequence and differ
only in how their schedules map it onto hardware, so one executor runs all
five on the tree register file: ``2**l`` registers per stage plus the
channel, and a bank of ``n - 1`` partial-sum sites (``graph.site_id``)
into which each decided bit latches through ``graph.psum_enable``.  The
unrolled graph's one register per graph node is a property of its
schedule (every node written once, after its inputs), checked in the
tests.  Control flow is data independent, so one schedule pass carries a
whole batch of frames, and occupancy and PE counts come from the schedule,
not the arithmetic loop.  The decoded output of every machine is
bit-identical to the reference decoder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import graph
from .codespec import CodeSpec
from .kernels import Kernel
from .schedule import (ArchKind, ArchitectureConfig, Schedule, build_schedule,
                       check_no_conflict)


class SimulationError(RuntimeError):
    """A schedule/datapath inconsistency surfaced at run time."""


@dataclass
class SimResult:
    """Outcome of one simulation run.

    ``total_cycles`` covers the whole run; ``schedule`` is one period, one
    vector (or one full overlap group), whose occupancy trace repeats
    across the run.  ``pe_activations`` counts work done by each processing
    resource over the entire run.
    """

    decoded: np.ndarray
    total_cycles: int
    pe_activations: Counter
    schedule: Schedule

    @property
    def period_cycles(self) -> int:
        return self.schedule.total_cycles

    @property
    def occupancy(self) -> list:
        return self.schedule.occupancy()


def _tree_range(sched: Schedule, e) -> tuple[int, int]:
    """Tree positions [q0, q1) an entry activates.

    Unrolled-graph entries name graph rows; the stage-l row r is tree
    position ``r >> (m - l)``.  The other machines name positions directly.
    """
    shift = sched.m - e.stage if sched.kind is ArchKind.FFT_LIKE else 0
    q = [r >> shift for r in e.active]
    q0, q1 = q[0], q[-1] + 1
    if q != list(range(q0, q1)):
        raise SimulationError(f"non-contiguous activation {e.active}")
    return q0, q1


def _run_tree_like(sched: Schedule, cfg: ArchitectureConfig, channel: list,
                   spec: CodeSpec, kernel: Kernel) -> list:
    """Execute any machine's schedule over per-slot tree register sets.

    ``channel`` holds one (batch, n) array per vector slot; the decided bits
    come back the same way.  Tree position (l, q) owns register R[l][q] and
    partial-sum site ``graph.site_id(l, q)``; PE (l, q) reads R[l+1][2q] and
    R[l+1][2q+1] (level m holds the channel values) and writes R[l][q].
    """
    violations = check_no_conflict(sched, cfg)
    if violations:
        raise SimulationError("; ".join(violations))
    n, m = cfg.n, cfg.m
    batch = channel[0].shape[0]
    regs = [[np.zeros((batch, 1 << l)) for l in range(m)] + [c] for c in channel]
    psum = [np.zeros((batch, n - 1), dtype=np.uint8) for _ in channel]
    decided = [np.zeros((batch, n), dtype=np.uint8) for _ in channel]
    enable = graph.psum_enable(m)

    for e in sched.sorted_entries():
        l, v = e.stage, e.vector
        q0, q1 = _tree_range(sched, e)
        src = regs[v][l + 1]
        a = src[:, 2 * q0: 2 * q1: 2]
        b = src[:, 2 * q0 + 1: 2 * q1: 2]
        if e.function == "g":
            sites = slice(graph.site_id(l, q0), graph.site_id(l, q1))
            us = psum[v][:, sites].copy()
            psum[v][:, sites] = 0
            out = kernel.g(a, b, us)
        else:
            out = kernel.f(a, b)
        regs[v][l][:, q0:q1] = out

        if l == 0:
            i = e.phase
            if spec.frozen_mask[i]:
                bits = np.zeros(batch, dtype=np.uint8)
            else:
                bits = kernel.hard_decision(regs[v][0][:, 0])
            decided[v][:, i] = bits
            psum[v][:, enable[i]] ^= bits[:, None]

    return decided


def simulate(cfg: ArchitectureConfig, frames, spec: CodeSpec, kernel: Kernel) -> SimResult:
    """Run one machine over a batch of channel log-ratio frames.

    Frames run in groups of ``P = cfg.overlap_p or 1``, all full groups
    batched through one schedule pass and the leftover frames as one
    shorter group; groups run back to back, so the run length is the sum
    of the group schedules.  Only the schedules that run are built; the
    period is the first one (the full group's when there are no frames).

    Parameters
    ----------
    cfg : ArchitectureConfig
        Machine kind and parallelism.
    frames : array-like, shape (num_frames, n) or (n,)
        Channel log-likelihood ratios; ``kernel.from_llr`` rejects NaN/inf
        and maps them into the kernel's domain for the channel registers.
    spec : CodeSpec
        Code definition; must match the configured length.
    kernel : Kernel
        Arithmetic variant for the processing elements.

    Returns
    -------
    SimResult
        Decoded blocks (bit-identical to the reference decoder), cycle
        counts, PE activation counts, and the schedule of one period, from
        which ``period_cycles`` and the ``occupancy`` trace are read.
    """
    if cfg.n != spec.n:
        raise ValueError(f"config length {cfg.n} != code length {spec.n}")
    values = np.atleast_2d(kernel.from_llr(frames))
    if values.shape[1] != spec.n:
        raise ValueError(f"frame length {values.shape[1]} != code length {spec.n}")

    p = cfg.overlap_p or 1
    groups, tail = divmod(len(values), p)
    decoded = np.empty(values.shape, dtype=np.uint8)
    total_cycles = 0
    pe_counts: Counter = Counter()
    period = None
    for start, count, slots in ((0, groups, p), (groups * p, 1, tail)):
        if not count * slots:
            continue
        sched = build_schedule(cfg, vectors=slots)
        run = slice(start, start + count * slots)
        grouped = values[run].reshape(count, slots, cfg.n)
        bits = _run_tree_like(sched, cfg, [grouped[:, s] for s in range(slots)],
                              spec, kernel)
        decoded[run] = np.stack(bits, axis=1).reshape(-1, cfg.n)
        total_cycles += count * sched.total_cycles
        pe_counts.update(sched.pe_activations(count))
        period = period or sched
    return SimResult(decoded=decoded, total_cycles=total_cycles,
                     pe_activations=pe_counts, schedule=period or build_schedule(cfg))
