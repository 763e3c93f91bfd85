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
from dataclasses import dataclass, field

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

    ``total_cycles`` covers the whole run; ``period_cycles`` is one vector
    (or one full overlap group), whose occupancy trace and schedule repeat
    across the run.  ``pe_activations`` counts work done by each processing
    resource over the entire run.
    """

    decoded: np.ndarray
    total_cycles: int
    period_cycles: int
    occupancy: list
    pe_activations: Counter = field(default_factory=Counter)
    schedule: Schedule | None = None


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
    psum = [np.zeros((batch, graph.num_sites(n)), dtype=np.uint8) for _ in channel]
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

    Frames run in groups of ``schedule.vectors`` (one, except on the
    overlapped machine, whose last partial group runs a shorter schedule),
    all full groups batched through one schedule pass; groups run back to
    back, so the run length is the sum of the group schedules.

    Parameters
    ----------
    cfg : ArchitectureConfig
        Machine kind and parallelism.
    frames : array-like, shape (num_frames, n) or (n,)
        Channel log-likelihood ratios; they are converted into the chosen
        kernel's domain before entering the channel registers.
    spec : CodeSpec
        Code definition; must match the configured length.
    kernel : Kernel
        Arithmetic variant for the processing elements.

    Returns
    -------
    SimResult
        Decoded blocks (bit-identical to the reference decoder), cycle
        counts, one period of occupancy trace, and PE activation counts.
    """
    if cfg.n != spec.n:
        raise ValueError(f"config length {cfg.n} != code length {spec.n}")
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.shape[1] != spec.n:
        raise ValueError(f"frame length {frames.shape[1]} != code length {spec.n}")
    if not np.isfinite(frames).all():
        raise ValueError("channel log-ratios must be finite (no NaN or inf)")
    values = kernel.from_llr(frames)

    sched = build_schedule(cfg)
    slots = sched.vectors
    groups, tail = divmod(len(values), slots)
    head = groups * slots
    decoded = np.empty(values.shape, dtype=np.uint8)
    total_cycles = groups * sched.total_cycles
    pe_counts: Counter = Counter()
    if groups:
        grouped = values[:head].reshape(groups, slots, cfg.n)
        bits = _run_tree_like(sched, cfg, [grouped[:, s] for s in range(slots)],
                              spec, kernel)
        decoded[:head] = np.stack(bits, axis=1).reshape(head, cfg.n)
        pe_counts = sched.pe_activations(groups)
    if tail:
        tail_sched = build_schedule(cfg, vectors=tail)
        tail_values = [values[head + s][None] for s in range(tail)]
        bits = _run_tree_like(tail_sched, cfg, tail_values, spec, kernel)
        decoded[head:] = np.concatenate(bits)
        total_cycles += tail_sched.total_cycles
        pe_counts.update(tail_sched.pe_activations())
        if not groups:
            sched = tail_sched
    return SimResult(decoded=decoded, total_cycles=total_cycles,
                     period_cycles=sched.total_cycles, occupancy=sched.occupancy(),
                     pe_activations=pe_counts, schedule=sched)
