"""Cycle-accurate simulation of the decoder architectures.

Five machines are modeled: the fully unrolled graph with one node
processor per graph node (``FFT_LIKE``), the resource-shared tree of
``n - 1`` processing elements (``PIPELINED_TREE``), the line of ``n / 2``
PEs with tree-shaped registers (``LINE``), the line with a reduced PE
budget (``SEMI_PARALLEL``), and the overlapped machine decoding several
vectors on duplicated stage instances (``VECTOR_OVERLAP``).

Every machine executes its schedule one clock cycle at a time, moving
values through explicitly modeled registers and broadcasting each decided
bit into the partial-sum blocks its enable bits select.  Control flow is
data independent, so a machine can carry a whole batch of frames through
one schedule pass; the per-frame arithmetic is unchanged and the decoded
output of every machine is bit-identical to the reference decoder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import graph
from .codespec import CodeSpec, bit_reverse_permutation
from .kernels import Kernel
from .schedule import (ArchKind, ArchitectureConfig, Schedule, build_schedule,
                       stage_instance_name)


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


def _sites_by_phase(n: int) -> list:
    """Per-phase stage-grouped partial-sum site indices to latch."""
    m = n.bit_length() - 1
    out = []
    for i in range(n):
        by_stage: dict = {}
        for l, q in graph.enabled_sites(i, m):
            by_stage.setdefault(l, []).append(q)
        out.append([(l, np.array(sorted(qs))) for l, qs in sorted(by_stage.items())])
    return out


def _contiguous_range(active: tuple) -> tuple[int, int]:
    q0, q1 = active[0], active[-1] + 1
    if list(active) != list(range(q0, q1)):
        raise SimulationError(f"non-contiguous activation {active}")
    return q0, q1


def _run_tree_like(sched: Schedule, cfg: ArchitectureConfig, channel_values: list,
                   spec: CodeSpec, kernel: Kernel) -> tuple[list, list, Counter]:
    """Execute a tree/line/semi/overlap schedule over per-slot register sets.

    ``channel_values`` holds one (batch, n) array per vector slot.  Tree
    position (l, q) owns register R[l][q] and a partial-sum block; PE
    (l, q) reads R[l+1][2q] and R[l+1][2q+1] (the channel registers at the
    outermost stage) and writes R[l][q].
    """
    n, m = cfg.n, cfg.m
    batch = channel_values[0].shape[0]
    slots = sched.vectors
    regs = [[np.zeros((batch, 1 << l)) for l in range(m)] for _ in range(slots)]
    psums = [[np.zeros((batch, 1 << l), dtype=np.uint8) for l in range(m)]
             for _ in range(slots)]
    decided = [np.zeros((batch, n), dtype=np.uint8) for _ in range(slots)]
    sites = _sites_by_phase(n)

    occupancy = [[] for _ in range(sched.total_cycles)]
    pe_counts: Counter = Counter()
    instance_owner: dict = {}

    for e in sched.sorted_entries():
        key = (e.cycle, e.stage, e.copy)
        if instance_owner.setdefault(key, e.vector) != e.vector:
            raise SimulationError(
                f"CC{e.cycle}: {e.stage_instance} double-booked"
            )
        l, v = e.stage, e.vector
        q0, q1 = _contiguous_range(e.active)
        src = regs[v][l + 1] if l + 1 < m else channel_values[v]
        a = src[:, 2 * q0: 2 * q1: 2]
        b = src[:, 2 * q0 + 1: 2 * q1: 2]
        if e.function == "g":
            us = psums[v][l][:, q0:q1].copy()
            psums[v][l][:, q0:q1] = 0
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
            for sl, qs in sites[i]:
                psums[v][sl][:, qs] ^= bits[:, None]

        occupancy[e.cycle - 1].append((e.stage_instance, e.vector_tag, e.active))
        for q in e.active:
            if cfg.kind is ArchKind.LINE:
                name = f"P_{q}"
            elif cfg.kind is ArchKind.SEMI_PARALLEL:
                name = f"P_{q - q0}"
            elif cfg.kind is ArchKind.PIPELINED_TREE:
                name = f"P_{l},{q}"
            else:
                name = f"{stage_instance_name(l, e.copy)}:P_{q}"
            pe_counts[name] += batch

    return decided, occupancy, pe_counts


def _run_fft_like(sched: Schedule, cfg: ArchitectureConfig, values: np.ndarray,
                  spec: CodeSpec, kernel: Kernel) -> tuple[np.ndarray, list, Counter]:
    """Execute the unrolled-graph machine: one register per graph node.

    Each node's value is computed exactly once per vector and reread from
    its register by later cycles.  Partial sums are kept per stage as the
    already-decided butterfly wires.
    """
    n, m = cfg.n, cfg.m
    batch = values.shape[0]
    perm = bit_reverse_permutation(m)
    node = [np.zeros((batch, n)) for _ in range(m)]
    node.append(values)
    psum = [np.zeros((batch, n), dtype=np.uint8) for _ in range(m)]
    decided = np.zeros((batch, n), dtype=np.uint8)

    occupancy = [[] for _ in range(sched.total_cycles)]
    pe_counts: Counter = Counter()

    for e in sched.sorted_entries():
        l, i = e.stage, e.phase
        top, bot, out = graph.butterfly_slices(i, l, m)
        a = node[l + 1][:, top]
        b = node[l + 1][:, bot]
        if e.function == "g":
            node[l][:, out] = kernel.g(a, b, psum[l][:, top])
        else:
            node[l][:, out] = kernel.f(a, b)

        if l == 0:
            row = perm[i]
            if spec.frozen_mask[i]:
                bits = np.zeros(batch, dtype=np.uint8)
            else:
                bits = kernel.hard_decision(node[0][:, row])
            decided[:, i] = bits
            psum[0][:, row] = bits
            for lev in graph.completed_block_levels(i, m):
                tops, bots = graph.psum_block_slices(i, lev, m)
                psum[lev][:, tops] = psum[lev - 1][:, tops] ^ psum[lev - 1][:, bots]
                psum[lev][:, bots] = psum[lev - 1][:, bots]

        occupancy[e.cycle - 1].append((e.stage_instance, e.vector_tag, e.active))
        for row in e.active:
            pe_counts[f"N_{l},{row}"] += batch

    return decided, occupancy, pe_counts


def simulate(cfg: ArchitectureConfig, frames, spec: CodeSpec, kernel: Kernel) -> SimResult:
    """Run one machine over a batch of channel log-ratio frames.

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
    num_frames = frames.shape[0]

    if cfg.kind is ArchKind.VECTOR_OVERLAP:
        return _simulate_overlap(cfg, values, spec, kernel, num_frames)

    sched = build_schedule(cfg)
    if cfg.kind is ArchKind.FFT_LIKE:
        decoded, occupancy, pe_counts = _run_fft_like(sched, cfg, values, spec, kernel)
    else:
        slots, occupancy, pe_counts = _run_tree_like(sched, cfg, [values], spec, kernel)
        decoded = slots[0]
    return SimResult(decoded=decoded, total_cycles=num_frames * sched.total_cycles,
                     period_cycles=sched.total_cycles, occupancy=occupancy,
                     pe_activations=pe_counts, schedule=sched)


def _simulate_overlap(cfg: ArchitectureConfig, values: np.ndarray, spec: CodeSpec,
                      kernel: Kernel, num_frames: int) -> SimResult:
    """Overlapped decoding in groups of P staggered vectors.

    Full groups share one schedule and run batched; a trailing partial
    group runs the same machine with idle slots.  Groups are processed
    back to back, so the run length is the sum of the group schedules.
    """
    p = cfg.overlap_p
    full_groups, rem = divmod(num_frames, p)
    decoded = np.zeros((num_frames, cfg.n), dtype=np.uint8)
    total_cycles = 0
    occupancy: list = []
    pe_counts: Counter = Counter()
    period = None
    sched = None

    if full_groups:
        sched = build_schedule(cfg)
        grouped = values[: full_groups * p].reshape(full_groups, p, cfg.n)
        channel = [np.ascontiguousarray(grouped[:, v, :]) for v in range(p)]
        slots, occupancy, pe_counts = _run_tree_like(sched, cfg, channel, spec, kernel)
        for v in range(p):
            decoded[v: full_groups * p: p] = slots[v]
        total_cycles = full_groups * sched.total_cycles
        period = sched.total_cycles

    if rem:
        tail = build_schedule(cfg, vectors=rem)
        channel = [values[full_groups * p + v][None, :] for v in range(rem)]
        slots, tail_occ, tail_counts = _run_tree_like(tail, cfg, channel, spec, kernel)
        for v in range(rem):
            decoded[full_groups * p + v] = slots[v][0]
        total_cycles += tail.total_cycles
        pe_counts.update(tail_counts)
        if period is None:
            period, occupancy, sched = tail.total_cycles, tail_occ, tail

    return SimResult(decoded=decoded, total_cycles=total_cycles,
                     period_cycles=period, occupancy=occupancy,
                     pe_activations=pe_counts, schedule=sched)
