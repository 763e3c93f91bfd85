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
tests.

Control never depends on the frames, so a schedule is built, checked and
lowered once per ``(config, group size)`` into a program: one integer
record per activation in cycle order, the bank sites each decided bit
latches into, and one run's PE activation counts.  Programs are cached
for as long as their config lives.  ``simulate`` runs the cached
programs, one pass carrying a whole batch of frames, and scales the
counts by the batch; a hand-built schedule given to ``_run_tree_like`` is
checked and compiled anew, uncached.  The decoded output of every machine
is bit-identical to the reference decoder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from weakref import WeakKeyDictionary, WeakValueDictionary

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


# m -> per-bit site arrays, shared by the live programs of one code length
# and freed with the last of them, so a finished simulation leaves no
# long-lived arrays behind.
_sites: WeakValueDictionary = WeakValueDictionary()


def _enable_sites(m: int) -> np.ndarray:
    """Object array holding, per decided bit i, the read-only int array of
    site indices it latches into (row i of ``graph.psum_enable(m)``)."""
    sites = _sites.get(m)
    if sites is None:
        sites = _sites[m] = np.empty(1 << m, dtype=object)
        for i, row in enumerate(graph.psum_enable(m)):
            sites[i] = np.flatnonzero(row)
            sites[i].flags.writeable = False
        sites.flags.writeable = False
    return sites


@dataclass(frozen=True, eq=False)
class _Program:
    """A schedule lowered for the executor.

    ``ops`` is an int32 array with one row ``(stage, slot, q0, q1, is_g,
    site0, site1, phase)`` per entry in cycle order: the entry's tree
    positions [q0, q1) and, for g, the partial-sum sites [site0, site1) it
    reads.  ``pe_counts`` is one run's ``Schedule.pe_activations``;
    holding ``enable`` keeps the shared site arrays alive with the program.
    """

    schedule: Schedule
    ops: np.ndarray
    pe_counts: Counter
    enable: np.ndarray


def _compile(sched: Schedule, cfg: ArchitectureConfig) -> _Program:
    """Check a schedule against ``cfg`` and lower it to a ``_Program``."""
    violations = check_no_conflict(sched, cfg)
    if violations:
        raise SimulationError("; ".join(violations))
    ops = []
    for e in sched.sorted_entries():
        q0, q1 = _tree_range(sched, e)
        ops.append((e.stage, e.vector, q0, q1, e.function == "g",
                    graph.site_id(e.stage, q0), graph.site_id(e.stage, q1), e.phase))
    ops = np.array(ops, dtype=np.int32)
    ops.flags.writeable = False
    return _Program(schedule=sched, ops=ops, pe_counts=sched.pe_activations(),
                    enable=_enable_sites(cfg.m))


# cfg -> {vectors: _Program}.  Weak keys free a config's programs with the
# config, without waiting for the cycle collector to reclaim a dropped module.
_programs: WeakKeyDictionary = WeakKeyDictionary()


def _program(cfg: ArchitectureConfig, vectors: int | None) -> _Program:
    """The compiled program of ``build_schedule(cfg, vectors)``, compiled on
    first use and kept for as long as ``cfg`` lives."""
    programs = _programs.setdefault(cfg, {})
    if vectors not in programs:
        programs[vectors] = _compile(build_schedule(cfg, vectors), cfg)
    return programs[vectors]


def _execute(prog: _Program, channel: list, spec: CodeSpec, kernel: Kernel) -> list:
    """Run a program over per-slot tree register sets.

    ``channel`` holds one (batch, n) array per vector slot; the decided bits
    come back the same way.  Tree position (l, q) owns register R[l][q] and
    partial-sum site ``graph.site_id(l, q)``; PE (l, q) reads R[l+1][2q] and
    R[l+1][2q+1] (level m holds the channel values) and writes R[l][q].
    Registers, sites and decisions are laid out ``(position, batch)``, as in
    the reference decoder.  A frozen phase decides 0, which latches nothing,
    so it is skipped.
    """
    n, m = spec.n, spec.m
    batch = channel[0].shape[0]
    regs = [[np.zeros((1 << l, batch)) for l in range(m)] + [np.ascontiguousarray(c.T)]
            for c in channel]
    psum = [np.zeros((n - 1, batch), dtype=np.uint8) for _ in channel]
    decided = [np.zeros((n, batch), dtype=np.uint8) for _ in channel]
    frozen = spec.frozen_mask.tolist()
    enable = prog.enable
    f, g, decide = kernel.f, kernel.g, kernel.hard_decision

    for l, v, q0, q1, is_g, s0, s1, phase in prog.ops.tolist():
        src = regs[v][l + 1]
        a = src[2 * q0: 2 * q1: 2]
        b = src[2 * q0 + 1: 2 * q1: 2]
        if is_g:
            sites = psum[v][s0:s1]
            out = g(a, b, sites)  # a new array: the sites can clear after it
            sites[:] = 0
        else:
            out = f(a, b)
        regs[v][l][q0:q1] = out
        if l == 0 and not frozen[phase]:
            bits = decide(out[0])
            decided[v][phase] = bits
            psum[v][enable[phase]] ^= bits

    return [d.T for d in decided]


def _run_tree_like(sched: Schedule, cfg: ArchitectureConfig, channel: list,
                   spec: CodeSpec, kernel: Kernel) -> list:
    """Check, compile (uncached) and execute a schedule, for example a
    hand-built one; ``simulate`` runs cached programs instead."""
    return _execute(_compile(sched, cfg), channel, spec, kernel)


def simulate(cfg: ArchitectureConfig, frames, spec: CodeSpec, kernel: Kernel) -> SimResult:
    """Run one machine over a batch of channel log-ratio frames.

    Frames run in groups of ``P = cfg.overlap_p or 1``, all full groups
    batched through one schedule pass and the leftover frames as one
    shorter group; groups run back to back, so the run length is the sum
    of the group schedules.  Each group size's schedule is built, checked
    and compiled into a program on first use and cached for as long as
    ``cfg`` lives, so later calls with the same config reuse it and scale
    its one-run PE counts by the group count; only the programs that run
    are compiled.  The period is the first group's schedule (the full
    group's when there are no frames).

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
        which ``period_cycles`` and the ``occupancy`` trace are read.  The
        schedule is immutable and shared with the cached program.
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
        prog = _program(cfg, slots)
        run = slice(start, start + count * slots)
        grouped = values[run].reshape(count, slots, cfg.n)
        bits = _execute(prog, [grouped[:, s] for s in range(slots)], spec, kernel)
        decoded[run] = np.stack(bits, axis=1).reshape(-1, cfg.n)
        total_cycles += count * prog.schedule.total_cycles
        pe_counts.update({pe: c * count for pe, c in prog.pe_counts.items()})
        period = period or prog.schedule
    return SimResult(decoded=decoded, total_cycles=total_cycles,
                     pe_activations=pe_counts,
                     schedule=period or _program(cfg, None).schedule)
