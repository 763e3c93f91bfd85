"""Cycle-accurate simulation of the decoder architectures.

Five machines are modeled: the fully unrolled graph with one node
processor per graph node (``FFT_LIKE``), the resource-shared tree of
``n - 1`` processing elements (``PIPELINED_TREE``), the line of ``n / 2``
PEs with tree-shaped registers (``LINE``), the line with a reduced PE
budget of any power of two (``SEMI_PARALLEL``), and the overlapped machine
decoding several vectors on duplicated stage instances
(``VECTOR_OVERLAP``).

The machines run the same data-independent activation sequence and differ
only in how their schedules map it onto hardware, so their datapath is the
reference decoder's loop, ``reference._sc_decode``, on the tree register
file.  A schedule entry activates the natural tree positions ``[q0, q1)``
of its stage; the loop stores position ``q`` of level ``l`` at
``bit_reverse(q, l)``, so an aligned lane of power-of-two width ``w``
becomes the positions ``bit_reverse(q0, l)::2**l // w``.  The unrolled
graph's one register per graph node is a property of its schedule (every
node written once, after its inputs), checked in the tests.

Control never depends on the frames, so a schedule is built, checked and
lowered once per ``(config, group size)`` into a program: the loop's rows
one vector slot replays, in cycle order, and one run's PE activation
counts.  Slots share no registers, so only the order within a slot decides
the bits, and every slot of a schedule must replay the same rows.
Programs are cached for as long as their config lives.  ``simulate`` runs
one program's rows once over all its frames, whatever the group size, and
takes cycles and PE counts from the programs of the groups the frames
fill; a hand-built schedule given to ``_run_tree_like`` is checked and
compiled anew, uncached.

The loop skips dead activations, those that feed only frozen phases, and
with the min-sum kernel it decides a tie-free rate-1 subtree by hard
decision and skips the rest of its activations.  Skipped activations
still take their cycles and PEs: cycle, PE and occupancy figures come from
the schedule alone.  The decoded output of every machine is bit-identical
to the reference decoder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from . import graph
from .codespec import CodeSpec
from .kernels import Kernel
from .reference import _kernel_frames, _sc_decode
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


def _lane(sched: Schedule, e) -> tuple[int, int]:
    """The ``(start, stride)`` of the loop positions an entry activates.

    Unrolled-graph entries name graph rows; the stage-l row r is tree
    position ``r >> (m - l)``.  The other machines name positions directly.
    The positions must form an aligned lane ``[q0, q0 + w)``, ``w`` a power
    of two dividing ``q0``; only the ends and the width are checked.
    """
    shift = sched.m - e.stage if sched.kind is ArchKind.FFT_LIKE else 0
    q0, w = e.active[0] >> shift, len(e.active)
    if w & (w - 1) or q0 % w or (e.active[-1] >> shift) != q0 + w - 1:
        raise SimulationError(f"activation {e.active} is not an aligned lane")
    return graph.bit_reverse(q0, e.stage), (1 << e.stage) // w


@dataclass(frozen=True, eq=False)
class _Program:
    """A schedule lowered for ``reference._sc_decode``.

    ``ops`` holds one row ``(stage, is_g, phase, start, stride)`` per step of
    one vector slot, in cycle order, as a tuple of tuples like
    ``graph.full_width_ops``.  Every slot of ``schedule`` replays these
    rows.  ``pe_counts`` is one run's ``Schedule.pe_activations``.
    """

    schedule: Schedule
    ops: tuple[tuple[int, bool, int, int, int], ...]
    pe_counts: Counter


def _compile(sched: Schedule, cfg: ArchitectureConfig) -> _Program:
    """Check a schedule against ``cfg`` and lower it to a ``_Program``.

    Raises ``SimulationError`` on a resource conflict, an activation that
    is not an aligned lane, or slots that replay different op lists.
    """
    violations = check_no_conflict(sched, cfg)
    if violations:
        raise SimulationError("; ".join(violations))
    slots: dict = {v: [] for v in range(sched.vectors)}
    for e in sched.sorted_entries():
        slots.setdefault(e.vector, []).append(
            (e.stage, e.function == "g", e.phase, *_lane(sched, e)))
    first, *rest = slots.values()
    if any(ops != first for ops in rest):
        raise SimulationError("vector slots replay different op lists")
    return _Program(schedule=sched, ops=tuple(first), pe_counts=sched.pe_activations())


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


def _run_tree_like(sched: Schedule, cfg: ArchitectureConfig, channel: np.ndarray,
                   spec: CodeSpec, kernel: Kernel) -> np.ndarray:
    """Check, compile (uncached) and run a schedule, for example a
    hand-built one, over a (batch, n) array of kernel-domain values;
    ``simulate`` runs cached programs instead."""
    return _sc_decode(channel, spec, kernel, _compile(sched, cfg).ops)[0]


def simulate(cfg: ArchitectureConfig, frames, spec: CodeSpec, kernel: Kernel) -> SimResult:
    """Run one machine over a batch of channel log-ratio frames.

    Frames run in groups of ``P = cfg.overlap_p or 1``: all full groups,
    then the leftover frames as one shorter group.  Groups run back to back,
    so the run length is the sum of the group schedules.  Each group size's
    schedule is built, checked and compiled into a program on first use and
    cached for as long as ``cfg`` lives; only the programs of the groups
    that run are compiled.  Cycle and PE counts add up the programs'
    one-run figures, once per group.  Every slot of every group replays the
    same op list, so the reference loop runs that list once over all the
    frames, skipping the activations it prunes.  The period is the first
    group's schedule (the full group's when there are no frames).

    Parameters
    ----------
    cfg : ArchitectureConfig
        Machine kind and parallelism.
    frames : array-like, shape (num_frames, n) or (n,)
        Channel log-likelihood ratios; any other shape raises ValueError,
        and ``kernel.from_llr`` rejects NaN/inf and maps them into the
        kernel's domain for the channel registers.
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
    values = _kernel_frames(frames, spec, kernel)

    p = cfg.overlap_p or 1
    groups, tail = divmod(len(values), p)
    runs = [(count, _program(cfg, slots))
            for count, slots in ((groups, p), (1, tail)) if count * slots]
    total_cycles = 0
    pe_counts: Counter = Counter()
    for count, prog in runs:
        total_cycles += count * prog.schedule.total_cycles
        pe_counts.update({pe: c * count for pe, c in prog.pe_counts.items()})
    period = runs[0][1] if runs else _program(cfg, None)
    decoded, _, _ = _sc_decode(values, spec, kernel, period.ops)
    return SimResult(decoded=decoded,
                     total_cycles=total_cycles, pe_activations=pe_counts,
                     schedule=period.schedule)
