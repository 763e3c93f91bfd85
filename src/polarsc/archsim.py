"""Cycle-accurate simulation of the decoder architectures.

Five machines are modeled: the fully unrolled graph with one node
processor per graph node (``FFT_LIKE``), the resource-shared tree of
``n - 1`` processing elements (``PIPELINED_TREE``), the line of ``n / 2``
PEs with tree-shaped registers (``LINE``), the line with a reduced PE
budget of any power of two (``SEMI_PARALLEL``), and the overlapped machine
decoding several vectors on duplicated stage instances
(``VECTOR_OVERLAP``).

The machines run one data-independent SC control sequence on one tree of
``2n - 1`` registers: every vector slot of a schedule's step table runs
one vector's steps, ``schedule._step_record``, the f and g steps of the
unpruned decode plan that the reference decoder lowers
(``reference._lower``), held as one array record per step shape.
The machines differ only in the cycle and stage copy at which each step
runs, so their datapath is the reference decoder's loop,
``reference._sc_decode``.  What ``schedule.check_no_conflict`` checks,
against the schedule's own config, is the table's resource use and that
each slot's steps run in strictly increasing cycles.  The unrolled
graph's steps name graph rows, its stage-``l`` row ``r`` being tree
position ``r >> (m - l)``; its one register per graph node is a property
of its schedule (every node written once, after its inputs), checked in
the tests.  Lanes of one level are independent, so how a step's
positions are split among lanes changes no bit; slots share no registers,
so neither does the interleaving of slots.

Control never depends on the frames, so a schedule is built and checked
once per ``(config, group size)`` and cached, with its PE names and one
run's counts as an int array, for as long as its config lives.  The
builder runs over the record's stage column, and the check and the PE
count are array arithmetic over the table and the record's lane columns.
``simulate`` runs the SC loop once over all its frames and adds up the
counts of the groups the frames fill, naming the sums once.

The loop skips dead activations, those that feed only frozen phases, runs
the g after a rate-0 sibling without reading its all-zero partial sums,
and with a log-domain kernel it decides a rate-1 subtree by hard decision
and skips the rest of its activations, in every frame whose values at the
subtree's level lie above the kernel's floor (see "Rate-1 floors" in
``Kernel``); the other frames go one SC step down the subtree, whose
children are rate-1 nodes again.  Skipped activations still take their
cycles and PEs: cycle, PE and occupancy figures come from the schedule
alone.  The decoded output of every machine is bit-identical
to the reference decoder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from weakref import WeakKeyDictionary

import numpy as np

from .codespec import CodeSpec, _as_instance, _as_spec
from .kernels import Kernel
from .reference import _kernel_frames, _sc_decode
from .schedule import ArchitectureConfig, Schedule, build_schedule, check_no_conflict


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


# cfg -> {vectors: (schedule, PE names, one run's activations per name)}.  Weak
# keys free a config's schedules with the config, without waiting for the
# cycle collector to reclaim a dropped module.
_programs: WeakKeyDictionary = WeakKeyDictionary()


def _program(cfg: ArchitectureConfig, vectors: int | None) -> tuple:
    """``build_schedule(cfg, vectors)``, its PE names and one run's PE
    activation counts as an int array, built and checked on first use and
    kept for as long as ``cfg`` lives: the schedule holds a copy of ``cfg``,
    as holding the key itself would keep the key alive.  Raises
    ``SimulationError`` if ``check_no_conflict`` finds a violation."""
    programs = _programs.setdefault(cfg, {})
    if vectors not in programs:
        schedule = build_schedule(replace(cfg), vectors)
        violations = check_no_conflict(schedule)
        if violations:
            raise SimulationError("; ".join(violations))
        pes = schedule.pe_activations()
        programs[vectors] = schedule, tuple(pes), np.fromiter(pes.values(), np.int64)
    return programs[vectors]


def simulate(cfg: ArchitectureConfig, frames, spec: CodeSpec, kernel: Kernel) -> SimResult:
    """Run one machine over a batch of channel log-ratio frames.

    Frames run in groups of ``P = cfg.overlap_p or 1``: all full groups,
    then the leftover frames as one shorter group.  Groups run back to back,
    so the run length is the sum of the group schedules.  Only the group
    sizes that run are built (see ``_program``).  Cycle and PE counts add
    up the schedules' one-run figures, once per group.  Every slot of every
    group runs the SC control sequence, so the reference loop runs once over
    all the frames, skipping the activations it prunes.  The period is the
    first group's schedule (the full group's when there are no frames).

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
        Arithmetic variant for the processing elements, or its value string.

    Returns
    -------
    SimResult
        Decoded blocks (bit-identical to the reference decoder), cycle
        counts, PE activation counts, and the schedule of one period, from
        which ``period_cycles`` and the ``occupancy`` trace are read.  The
        schedule is immutable and shared with the cache.
    """
    cfg = _as_instance("cfg", cfg, ArchitectureConfig)
    spec, kernel = _as_spec(spec), Kernel(kernel)
    if cfg.n != spec.n:
        raise ValueError(f"config length {cfg.n} != code length {spec.n}")
    values = _kernel_frames(frames, spec, kernel)

    p = cfg.overlap_p or 1
    groups, tail = divmod(values.shape[1], p)
    runs = [(count, *_program(cfg, slots))
            for count, slots in ((groups, p), (1, tail)) if count * slots]
    total_cycles = sum(count * sched.total_cycles for count, sched, _, _ in runs)
    names = runs[0][2] if runs else ()
    pe_counts = np.zeros(len(names), np.int64)
    for count, _, _, counts in runs:  # the tail group's PEs are the first of the full's
        pe_counts[:len(counts)] += count * counts
    pe_activations = Counter()
    dict.update(pe_activations, zip(names, pe_counts.tolist()))  # no intermediate dict
    period = runs[0][1] if runs else _program(cfg, None)[0]
    decoded, _ = _sc_decode(values, spec, kernel)
    return SimResult(decoded=decoded.T, total_cycles=total_cycles,
                     pe_activations=pe_activations, schedule=period)
