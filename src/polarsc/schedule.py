"""Clock-by-clock schedules for the decoder architectures.

Every machine replays, per vector, the 2n - 2 f and g steps of the
unpruned decode plan, the SC control sequence the reference decoder runs.
``_step_record`` holds one vector's clocked steps as array columns: stage,
f or g, phase, and the lane each step activates (start, stride, count).
It is built once per step shape (graph rows or tree positions, n, lane
width) from the plan, which is lowered once per ``m``.  A schedule is a
step table: for each vector slot, the cycle of each step and the stage
copy it runs on.  Every view is read from the table and the record:
``entries`` indexes the table's steps in cycle order, the CSV, grids,
occupancy and liveness read through that index and emit the record's
rows as ``(stage, fn, phase, active)`` tuples (``Schedule.steps``), and
the PE counts and the conflict check are array arithmetic over the table
and the record's columns.  One greedy builder fills the table from the
record's stage column: the vector-overlapping machine staggers P vectors
across duplicated stage copies, and the single-vector machines are the
same builder at P = 1.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .codespec import _as_instance, _as_int, _as_length, bit_reverse_permutation
from .reference import _F, _G, _G0, _unpruned_plan


class ArchKind(Enum):
    FFT_LIKE = "fft"
    PIPELINED_TREE = "tree"
    LINE = "line"
    SEMI_PARALLEL = "semi"
    VECTOR_OVERLAP = "overlap"


@dataclass(frozen=True)
class ArchitectureConfig:
    """Which machine to build and with what parallelism.

    ``pe_count`` applies to the semi-parallel machine only: any power of
    two from 1 to n/2.  ``overlap_p`` is the number of simultaneously
    decoded vectors for the overlapping machine, at most n - 1.
    """

    kind: ArchKind
    n: int
    pe_count: int | None = None
    overlap_p: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ArchKind(self.kind))
        object.__setattr__(self, "n", _as_length("n", self.n))
        for name in ("pe_count", "overlap_p"):
            value = getattr(self, name)
            object.__setattr__(self, name, value if value is None else _as_int(name, value))
        if self.kind is ArchKind.SEMI_PARALLEL:
            pe = self.pe_count
            if pe is None or not 1 <= pe <= self.n // 2 or pe & (pe - 1):
                raise ValueError(
                    f"semi-parallel pe_count must be a power of 2 in [1, n/2], got {pe}"
                )
        elif self.pe_count is not None:
            raise ValueError("pe_count only applies to the semi-parallel machine")
        if self.kind is ArchKind.VECTOR_OVERLAP:
            if self.overlap_p is None or not 1 <= self.overlap_p <= self.n - 1:
                raise ValueError(
                    f"overlap_p must satisfy 1 <= P <= n-1, got {self.overlap_p}"
                )
        elif self.overlap_p is not None:
            raise ValueError("overlap_p only applies to the vector-overlap machine")

    @property
    def m(self) -> int:
        return self.n.bit_length() - 1


def stage_duplication_count(l: int, p: int) -> int:
    """Copies of stage l needed to overlap p vectors: ceil((p+1) / 2**(l+1))."""
    l, p = _as_int("l", l), _as_int("p", p)
    if l < 0:
        raise ValueError(f"stage index must be >= 0, got {l}")
    if p < 1:
        raise ValueError(f"parallelism must be >= 1, got {p}")
    return -((p + 1) // -(1 << (l + 1)))


def stage_instance_name(l: int, copy: int) -> str:
    if copy == 0:
        return f"S_{l}"
    if copy == 1:
        return f"S_{l}d"
    return f"S_{l}d{copy}"


@dataclass(frozen=True, eq=False)
class Schedule:
    """One group's step table: every vector slot runs one vector's steps,
    the step record of ``cfg``'s shape (see ``_step_record``), and row ``v``
    of ``cycles`` and ``copies`` holds the cycle and the stage copy of each
    step of slot ``v``.  The rows are read-only, so a schedule shared
    through the simulator's cache cannot be edited.  Every view and
    statistic is read from the table and the record."""

    cfg: ArchitectureConfig
    cycles: np.ndarray
    copies: np.ndarray

    def __post_init__(self):
        shape = (len(self.cycles) if np.ndim(self.cycles) else 0, len(self._record.stage))
        for name in ("cycles", "copies"):
            given = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
                table = given.astype(np.int64)  # a copy the caller cannot edit
            if not shape[0] or table.shape != shape or not np.array_equal(table, given):
                raise ValueError(f"a step table has one row of {shape[1]} steps per "
                                 f"vector slot, in integers; got {name} of shape "
                                 f"{table.shape} and dtype {given.dtype}")
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def _record(self) -> _StepRecord:
        """One vector's clocked steps as columns, ``_step_record``."""
        return _step_record(*_shape(self.cfg))

    @property
    def steps(self) -> tuple:
        """One vector's clocked steps ``(stage, fn, phase, active)``, read
        from the record (see ``_lane_steps``)."""
        return _lane_steps(*_shape(self.cfg))

    @property
    def vectors(self) -> int:
        return len(self.cycles)

    @property
    def total_cycles(self) -> int:
        return int(self.cycles.max())

    @property
    def _stages(self) -> np.ndarray:
        """The stage of each step of the table, in the table's shape."""
        return np.broadcast_to(self._record.stage, self.cycles.shape)

    @cached_property
    def entries(self) -> np.ndarray:
        """One entry per (cycle, stage copy, vector), read-only: the flat table
        index ``v * len(steps) + j`` of slot ``v``'s step ``j``, in cycle order:
        by cycle, then stage from the top, then copy, then table order."""
        order = np.lexsort((self.copies.ravel(), -self._stages.ravel(),
                            self.cycles.ravel()))
        order.flags.writeable = False
        return order

    def _in_cycle_order(self):
        """``(cycle, stage instance, vector tag, step)`` of every entry."""
        steps, cycles, copies = self.steps, self.cycles.tolist(), self.copies.tolist()
        for v, j in (divmod(i, len(steps)) for i in self.entries.tolist()):
            instance = stage_instance_name(steps[j][0], copies[v][j])
            yield cycles[v][j], instance, f"y_{v + 1}", steps[j]

    def occupancy_grid(self) -> dict:
        """(stage_instance, cycle) -> vector tag."""
        return {(inst, cycle): tag for cycle, inst, tag, _ in self._in_cycle_order()}

    def function_grid(self) -> dict:
        """(stage_instance, cycle) -> f/g label."""
        return {(inst, cycle): step[1] for cycle, inst, _, step in self._in_cycle_order()}

    def decision_cycles(self, vector: int = 0) -> dict:
        """phase -> cycle at which slot ``vector``'s bit of that phase is decided."""
        vector = _as_int("vector", vector)
        if not 0 <= vector < self.vectors:
            raise ValueError(f"vector must satisfy 0 <= vector < {self.vectors}, got {vector}")
        decided = self._record.stage == 0
        return dict(zip(self._record.phase[decided].tolist(),
                        self.cycles[vector, decided].tolist()))

    def stall_cycles(self) -> list:
        """Per vector, the cycles between its first and last step in which
        it ran no step (a slot runs one step per cycle)."""
        return (self.cycles[:, -1] - self.cycles[:, 0] + 1 - self.cycles.shape[1]).tolist()

    def occupancy(self) -> list:
        """Per cycle, the (stage instance, vector tag, active indices) it runs."""
        out = [[] for _ in range(self.total_cycles)]
        for cycle, instance, tag, step in self._in_cycle_order():
            out[cycle - 1].append((instance, tag, step[3]))
        return out

    def pe_activations(self) -> Counter:
        """Activations per processing element over one run of the schedule.

        PEs are named ``N_l,row`` (graph node), ``P_l,q`` (tree), ``P_q``
        (line), ``P_{q - q0}`` (semi-parallel lane, q0 the first active
        index) and ``<stage instance>:P_q`` (overlap, e.g. ``S_0d:P_0``), in
        the order in which the slots, taken in turn, first activate them, so
        a shorter group's PEs are the first of the full group's.  The
        table's steps are counted as runs of one (name head, lane) each,
        each run's lane becomes integer PE keys, ``head * n + index``, as
        a ragged ``arange`` of the record's lane columns, one ``np.unique``
        counts the keys, and each name is formatted once.
        """
        kind, n, m, rec = self.cfg.kind, self.cfg.n, self.cfg.m, self._record
        prefix = {ArchKind.FFT_LIKE: "N_{l},", ArchKind.PIPELINED_TREE: "P_{l},",
                  ArchKind.VECTOR_OVERLAP: "{instance}:P_"}.get(kind, "P_")
        stages = np.tile(rec.stage, self.vectors)  # of the table's flat steps
        copy_ids = np.zeros(1, np.int64)
        if kind is ArchKind.VECTOR_OVERLAP:  # a name's head is its stage instance
            copy_ids, copy_of = np.unique(self.copies, return_inverse=True)
            heads = copy_of.ravel() * m + stages
        elif kind in (ArchKind.LINE, ArchKind.SEMI_PARALLEL):  # one row of PEs
            heads = np.zeros_like(stages)
        else:  # its stage
            heads = stages
        # the table's (head, lane) runs, in table order of first appearance
        lanes = np.tile(rec.stage * n + rec.start, self.vectors)
        _, first, repeats = np.unique(heads * (m * n) + lanes, return_index=True,
                                      return_counts=True)
        order = np.argsort(first)
        first, repeats = first[order], repeats[order]
        step = first % len(rec.stage)
        count = rec.count[step]
        # each run's PEs in lane order, keyed head * n + index
        run = np.repeat(np.arange(len(first)), count)
        lane = np.arange(len(run)) - np.repeat(np.cumsum(count) - count, count)
        index = lane if kind is ArchKind.SEMI_PARALLEL else (
            rec.start[step][run] + lane * rec.stride[step][run])
        pes, at, pe_of = np.unique(heads[first][run] * n + index, return_index=True,
                                   return_inverse=True)
        counts = np.bincount(pe_of.ravel(), repeats[run]).astype(np.int64)
        order = np.argsort(at)  # the PEs in order of first activation
        pe_heads, pe_index = divmod(pes[order], n)
        head_names = np.array([prefix.format(l=l, instance=stage_instance_name(l, copy))
                               for copy in copy_ids.tolist() for l in range(m)], object)
        names = head_names[pe_heads] + np.array([str(q) for q in range(n)], object)[pe_index]
        activations = Counter()  # filled by dict.update: Counter.update would count the pairs
        dict.update(activations, zip(names.tolist(), counts[order].tolist()))
        return activations

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["cycle", "stage_instance", "function", "vector_tag",
                         "active_indices"])
        for cycle, instance, tag, (_, fn, _, active) in self._in_cycle_order():
            writer.writerow([cycle, instance, fn, tag, ";".join(map(str, active))])
        return buf.getvalue()


class _StepRecord(NamedTuple):
    """One vector's clocked steps as read-only int64 columns, one row per
    step, in order: the step's ``stage``, ``g`` (1 for a g step, 0 for an
    f), its ``phase``, and its lane, the ``count`` positions ``start``,
    ``start + stride``, ... that it activates."""

    stage: np.ndarray
    g: np.ndarray
    phase: np.ndarray
    start: np.ndarray
    stride: np.ndarray
    count: np.ndarray


def _shape(cfg: ArchitectureConfig) -> tuple:
    """The key of ``cfg``'s steps: graph rows or tree positions, ``n``, and
    the lane width, the PE budget of the semi-parallel machine and ``n``
    elsewhere."""
    return cfg.kind is ArchKind.FFT_LIKE, cfg.n, cfg.pe_count or cfg.n


@lru_cache(maxsize=32)
def _plan_steps(m: int) -> tuple:
    """The f and g instructions of the unpruned plan of length ``2**m``,
    ``reference._unpruned_plan``, in its order (see ``reference._lower``),
    as read-only ``(stage, g, phase)`` columns: the SC control sequence the
    reference decoder runs.  A ``_G0``, the g after a rate-0 sibling, which
    only a pruned plan holds, is a g step too.  The plan is lowered once
    per ``m`` and dropped once these columns are built, so schedules keep
    no plan of about ``16n`` ints alive."""
    ops = np.array(_unpruned_plan(m), np.int64).reshape(-1, 4)
    ops = ops[np.isin(ops[:, 0], (_F, _G, _G0))]
    columns = ops[:, 1], (ops[:, 0] != _F).astype(np.int64), ops[:, 2]
    for column in columns:
        column.flags.writeable = False
    return columns


@lru_cache(maxsize=32)
def _step_record(fft: bool, n: int, width: int) -> _StepRecord:
    """One vector's clocked steps, ``_plan_steps`` with their lanes,
    computed once and shared by every schedule with the same arguments.

    The semi-parallel machine splits a step wider than its PE budget into
    ``width``-wide lanes (``width`` is ``n`` elsewhere).  The lanes name
    tree positions, except in the unrolled graph (``fft``), whose steps
    name graph rows: stage ``l`` pairs rows at stride ``2**(m - 1 - l)``,
    its row ``fix + z * 2**(m - l)`` (``fix`` below ``2**(m - l)``) is
    tree position ``z = row >> (m - l)``, and phase ``i`` activates the
    rows with ``fix = bit_reverse(i >> l, m - l)``, which is
    ``perm[i >> l] >> l`` for the ``m``-bit permutation.
    """
    m = n.bit_length() - 1
    stage, g, phase = _plan_steps(m)
    if fft:
        start = bit_reverse_permutation(m)[phase >> stage] >> stage
        stride, count = n >> stage, 1 << stage
    else:
        lanes = np.maximum((1 << stage) // width, 1)
        stage, g, phase = (np.repeat(column, lanes) for column in (stage, g, phase))
        start = (np.arange(len(stage)) - np.repeat(np.cumsum(lanes) - lanes, lanes)) * width
        stride, count = np.ones_like(stage), np.minimum(1 << stage, width)
    record = _StepRecord(stage, g, phase, start, stride, count)
    for column in record:
        column.flags.writeable = False
    return record


@lru_cache(maxsize=32)
def _lane_steps(fft: bool, n: int, width: int) -> tuple:
    """``_step_record(fft, n, width)`` as one vector's clocked steps
    ``(stage, fn, phase, active)``, the form the CSV, grids, occupancy and
    liveness emit, built on first use."""
    rows = tuple(range(n))  # the lane slices below share these int objects
    return tuple((l, "fg"[g], phase, rows[start:start + count * stride:stride])
                 for l, g, phase, start, stride, count
                 in zip(*(column.tolist() for column in _step_record(fft, n, width))))


def build_schedule(cfg: ArchitectureConfig, vectors: int | None = None) -> Schedule:
    """Schedule one group of ``vectors`` vectors (default P = ``cfg.overlap_p or 1``).

    Each cycle admits at most one new vector.  Vectors claim the
    ``stage_duplication_count(l, P)`` copies of their next step's stage
    oldest first, and a vector that finds every copy taken stalls a cycle.
    So a younger vector never delays an older one, and the greedy fills
    the table one slot at a time, oldest first: each slot tries its first
    step from the cycle after the previous slot's first step, and each
    step against the copies the older slots claimed.
    """
    p = _as_instance("cfg", cfg, ArchitectureConfig).overlap_p or 1
    vectors = p if vectors is None else _as_int("vectors", vectors)
    if not 1 <= vectors <= p:
        raise ValueError(f"vectors must satisfy 1 <= v <= P = {p}, got {vectors}")
    stages, m = _step_record(*_shape(cfg)).stage.tolist(), cfg.m
    have = [stage_duplication_count(l, p) for l in range(m)]

    claimed: dict = {}  # cycle * m + stage -> copies of it claimed by older slots
    cycles, copies = [], []
    first = 0  # the previous slot's first cycle
    for _ in range(vectors):
        row, taken, cycle = [], [], first
        for l in stages:
            cycle += 1
            while (k := claimed.get(cycle * m + l, 0)) == have[l]:
                cycle += 1  # every copy is taken: stall
            claimed[cycle * m + l] = k + 1
            row.append(cycle)
            taken.append(k)
        cycles.append(row)
        copies.append(taken)
        first = row[0]
    return Schedule(cfg=cfg, cycles=np.array(cycles, np.int64),
                    copies=np.array(copies, np.int64))


def check_no_conflict(s: Schedule) -> list:
    """Validate a schedule against its own machine, ``s.cfg``.

    Every step must run on one of the ``stage_duplication_count(l, P)``
    copies of its stage, no stage copy may run two steps in one cycle, the
    line and semi-parallel machines must keep within their PE budget in
    every cycle, and the cycles of each vector slot's steps must strictly
    increase from cycle 1.  Returns a list of violation strings; empty
    means the schedule is clean.
    """
    cfg, width = _as_instance("s", s, Schedule).cfg, s.cycles.shape[1]
    have = np.array([stage_duplication_count(l, cfg.overlap_p or 1) for l in range(cfg.m)])
    cycles, copies, stages = s.cycles.ravel(), s.copies.ravel(), s._stages.ravel()

    def at(i):  # the cycle and stage copy of the table's flat step i
        return f"CC{cycles[i]}: {stage_instance_name(stages[i], copies[i])}"
    violations = [f"{at(i)} is not a stage copy of the machine"
                  for i in np.flatnonzero((copies < 0) | (copies >= have[stages]))]
    # one integer key per (cycle, stage, copy), built from the ranks of the
    # cycles and copies so that no table overflows it; the first step of the
    # table to claim a key owns it
    busy, cycle_of = np.unique(cycles, return_inverse=True)
    copy_ids, copy_of = np.unique(copies, return_inverse=True)
    key = (cycle_of.ravel() * cfg.m + stages) * len(copy_ids) + copy_of.ravel()
    _, owner, claim = np.unique(key, return_index=True, return_inverse=True)
    owner = owner[claim.ravel()]
    violations += [f"{at(i)} claimed by y_{owner[i] // width + 1} and y_{i // width + 1}"
                   for i in np.flatnonzero(owner != np.arange(len(owner)))]
    if cfg.kind in (ArchKind.LINE, ArchKind.SEMI_PARALLEL):
        budget = cfg.n // 2 if cfg.kind is ArchKind.LINE else cfg.pe_count
        used = np.bincount(cycle_of.ravel(), np.tile(s._record.count, s.vectors))
        violations += [f"CC{cycle}: {int(k)} PEs used, budget {budget}"
                       for cycle, k in zip(busy.tolist(), used.tolist()) if k > budget]
    unordered = (np.diff(s.cycles, prepend=0) < 1).any(axis=1)
    violations += [f"vector slot {v} runs its steps out of cycle order"
                   for v in np.flatnonzero(unordered)]
    return violations


@dataclass(frozen=True)
class ValueRecord:
    """Lifetime of one produced value vector (or the channel load)."""

    stage: int  # m = channel registers, 0 = decision values
    index: int  # activation number within the stage
    write_cycle: int
    read_cycles: tuple
    overwrite_cycle: int | None
    decision_phase: int | None = None
    bit_fanout: int | None = None  # partial-sum sites latching the decided bit


@dataclass
class LivenessReport:
    records: list
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems


def enabled_sites(i: int, m: int) -> list[tuple[int, int]]:
    """Tree positions (l, q) whose g partial sum decision bit i feeds: the
    partial-sum sites of a hardware machine that must latch bit i.

    Bit i reaches the stage-l sites only when bit l of i is clear; the site
    indices are the sub-masks of the reversed low l bits of i.
    """
    perm = bit_reverse_permutation(m)
    sites = []
    for l in range(m):
        if (i >> l) & 1:
            continue
        rev = int(perm[i & ((1 << l) - 1)]) >> (m - l)  # the low l bits, reversed
        q = rev
        while True:
            sites.append((l, q))
            if q == 0:
                break
            q = (q - 1) & rev
    return sites


def register_liveness(s: Schedule) -> LivenessReport:
    """Check that every intermediate value is consumed exactly twice.

    Valid for the tree and line schedules, whose registers are reused
    across stage activations.  Values produced at stages >= 1 (and the
    channel registers) must each be read exactly twice, with both reads
    landing before the producing registers are overwritten.  Stage-0
    outputs are decision values: each is read once by the decision unit
    and its decided bit then fans out to the partial-sum sites, except the
    final phase whose bit feeds nothing downstream.
    """
    if _as_instance("s", s, Schedule).cfg.kind not in (ArchKind.PIPELINED_TREE, ArchKind.LINE):
        raise ValueError("liveness analysis applies to tree/line schedules")
    n, m = s.cfg.n, s.cfg.m
    acts: list = [[] for _ in range(m)]  # per stage, (cycle, phase) in cycle order
    for cycle, _, _, (l, _, phase, _) in s._in_cycle_order():
        acts[l].append((cycle, phase))

    records = []
    problems = []
    for l in range(m):
        for k, (cycle, phase) in enumerate(acts[l]):
            if l == 0:
                records.append(ValueRecord(
                    stage=0, index=k, write_cycle=cycle, read_cycles=(cycle,),
                    overwrite_cycle=None, decision_phase=phase,
                    bit_fanout=len(enabled_sites(phase, m)),
                ))
                continue
            reads = tuple(c for c, _ in acts[l - 1][2 * k: 2 * k + 2])
            over = acts[l][k + 1][0] if k + 1 < len(acts[l]) else None
            records.append(ValueRecord(stage=l, index=k, write_cycle=cycle,
                                       read_cycles=reads, overwrite_cycle=over))

    channel_reads = tuple(c for c, _ in acts[m - 1])
    records.append(ValueRecord(stage=m, index=0, write_cycle=0,
                               read_cycles=channel_reads, overwrite_cycle=None))

    for r in records:
        if r.stage == 0:
            if r.decision_phase != n - 1 and r.bit_fanout < 1:
                problems.append(f"decision bit {r.decision_phase} feeds no site")
            if r.decision_phase == n - 1 and r.bit_fanout != 0:
                problems.append("final decision bit should feed no site")
            continue
        if len(r.read_cycles) != 2:
            problems.append(
                f"stage {r.stage} value #{r.index} read "
                f"{len(r.read_cycles)} times, expected 2"
            )
            continue
        if any(c <= r.write_cycle for c in r.read_cycles):
            problems.append(f"stage {r.stage} value #{r.index} read before written")
        if r.overwrite_cycle is not None and max(r.read_cycles) >= r.overwrite_cycle:
            problems.append(
                f"stage {r.stage} value #{r.index} overwritten at "
                f"CC{r.overwrite_cycle} before its last read"
            )
    return LivenessReport(records=records, problems=problems)
