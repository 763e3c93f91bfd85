"""Clock-by-clock schedules for the decoder architectures.

Every machine replays, per vector, the 2n - 2 f and g steps of the
unpruned decode plan, the SC control sequence the reference decoder runs;
``_steps`` turns them into one vector's clocked steps.  A schedule is a
step table: for each vector slot, the cycle of each step and the stage
copy it runs on.  Every view is read from that table: ``entries`` indexes
its steps in cycle order, the CSV, grids, occupancy and liveness read
through that index, and the PE counts and the conflict check read the
table directly.  One greedy builder fills it: the vector-overlapping
machine staggers P vectors across duplicated stage copies, and the
single-vector machines are the same builder at P = 1.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .codespec import _as_int, _as_length, bit_reverse_permutation
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
    """One group's step table: every vector slot runs ``steps``, one
    vector's ``_steps(cfg)``, and row ``v`` of ``cycles`` and ``copies``
    holds the cycle and the stage copy of each step of slot ``v``.  The
    rows are read-only, so a schedule shared through the simulator's cache
    cannot be edited.  Every view and statistic is read from the table."""

    cfg: ArchitectureConfig
    cycles: np.ndarray
    copies: np.ndarray

    def __post_init__(self):
        shape = (len(self.cycles) if np.ndim(self.cycles) else 0, len(self.steps))
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
    def steps(self) -> tuple:
        """One vector's clocked steps, ``_steps(cfg)``."""
        return _steps(self.cfg)

    @property
    def vectors(self) -> int:
        return len(self.cycles)

    @property
    def total_cycles(self) -> int:
        return int(self.cycles.max())

    @property
    def _stages(self) -> np.ndarray:
        """The stage of each step of the table, in the table's shape."""
        return np.broadcast_to([l for l, *_ in self.steps], self.cycles.shape)

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
        """phase -> cycle at which that phase's bit is decided."""
        return {phase: cycle for (l, _, phase, _), cycle
                in zip(self.steps, self.cycles[vector].tolist()) if l == 0}

    def stall_cycles(self) -> list:
        """Per vector, the cycles between its first and last step in which
        it ran no step (a slot runs one step per cycle)."""
        return (self.cycles[:, -1] - self.cycles[:, 0] + 1 - len(self.steps)).tolist()

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
        a shorter group's PEs are the first of the full group's.  Runs are
        counted per (stage, copy, lane) and each name is formatted once.
        """
        kind = self.cfg.kind
        prefix = {ArchKind.FFT_LIKE: "N_{l},", ArchKind.PIPELINED_TREE: "P_{l},",
                  ArchKind.VECTOR_OVERLAP: "{instance}:P_"}.get(kind, "P_")
        lanes = [active for *_, active in self.steps] * self.vectors
        runs = Counter(zip(self._stages.ravel().tolist(), self.copies.ravel().tolist(),
                           lanes))  # (stage, copy, lane) -> runs, in table order
        counts: dict = {}  # (name prefix, PE index) -> activations
        for (l, copy, active), k in runs.items():
            head = prefix.format(l=l, instance=stage_instance_name(l, copy))
            offset = active[0] if kind is ArchKind.SEMI_PARALLEL else 0
            for q in active:
                pe = (head, q - offset)
                counts[pe] = counts.get(pe, 0) + k
        return Counter({f"{head}{q}": k for (head, q), k in counts.items()})

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["cycle", "stage_instance", "function", "vector_tag",
                         "active_indices"])
        for cycle, instance, tag, (_, fn, _, active) in self._in_cycle_order():
            writer.writerow([cycle, instance, fn, tag, ";".join(map(str, active))])
        return buf.getvalue()


def _steps(cfg: ArchitectureConfig) -> tuple:
    return _lane_steps(cfg.kind is ArchKind.FFT_LIKE, cfg.n, cfg.pe_count or cfg.n)


@lru_cache(maxsize=32)
def _lane_steps(fft: bool, n: int, width: int) -> tuple:
    """One vector's clocked steps ``(stage, fn, phase, active)``, in order,
    computed once and shared by every schedule with the same arguments.

    The steps are the f and g instructions of the unpruned decode plan,
    ``reference._unpruned_plan``, in its order (see ``reference._lower``),
    so a machine runs the SC control sequence the reference decoder runs;
    a ``_G0``, the g after a rate-0 sibling, which only a pruned plan
    holds, is a g step too.
    The plan is dropped once these steps, which are cached, are built, so
    schedules keep no plan of about ``16n`` ints alive.
    The semi-parallel machine splits a step wider than its PE budget into
    ``width``-wide steps (``width`` is ``n`` elsewhere).  The steps name
    tree positions, except in the unrolled graph (``fft``), whose steps
    name graph rows: stage ``l`` pairs rows at stride
    ``2**(m - 1 - l)``, its row ``fix + z * 2**(m - l)`` (``fix`` below
    ``2**(m - l)``) is tree position ``z = row >> (m - l)``, and phase
    ``i`` activates the rows with ``fix = bit_reverse(i >> l, m - l)``,
    which is ``perm[i >> l] >> l`` for the ``m``-bit permutation.
    """
    m = n.bit_length() - 1
    perm = bit_reverse_permutation(m).tolist()
    lanes = [[tuple(range(s, min(s + width, 1 << l))) for s in range(0, 1 << l, width)]
             for l in range(m)]
    rows = tuple(range(n))  # the row slices below share these int objects
    steps = []
    it = iter(_unpruned_plan(m))
    for op, l, phase, _ in zip(it, it, it, it):
        if op not in (_F, _G, _G0):
            continue
        fn = "f" if op == _F else "g"
        if fft:
            fix = perm[phase >> l] >> l
            steps.append((l, fn, phase, rows[fix::1 << (m - l)]))
        else:
            for active in lanes[l]:
                steps.append((l, fn, phase, active))
    return tuple(steps)


def build_schedule(cfg: ArchitectureConfig, vectors: int | None = None) -> Schedule:
    """Schedule one group of ``vectors`` vectors (default P = ``cfg.overlap_p or 1``).

    Each cycle admits at most one new vector.  Vectors claim the
    ``stage_duplication_count(l, P)`` copies of their next step's stage
    oldest first, and a vector that finds every copy taken stalls a cycle.
    """
    p = cfg.overlap_p or 1
    vectors = p if vectors is None else _as_int("vectors", vectors)
    if not 1 <= vectors <= p:
        raise ValueError(f"vectors must satisfy 1 <= v <= P = {p}, got {vectors}")
    stages = [l for l, *_ in _steps(cfg)]
    last, m = len(stages), cfg.m
    have = [stage_duplication_count(l, p) for l in range(m)]

    cycles = [[0] * last for _ in range(vectors)]
    copies = [[0] * last for _ in range(vectors)]
    pos = [0] * vectors
    admitted = finished = cycle = 0
    while finished < vectors:
        cycle += 1
        claimed = [0] * m
        for v in range(min(admitted + 1, vectors)):
            j = pos[v]
            if j == last or claimed[stages[j]] == have[stages[j]]:
                continue
            cycles[v][j], copies[v][j] = cycle, claimed[stages[j]]
            claimed[stages[j]] += 1
            pos[v] += 1
            admitted += v == admitted
            finished += pos[v] == last
    return Schedule(cfg=cfg, cycles=cycles, copies=copies)


def check_no_conflict(s: Schedule) -> list:
    """Validate a schedule against its own machine, ``s.cfg``.

    Every step must run on one of the ``stage_duplication_count(l, P)``
    copies of its stage, no stage copy may run two steps in one cycle, the
    line and semi-parallel machines must keep within their PE budget in
    every cycle, and the cycles of each vector slot's steps must strictly
    increase from cycle 1.  Returns a list of violation strings; empty
    means the schedule is clean.
    """
    cfg, width = s.cfg, len(s.steps)
    have = np.array([stage_duplication_count(l, cfg.overlap_p or 1) for l in range(cfg.m)])
    cycles, copies, stages = s.cycles.ravel(), s.copies.ravel(), s._stages.ravel()

    def at(i):  # the cycle and stage copy of the table's flat step i
        return f"CC{cycles[i]}: {stage_instance_name(stages[i], copies[i])}"
    violations = [f"{at(i)} is not a stage copy of the machine"
                  for i in np.flatnonzero((copies < 0) | (copies >= have[stages]))]
    # the first step of the table to claim a (cycle, stage, copy) owns it
    _, owner, claim = np.unique(np.column_stack((cycles, stages, copies)), axis=0,
                                return_index=True, return_inverse=True)
    owner = owner[claim.ravel()]
    violations += [f"{at(i)} claimed by y_{owner[i] // width + 1} and y_{i // width + 1}"
                   for i in np.flatnonzero(owner != np.arange(len(owner)))]
    if cfg.kind in (ArchKind.LINE, ArchKind.SEMI_PARALLEL):
        budget = cfg.n // 2 if cfg.kind is ArchKind.LINE else cfg.pe_count
        busy, cycle_of = np.unique(cycles, return_inverse=True)
        used = np.bincount(cycle_of.ravel(),
                           np.tile([len(active) for *_, active in s.steps], s.vectors))
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
    if s.cfg.kind not in (ArchKind.PIPELINED_TREE, ArchKind.LINE):
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
