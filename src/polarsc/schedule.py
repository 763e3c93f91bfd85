"""Clock-by-clock schedules for the decoder architectures.

A schedule is a tuple of stage activations, one entry per (cycle, stage
instance, vector).  Every machine replays ``graph.single_vector_ops``, the
same 2n - 2 step control sequence the reference decoder runs, per vector,
and latches decided bits through ``graph.psum_enable``.  One greedy
builder lays the steps out: the vector-overlapping machine staggers P
vectors across duplicated stage instances, and the single-vector machines
are the same builder at P = 1, where every stage has one instance.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from . import graph


class ArchKind(Enum):
    FFT_LIKE = "fft"
    PIPELINED_TREE = "tree"
    LINE = "line"
    SEMI_PARALLEL = "semi"
    VECTOR_OVERLAP = "overlap"


@dataclass(frozen=True)
class ArchitectureConfig:
    """Which machine to build and with what parallelism.

    ``pe_count`` applies to the semi-parallel machine only (supported
    budgets: n/4 and n/2).  ``overlap_p`` is the number of simultaneously
    decoded vectors for the overlapping machine, at most n - 1.
    """

    kind: ArchKind
    n: int
    pe_count: int | None = None
    overlap_p: int | None = None

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of 2 >= 2, got {self.n}")
        if self.kind is ArchKind.SEMI_PARALLEL:
            if self.pe_count not in (self.n // 4, self.n // 2) or self.pe_count < 1:
                raise ValueError(
                    f"semi-parallel pe_count must be n/4 or n/2, got {self.pe_count}"
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


@dataclass(frozen=True, slots=True)
class ScheduleEntry:
    cycle: int
    stage: int
    copy: int
    function: str  # "f" or "g"
    vector: int  # 0-based vector slot
    phase: int  # decision phase this activation serves
    active: tuple  # node / PE indices busy this cycle

    @property
    def stage_instance(self) -> str:
        return stage_instance_name(self.stage, self.copy)

    @property
    def vector_tag(self) -> str:
        return f"y_{self.vector + 1}"


@dataclass(frozen=True)
class Schedule:
    """One group's activations.  Immutable: ``entries`` is stored as a tuple,
    so a schedule shared by cached simulator programs cannot be edited."""

    kind: ArchKind
    n: int
    vectors: int
    total_cycles: int
    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def m(self) -> int:
        return self.n.bit_length() - 1

    def sorted_entries(self) -> list:
        return sorted(self.entries, key=lambda e: (e.cycle, -e.stage, e.copy))

    def occupancy_grid(self) -> dict:
        """(stage_instance, cycle) -> vector tag."""
        return {(e.stage_instance, e.cycle): e.vector_tag for e in self.entries}

    def function_grid(self) -> dict:
        """(stage_instance, cycle) -> f/g label."""
        return {(e.stage_instance, e.cycle): e.function for e in self.entries}

    def decision_cycles(self, vector: int = 0) -> dict:
        """phase -> cycle at which that phase's bit is decided."""
        out = {}
        for e in self.entries:
            if e.stage == 0 and e.vector == vector:
                out[e.phase] = e.cycle
        return out

    def stall_cycles(self) -> list:
        """Per vector, the cycles between its first and last step in which
        it ran no step."""
        cycles = [set() for _ in range(self.vectors)]
        for e in self.entries:
            cycles[e.vector].add(e.cycle)
        return [max(c) - min(c) + 1 - len(c) if c else 0 for c in cycles]

    def occupancy(self) -> list:
        """Per cycle, the (stage instance, vector tag, active indices) it runs."""
        out = [[] for _ in range(self.total_cycles)]
        for e in self.sorted_entries():
            out[e.cycle - 1].append((e.stage_instance, e.vector_tag, e.active))
        return out

    def pe_activations(self) -> Counter:
        """Activations per processing element over one run of the schedule.

        PEs are named ``N_l,row`` (graph node), ``P_l,q`` (tree), ``P_q``
        (line), ``P_{q - q0}`` (semi-parallel lane, q0 the first active
        index) and ``<stage instance>:P_q`` (overlap, e.g. ``S_0d:P_0``).
        """
        name = {
            ArchKind.FFT_LIKE: lambda e: (f"N_{e.stage},", 0),
            ArchKind.PIPELINED_TREE: lambda e: (f"P_{e.stage},", 0),
            ArchKind.LINE: lambda e: ("P_", 0),
            ArchKind.SEMI_PARALLEL: lambda e: ("P_", e.active[0]),
            ArchKind.VECTOR_OVERLAP: lambda e: (f"{e.stage_instance}:P_", 0),
        }[self.kind]
        names = []
        for e in self.sorted_entries():
            prefix, offset = name(e)
            names += [f"{prefix}{q - offset}" for q in e.active]
        return Counter(names)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["cycle", "stage_instance", "function", "vector_tag",
                         "active_indices"])
        for e in self.sorted_entries():
            writer.writerow([e.cycle, e.stage_instance, e.function, e.vector_tag,
                             ";".join(str(q) for q in e.active)])
        return buf.getvalue()


def _steps(cfg: ArchitectureConfig) -> list:
    """One vector's clocked steps ``(stage, fn, phase, active)``, in order.

    The semi-parallel machine splits a ``graph.single_vector_ops`` entry
    wider than its PE budget into ``pe_count``-wide steps.  The unrolled
    graph names graph rows (see ``graph``), the others tree positions.
    """
    n, m = cfg.n, cfg.m
    width = cfg.pe_count or n
    lanes = [[tuple(range(s, min(s + width, 1 << l))) for s in range(0, 1 << l, width)]
             for l in range(m)]
    rows = tuple(range(n))  # the row slices below share these int objects
    steps = []
    for l, fn, phase in graph.single_vector_ops(n):
        if cfg.kind is ArchKind.FFT_LIKE:
            fix = graph.bit_reverse(phase >> l, m - l)
            steps.append((l, fn, phase, rows[fix::1 << (m - l)]))
        else:
            for active in lanes[l]:
                steps.append((l, fn, phase, active))
    return steps


def build_schedule(cfg: ArchitectureConfig, vectors: int | None = None) -> Schedule:
    """Schedule one group of ``vectors`` vectors (default P = ``cfg.overlap_p or 1``).

    Each cycle admits at most one new vector.  Vectors claim the
    ``stage_duplication_count(l, P)`` copies of their next step's stage
    oldest first, and a vector that finds every copy taken stalls a cycle.
    """
    p = cfg.overlap_p or 1
    vectors = p if vectors is None else vectors
    if not 1 <= vectors <= p:
        raise ValueError(f"vectors must satisfy 1 <= v <= P = {p}, got {vectors}")
    steps = _steps(cfg)
    last, m = len(steps), cfg.m
    copies = [stage_duplication_count(l, p) for l in range(m)]

    entries = []
    pos = [0] * vectors
    admitted = finished = cycle = 0
    while finished < vectors:
        cycle += 1
        claimed = [0] * m
        for v in range(min(admitted + 1, vectors)):
            if pos[v] == last:
                continue
            l, fn, phase, active = steps[pos[v]]
            if claimed[l] == copies[l]:
                continue
            entries.append(ScheduleEntry(cycle=cycle, stage=l, copy=claimed[l],
                                         function=fn, vector=v, phase=phase,
                                         active=active))
            claimed[l] += 1
            pos[v] += 1
            admitted += v == admitted
            finished += pos[v] == last
    return Schedule(kind=cfg.kind, n=cfg.n, vectors=vectors, total_cycles=cycle,
                    entries=entries)


def check_no_conflict(s: Schedule, cfg: ArchitectureConfig) -> list:
    """Validate instance exclusivity and per-cycle PE budgets.

    Returns a list of violation strings; empty means the schedule is clean.
    """
    violations = []
    owners: dict = {}
    per_cycle_pes: dict = {}
    for e in s.entries:
        key = (e.cycle, e.stage, e.copy)
        if key in owners and owners[key] != e.vector:
            violations.append(
                f"CC{e.cycle}: {e.stage_instance} claimed by y_{owners[key] + 1} "
                f"and {e.vector_tag}"
            )
        owners.setdefault(key, e.vector)
        if len(e.active) > (1 << e.stage):
            violations.append(
                f"CC{e.cycle}: {e.stage_instance} activates {len(e.active)} nodes, "
                f"bank holds {1 << e.stage}"
            )
        per_cycle_pes[e.cycle] = per_cycle_pes.get(e.cycle, 0) + len(e.active)

    if cfg.kind in (ArchKind.LINE, ArchKind.SEMI_PARALLEL):
        budget = cfg.n // 2 if cfg.kind is ArchKind.LINE else cfg.pe_count
        for cycle, used in per_cycle_pes.items():
            if used > budget:
                violations.append(f"CC{cycle}: {used} PEs used, budget {budget}")
    if cfg.kind is ArchKind.FFT_LIKE:
        by_cycle: dict = {}
        for e in s.entries:
            by_cycle.setdefault(e.cycle, []).append(e)
        for cycle, group in by_cycle.items():
            if len(group) != 1 or len(group[0].active) != (1 << group[0].stage):
                violations.append(f"CC{cycle}: expected one full stage activation")
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
    if s.kind not in (ArchKind.PIPELINED_TREE, ArchKind.LINE):
        raise ValueError("liveness analysis applies to tree/line schedules")
    n, m = s.n, s.m
    acts: list = [[] for _ in range(m)]
    for e in s.sorted_entries():
        acts[e.stage].append(e)

    records = []
    problems = []

    def fanout(phase):
        return len(graph.enabled_sites(phase, m))

    for l in range(m):
        for k, e in enumerate(acts[l]):
            if l == 0:
                records.append(ValueRecord(
                    stage=0, index=k, write_cycle=e.cycle, read_cycles=(e.cycle,),
                    overwrite_cycle=None, decision_phase=e.phase,
                    bit_fanout=fanout(e.phase),
                ))
                continue
            readers = acts[l - 1][2 * k: 2 * k + 2]
            reads = tuple(r.cycle for r in readers)
            over = acts[l][k + 1].cycle if k + 1 < len(acts[l]) else None
            records.append(ValueRecord(stage=l, index=k, write_cycle=e.cycle,
                                       read_cycles=reads, overwrite_cycle=over))

    channel_reads = tuple(e.cycle for e in acts[m - 1])
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
