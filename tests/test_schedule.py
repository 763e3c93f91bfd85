import hashlib
import importlib.resources
import json
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsc import cycles_per_vector
from polarsc.schedule import (ArchKind, ArchitectureConfig, Schedule, build_schedule,
                              check_no_conflict, enabled_sites,
                              register_liveness, stage_duplication_count,
                              stage_instance_name)

from conftest import single_vector_ops

# Published 14-cycle grid for one n=8 vector: stage row -> {cycle: f/g}.
SINGLE_VECTOR_GRID_N8 = {
    "S_2": {1: "f", 8: "g"},
    "S_1": {2: "f", 5: "g", 9: "f", 12: "g"},
    "S_0": {3: "f", 4: "g", 6: "f", 7: "g", 10: "f", 11: "g", 13: "f", 14: "g"},
}
DECISION_CYCLES_N8 = {0: 3, 1: 4, 2: 6, 3: 7, 4: 10, 5: 11, 6: 13, 7: 14}

# Published 16-cycle overlapped grid for n=8, P=3: stage instance -> {cycle: tag}.
OVERLAP_GRID_N8_P3 = {
    "S_2": {1: "y_1", 2: "y_2", 3: "y_3", 8: "y_1", 9: "y_2", 10: "y_3"},
    "S_1": {2: "y_1", 3: "y_2", 4: "y_3", 5: "y_1", 6: "y_2", 7: "y_3",
            9: "y_1", 10: "y_2", 11: "y_3", 12: "y_1", 13: "y_2", 14: "y_3"},
    "S_0": {3: "y_1", 4: "y_1", 5: "y_2", 6: "y_1", 7: "y_1", 8: "y_2",
            9: "y_3", 10: "y_1", 11: "y_1", 12: "y_2", 13: "y_1", 14: "y_1",
            15: "y_2", 16: "y_3"},
    "S_0d": {4: "y_2", 5: "y_3", 6: "y_3", 7: "y_2", 8: "y_3",
             11: "y_2", 12: "y_3", 13: "y_3", 14: "y_2", 15: "y_3"},
}


Entry = namedtuple("Entry", "cycle stage copy function vector phase active")


def entries(sched):
    """Every entry of ``sched``, read off its step table in ``entries`` order."""
    width, out = len(sched.steps), []
    for i in sched.entries.tolist():
        v, j = divmod(i, width)
        l, fn, phase, active = sched.steps[j]
        out.append(Entry(int(sched.cycles.flat[i]), l, int(sched.copies.flat[i]), fn, v,
                         phase, active))
    return out


def flatten(grid):
    return {(row, cc): val for row, cells in grid.items() for cc, val in cells.items()}


def golden_text(name):
    ref = importlib.resources.files("polarsc") / "goldens" / name
    return ref.read_text()


def test_tree_schedule_n8_matches_published_grid():
    sched = build_schedule(ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=8))
    assert sched.total_cycles == 14
    assert sched.function_grid() == flatten(SINGLE_VECTOR_GRID_N8)
    assert sched.decision_cycles() == DECISION_CYCLES_N8


def test_line_schedule_equals_tree_schedule():
    tree = build_schedule(ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=8))
    line = build_schedule(ArchitectureConfig(kind=ArchKind.LINE, n=8))
    strip = lambda s: [(e.cycle, e.stage, e.function, e.phase, e.active)
                       for e in entries(s)]
    assert strip(tree) == strip(line)


def test_fft_schedule_shares_cycle_grid_with_tree():
    fft = build_schedule(ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=8))
    assert fft.total_cycles == 14
    assert fft.function_grid() == flatten(SINGLE_VECTOR_GRID_N8)
    # node rows differ from PE indices: stage-0 activation touches one row
    stage0 = [e for e in entries(fft) if e.stage == 0]
    rows = [e.active[0] for e in stage0]
    assert rows == [0, 4, 2, 6, 1, 5, 3, 7]  # decision rows in phase order


def test_tree_csv_matches_golden_file():
    sched = build_schedule(ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=8))
    assert sched.to_csv() == golden_text("schedule_tree_n8.csv")


def test_overlap_csv_matches_golden_file():
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=3)
    assert build_schedule(cfg).to_csv() == golden_text("schedule_overlap_n8_p3.csv")


def test_n2_schedule():
    sched = build_schedule(ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=2))
    assert sched.total_cycles == 2
    assert [(e.cycle, e.stage, e.function, e.phase) for e in entries(sched)] \
        == [(1, 0, "f", 0), (2, 0, "g", 1)]


def test_overlap_schedule_n8_p3_matches_published_grid():
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=3)
    sched = build_schedule(cfg)
    assert sched.total_cycles == 16
    assert sched.occupancy_grid() == flatten(OVERLAP_GRID_N8_P3)


def test_overlap_admissions_one_per_cycle():
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=16, overlap_p=4)
    sched = build_schedule(cfg)
    first = {}
    for e in entries(sched):
        first.setdefault(e.vector, e.cycle)
    assert sorted(first.values()) == sorted(set(first.values()))


# Stall cycles of the greedy overlap admission today: total_cycles minus
# the stall-free 2n - 2 + P - 1, per n <= 64 and 1 <= P < n, pairs not
# listed running stall-free.  This pins current behaviour, not the intended
# one: the admission fix on the ROADMAP must drive every entry to 0.
OVERLAP_STALLS = {
    8: {5: 1},
    16: {5: 1, 9: 5, 11: 8, 12: 1, 13: 6},
    32: {5: 1, 9: 18, 11: 24, 12: 1, 13: 22, 17: 11, 19: 19, 20: 1, 21: 18, 23: 16,
         24: 4, 25: 20, 26: 9, 27: 19, 28: 2, 29: 17},
    64: {5: 1, 9: 34, 11: 56, 12: 1, 13: 54, 17: 38, 19: 51, 20: 1, 21: 50, 23: 48,
         24: 6, 25: 51, 26: 41, 27: 51, 28: 2, 29: 49, 33: 25, 35: 35, 36: 1, 37: 41,
         39: 39, 40: 18, 41: 37, 42: 25, 43: 35, 44: 23, 45: 45, 47: 32, 48: 11,
         49: 42, 50: 20, 51: 42, 52: 19, 53: 40, 54: 17, 55: 39, 56: 36, 57: 37,
         58: 20, 59: 35, 60: 7, 61: 33},
}


def test_overlap_stalls_pinned():
    stalls = {}
    for n in (2, 4, 8, 16, 32, 64):
        for p in range(1, n):
            cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p)
            stall = build_schedule(cfg).total_cycles - (2 * n - 2 + p - 1)
            if stall:
                stalls.setdefault(n, {})[p] = stall
    assert stalls == OVERLAP_STALLS
    assert sum(map(len, stalls.values())) == 64
    assert sum(sum(s.values()) for s in stalls.values()) == 1512


def test_single_vector_machines_never_stall():
    for n in (2, 4, 8, 16, 64):
        cfgs = [ArchitectureConfig(kind=kind, n=n)
                for kind in (ArchKind.FFT_LIKE, ArchKind.PIPELINED_TREE, ArchKind.LINE)]
        cfgs += [ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=pe)
                 for pe in (1 << p for p in range(n.bit_length() - 1))]
        for cfg in cfgs:
            assert build_schedule(cfg).stall_cycles() == [0], cfg


def test_overlap_stall_cycles():
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=5)
    assert build_schedule(cfg).stall_cycles() == [0, 0, 0, 0, 1]
    for n in (2, 4, 8, 16, 32, 64):
        for p in range(1, n):
            cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p)
            stalled = sum(build_schedule(cfg).stall_cycles()) > 0
            assert stalled == (p in OVERLAP_STALLS.get(n, {})), (n, p)


@st.composite
def configs(draw):
    n = 1 << draw(st.integers(1, 8))
    kind = draw(st.sampled_from(ArchKind))
    if kind is ArchKind.SEMI_PARALLEL:
        pe_count = draw(st.sampled_from([w for w in (n // 4, n // 2) if w]))
        return ArchitectureConfig(kind=kind, n=n, pe_count=pe_count)
    if kind is ArchKind.VECTOR_OVERLAP:
        return ArchitectureConfig(kind=kind, n=n, overlap_p=draw(st.integers(1, n - 1)))
    return ArchitectureConfig(kind=kind, n=n)


@settings(deadline=None, derandomize=True)
@given(st.data())
def test_every_schedule_replays_the_single_vector_sequence(data):
    cfg = data.draw(configs())
    vectors = data.draw(st.integers(1, cfg.overlap_p or 1))
    sched = build_schedule(cfg, vectors)
    fft = cfg.kind is ArchKind.FFT_LIKE
    by_vector = [[] for _ in range(vectors)]
    for e in entries(sched):  # in cycle order
        by_vector[e.vector].append(e)
    for rows in by_vector:
        steps = []
        for e in rows:
            if steps and steps[-1][:3] == (e.stage, e.function, e.phase):
                steps[-1][3].extend(e.active)
            else:
                steps.append((e.stage, e.function, e.phase, list(e.active)))
        assert tuple(step[:3] for step in steps) == single_vector_ops(cfg.n)
        for l, _, _, active in steps:
            # the unrolled graph names rows; row r is tree position r >> (m - l)
            positions = sorted(q >> (cfg.m - l) if fft else q for q in active)
            assert positions == list(range(1 << l))
    assert check_no_conflict(sched) == []
    # the greedy admits the oldest vector first, so a younger vector never
    # delays an older one: a shorter group is a full group's first rows
    full = build_schedule(cfg)
    assert np.array_equal(sched.cycles, full.cycles[:vectors])
    assert np.array_equal(sched.copies, full.copies[:vectors])
    if cfg.kind is not ArchKind.VECTOR_OVERLAP:
        assert sched.total_cycles == cycles_per_vector(cfg.kind, cfg.n, cfg.pe_count)


def pe_activations_oracle(sched):
    """``Schedule.pe_activations`` by its definition: one name per active PE
    of every entry of the occupancy trace, in cycle order, counted."""
    stage = lambda instance: instance.split("_")[1].split("d")[0]
    name = {
        ArchKind.FFT_LIKE: lambda instance, active: (f"N_{stage(instance)},", 0),
        ArchKind.PIPELINED_TREE: lambda instance, active: (f"P_{stage(instance)},", 0),
        ArchKind.LINE: lambda instance, active: ("P_", 0),
        ArchKind.SEMI_PARALLEL: lambda instance, active: ("P_", active[0]),
        ArchKind.VECTOR_OVERLAP: lambda instance, active: (f"{instance}:P_", 0),
    }[sched.cfg.kind]
    names = []
    for row in sched.occupancy():
        for instance, _, active in row:
            prefix, offset = name(instance, active)
            names += [f"{prefix}{q - offset}" for q in active]
    return Counter(names)


@settings(deadline=None, derandomize=True)
@given(st.data())
def test_pe_activations_match_the_per_entry_count(data):
    cfg = data.draw(configs())
    sched = build_schedule(cfg, data.draw(st.integers(1, cfg.overlap_p or 1)))
    # same names, counts and first-appearance order
    assert list(sched.pe_activations().items()) == \
        list(pe_activations_oracle(sched).items())


# sha256 prefixes of to_csv() and of json.dumps(list(pe_activations().items())),
# recorded from the builder that stored one entry per (cycle, stage copy, vector).
@pytest.mark.parametrize("cfg, vectors, csv_sha, pe_sha", [
    (ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=64), None,
     "53d2bdc3118afb04", "b4d141e4ef8f5ddc"),
    (ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=64), None,
     "6f43e65b720d0b87", "622d5495911c82f9"),
    (ArchitectureConfig(kind=ArchKind.LINE, n=64), None,
     "6f43e65b720d0b87", "540d092cee24be93"),
    (ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=64, pe_count=16), None,
     "334c9ca02492b4e0", "8c7a4f39f0a52023"),
    (ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=64, overlap_p=3), None,
     "721ccf0f314da5f4", "1bf14eaf046151ef"),
    (ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=16, overlap_p=5), 2,
     "9f844deb54d59e9b", "4e0965cca0fa11da"),
], ids=["fft", "tree", "line", "semi", "overlap", "overlap-tail"])
def test_schedule_csv_and_pe_activations_pinned(cfg, vectors, csv_sha, pe_sha):
    sched = build_schedule(cfg, vectors)
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest(sched.to_csv()) == csv_sha
    assert digest(json.dumps(list(sched.pe_activations().items()))) == pe_sha


@settings(deadline=None, derandomize=True)
@given(st.data())
def test_a_shorter_groups_pes_are_the_first_of_the_full_groups(data):
    # the simulator adds a tail group's counts onto the full group's first PEs
    cfg = data.draw(configs())
    full = build_schedule(cfg).pe_activations()
    tail = build_schedule(cfg, data.draw(st.integers(1, cfg.overlap_p or 1)))
    assert list(tail.pe_activations()) == list(full)[:len(tail.pe_activations())]


@pytest.mark.parametrize("kind, extra, count", [
    (ArchKind.FFT_LIKE, {}, 2046), (ArchKind.PIPELINED_TREE, {}, 2046),
    (ArchKind.LINE, {}, 2046), (ArchKind.SEMI_PARALLEL, {"pe_count": 256}, 2048),
    (ArchKind.VECTOR_OVERLAP, {"overlap_p": 3}, 6138)])
def test_entries_index_the_step_table_in_cycle_order(kind, extra, count):
    sched = build_schedule(ArchitectureConfig(kind=kind, n=1024, **extra))
    index = sched.entries
    assert index.dtype == np.int64 and len(index) == count
    assert sorted(index.tolist()) == list(range(sched.vectors * len(sched.steps)))
    keys = [(e.cycle, -e.stage, e.copy) for e in entries(sched)]
    assert keys == sorted(keys)
    assert sched.entries is index
    with pytest.raises(ValueError):
        index[0] = 1


def test_vectors_outside_one_to_p_raise():
    ov = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=3)
    line = ArchitectureConfig(kind=ArchKind.LINE, n=8)
    for cfg, vectors in ((ov, 0), (ov, 4), (line, 0), (line, 2)):
        with pytest.raises(ValueError):
            build_schedule(cfg, vectors)


def test_stage_duplication_counts():
    assert all(stage_duplication_count(l, 1) == 1 for l in range(6))
    assert stage_duplication_count(0, 3) == 2
    assert stage_duplication_count(1, 3) == 1
    assert stage_duplication_count(2, 3) == 1
    for l in range(5):
        for p in range(1, 16):
            assert stage_duplication_count(l, p) == int(np.ceil((p + 1) / 2 ** (l + 1)))
    with pytest.raises(ValueError):
        stage_duplication_count(-1, 2)
    with pytest.raises(ValueError):
        stage_duplication_count(0, 0)


def _stage_activation_counts(sched, vector=0):
    """stage -> number of activations for one vector (splits merged)."""
    return dict(Counter(l for l, _ in {(e.stage, e.phase) for e in entries(sched)
                                       if e.vector == vector}))


@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_stage_activation_counts(n):
    m = n.bit_length() - 1
    expected = {l: 2 ** (m - l) for l in range(m)}
    for kind in (ArchKind.PIPELINED_TREE, ArchKind.FFT_LIKE, ArchKind.LINE):
        sched = build_schedule(ArchitectureConfig(kind=kind, n=n))
        assert _stage_activation_counts(sched) == expected
    overlap = build_schedule(ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n,
                                                overlap_p=3))
    for v in range(3):
        assert _stage_activation_counts(overlap, vector=v) == expected


def test_semi_parallel_schedule_splits_outer_stage():
    cfg = ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=8, pe_count=2)
    sched = build_schedule(cfg)
    assert sched.total_cycles == 16
    wide = [e for e in entries(sched) if e.stage == 2]
    assert len(wide) == 4  # two activations, each split in two
    assert all(len(e.active) == 2 for e in wide)
    assert _stage_activation_counts(sched) == {0: 8, 1: 4, 2: 2}


def test_check_no_conflict_on_published_schedules():
    tree_cfg = ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=8)
    assert check_no_conflict(build_schedule(tree_cfg)) == []
    ov_cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=3)
    assert check_no_conflict(build_schedule(ov_cfg)) == []


def check_no_conflict_oracle(s):
    """``check_no_conflict`` by its definition: one pass over every step of
    every slot, in table order."""
    have = [stage_duplication_count(l, s.cfg.overlap_p or 1) for l in range(s.cfg.m)]
    violations, owners, used = [], {}, Counter()
    for v in range(s.vectors):
        for (l, _, _, active), cycle, copy in zip(s.steps, s.cycles[v].tolist(),
                                                  s.copies[v].tolist()):
            at = f"CC{cycle}: {stage_instance_name(l, copy)}"
            if not 0 <= copy < have[l]:
                violations.append(f"{at} is not a stage copy of the machine")
            if (cycle, l, copy) in owners:
                violations.append(f"{at} claimed by y_{owners[cycle, l, copy] + 1} "
                                  f"and y_{v + 1}")
            owners.setdefault((cycle, l, copy), v)
            used[cycle] += len(active)
    if s.cfg.kind in (ArchKind.LINE, ArchKind.SEMI_PARALLEL):
        budget = s.cfg.n // 2 if s.cfg.kind is ArchKind.LINE else s.cfg.pe_count
        violations += [f"CC{cycle}: {k} PEs used, budget {budget}"
                       for cycle, k in used.items() if k > budget]
    for v, row in enumerate(s.cycles.tolist()):
        if row[0] < 1 or any(b <= a for a, b in zip(row, row[1:])):
            violations.append(f"vector slot {v} runs its steps out of cycle order")
    return violations


@settings(deadline=None, derandomize=True)
@given(st.data())
def test_check_no_conflict_matches_the_per_step_check(data):
    # move a few steps of a built table to drawn cycles and stage copies
    cfg = data.draw(configs())
    sched = build_schedule(cfg, data.draw(st.integers(1, cfg.overlap_p or 1)))
    cycles, copies = sched.cycles.copy(), sched.copies.copy()
    for _ in range(data.draw(st.integers(0, 4))):
        v = data.draw(st.integers(0, sched.vectors - 1))
        j = data.draw(st.integers(0, len(sched.steps) - 1))
        cycles[v, j] = data.draw(st.integers(-1, sched.total_cycles + 1))
        copies[v, j] = data.draw(st.integers(-1, 3))
    bad = Schedule(cfg=cfg, cycles=cycles, copies=copies)
    assert sorted(check_no_conflict(bad)) == sorted(check_no_conflict_oracle(bad))


def test_check_no_conflict_flags_double_booking():
    # slot 1 runs its first step, on S_2, in slot 0's first cycle
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=3)
    sched = build_schedule(cfg, 2)
    cycles = sched.cycles.copy()
    assert cycles[:, 0].tolist() == [1, 2]
    cycles[1, 0] = 1
    bad = Schedule(cfg=cfg, cycles=cycles, copies=sched.copies)
    violations = check_no_conflict(bad)
    assert violations == ["CC1: S_2 claimed by y_1 and y_2"]


def test_check_no_conflict_flags_budget_overrun():
    # both two-PE lanes of the first stage-2 step run in cycle 1
    cfg = ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=8, pe_count=2)
    sched = build_schedule(cfg)
    cycles = sched.cycles.copy()
    cycles[0, 1] = 1
    bad = Schedule(cfg=cfg, cycles=cycles, copies=sched.copies)
    assert any("budget" in v for v in check_no_conflict(bad))


@pytest.mark.parametrize("copy", [7, -1])
def test_check_no_conflict_flags_a_stage_copy_the_machine_lacks(copy):
    # at P = 3 stage 0 has two copies, S_0 and S_0d; the S_0d steps move
    # to a copy outside them, where no other step runs
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=3)
    sched = build_schedule(cfg)
    copies = sched.copies.copy()
    moved = copies == 1
    assert moved.sum() == 10
    copies[moved] = copy
    bad = Schedule(cfg=cfg, cycles=sched.cycles, copies=copies)
    violations = check_no_conflict(bad)
    assert len(violations) == 10
    assert all(f"S_0d{copy} is not a stage copy" in v for v in violations)


def test_check_no_conflict_flags_swapped_steps():
    # phase 1's stage-0 g runs before phase 0's f: no resource conflict,
    # but the slot's steps no longer run in cycle order
    cfg = ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=8)
    sched = build_schedule(cfg)
    assert [step[1:3] for step in sched.steps[2:4]] == [("f", 0), ("g", 1)]
    cycles = sched.cycles.copy()
    cycles[0, [2, 3]] = cycles[0, [3, 2]]
    bad = Schedule(cfg=cfg, cycles=cycles, copies=sched.copies)
    assert check_no_conflict(bad) == ["vector slot 0 runs its steps out of cycle order"]


def test_check_no_conflict_flags_a_step_before_cycle_1():
    cfg = ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=8)
    sched = build_schedule(cfg)
    bad = Schedule(cfg=cfg, cycles=sched.cycles - 1, copies=sched.copies)
    assert check_no_conflict(bad) == ["vector slot 0 runs its steps out of cycle order"]


def test_step_table_rows_must_hold_every_step():
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=3)
    sched = build_schedule(cfg)
    assert sched.cycles.shape == sched.copies.shape == (3, 14)
    for cycles, copies in ((sched.cycles[:, :-1], sched.copies),
                           (sched.cycles, sched.copies[:2]),
                           (sched.cycles[0], sched.copies[0]),
                           (np.zeros((0, 14)), np.zeros((0, 14))),
                           # non-integer steps used to be truncated without a word,
                           # and a 0-d table raised TypeError
                           (sched.cycles + 0.7, sched.copies),
                           (np.where(sched.cycles > 8, np.nan, sched.cycles),
                            sched.copies),
                           (sched.cycles, np.full((3, 14), np.inf)),
                           (sched.cycles, sched.copies - 0.5),
                           (np.int64(5), sched.copies),
                           (sched.cycles, np.int64(0))):
        with pytest.raises(ValueError, match="one row of 14 steps"):
            Schedule(cfg=cfg, cycles=cycles, copies=copies)
    with pytest.raises(ValueError):
        sched.cycles[0, 0] = 5


def test_liveness_every_intermediate_used_twice_n8():
    sched = build_schedule(ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=8))
    report = register_liveness(sched)
    assert report.ok
    inner = [r for r in report.records if r.stage >= 1]
    assert inner and all(len(r.read_cycles) == 2 for r in inner)
    # the first outer-stage value block is read at CC2 and CC5 and its
    # registers are safely rewritten by the conditioned pass at CC8
    first_outer = next(r for r in report.records if r.stage == 2 and r.index == 0)
    assert first_outer.read_cycles == (2, 5)
    assert first_outer.overwrite_cycle == 8


def test_liveness_n2_decision_value_has_two_consumers():
    sched = build_schedule(ArchitectureConfig(kind=ArchKind.LINE, n=2))
    report = register_liveness(sched)
    assert report.ok
    fval = next(r for r in report.records if r.stage == 0 and r.decision_phase == 0)
    # read once by the decision unit, then its bit feeds the single g
    assert len(fval.read_cycles) == 1 and fval.bit_fanout == 1
    last = next(r for r in report.records if r.stage == 0 and r.decision_phase == 1)
    assert last.bit_fanout == 0


@pytest.mark.parametrize("n", [4, 16, 64])
def test_liveness_holds_across_sizes(n):
    sched = build_schedule(ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=n))
    assert register_liveness(sched).ok


@pytest.mark.parametrize("n", [2 ** m for m in range(1, 9)])
def test_fft_schedule_writes_each_node_once_after_its_inputs(n):
    # the unrolled graph keeps one register per node (stage, row): one
    # vector writes each node once, from inputs an earlier cycle wrote
    m = n.bit_length() - 1
    written = {}
    for e in entries(build_schedule(ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=n))):
        p = 1 << (m - 1 - e.stage)
        for row in e.active:
            if e.stage < m - 1:
                for src in (row & ~p, row | p):
                    assert written.get((e.stage + 1, src), e.cycle) < e.cycle
            assert (e.stage, row) not in written
            written[(e.stage, row)] = e.cycle
    assert len(written) == n * m


def test_liveness_rejects_other_kinds():
    sched = build_schedule(ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=8))
    with pytest.raises(ValueError):
        register_liveness(sched)


def test_control_bits_fg_alternate_per_stage():
    per_stage = {}
    for stage, fn, _ in single_vector_ops(8):
        per_stage.setdefault(stage, []).append(fn)
    assert per_stage[2] == ["f", "g"]
    assert per_stage[1] == ["f", "g", "f", "g"]
    assert per_stage[0] == ["f", "g"] * 4


def test_control_bits_n2():
    assert [enabled_sites(i, 1) for i in range(2)] == [[(0, 0)], []]


def test_control_bits_accumulate_published_partial_sum():
    # the site at tree position (1, 0) latches bits 4 and 5 between its
    # second f pass and second g pass, holding their XOR for the g
    window = [i for i in (4, 5, 6, 7) if (1, 0) in enabled_sites(i, 3)]
    assert window == [4, 5]
    # bit 4 also seeds the stage-0 site for the next decision's g;
    # bit 5, decided on a bottom row, fans out to both mid-stage sites
    assert sorted(enabled_sites(4, 3)) == [(0, 0), (1, 0)]
    assert sorted(enabled_sites(5, 3)) == [(1, 0), (1, 1)]
    # bit 0 reaches one site per stage along its all-zeros row
    assert sorted(enabled_sites(0, 3)) == [(0, 0), (1, 0), (2, 0)]


def test_control_bits_last_bit_feeds_nothing():
    assert enabled_sites(15, 4) == []
    # every other bit feeds at least one site
    assert all(enabled_sites(i, 4) for i in range(15))


def test_architecture_config_validation():
    for pe_count in (0, 3, 6, 8):
        with pytest.raises(ValueError):
            ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=8, pe_count=pe_count)
    with pytest.raises(ValueError):
        ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=8)
    with pytest.raises(ValueError):
        ArchitectureConfig(kind=ArchKind.LINE, n=8, overlap_p=2)
    with pytest.raises(ValueError):
        ArchitectureConfig(kind=ArchKind.LINE, n=6)


def test_architecture_config_takes_a_kind_by_its_value():
    # a string kind used to be kept as a string, which simulate read as the line
    for kind in ArchKind:
        extra = {ArchKind.SEMI_PARALLEL: {"pe_count": 2},
                 ArchKind.VECTOR_OVERLAP: {"overlap_p": 3}}.get(kind, {})
        cfg = ArchitectureConfig(kind=kind.value, n=8, **extra)
        assert cfg.kind is kind and cfg == ArchitectureConfig(kind=kind, n=8, **extra)
    with pytest.raises(ValueError, match="not a valid ArchKind"):
        ArchitectureConfig(kind="ring", n=8)
    # a string kind no longer skips the PE-budget checks
    with pytest.raises(ValueError, match="pe_count"):
        ArchitectureConfig(kind="semi", n=8, pe_count=8)
    with pytest.raises(ValueError, match="pe_count only applies"):
        ArchitectureConfig(kind="line", n=8, pe_count=2)


LINE_8 = ArchKind.LINE, {"n": 8}
SEMI_8 = ArchKind.SEMI_PARALLEL, {"n": 8, "pe_count": 2}
OVERLAP_8 = ArchKind.VECTOR_OVERLAP, {"n": 8, "overlap_p": 3}


@pytest.mark.parametrize("machine, field, value", [
    (LINE_8, "n", 8.0), (LINE_8, "n", True), (LINE_8, "n", "8"),
    (SEMI_8, "pe_count", 2.0), (SEMI_8, "pe_count", True),
    (OVERLAP_8, "overlap_p", 2.5), (OVERLAP_8, "overlap_p", True)])
def test_architecture_config_rejects_counts_that_are_not_integers(machine, field, value):
    # overlap_p = 2.5 used to fail inside build_schedule, n = 8.0 raised
    # TypeError and pe_count = True was taken as 1
    kind, fields = machine
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        ArchitectureConfig(kind=kind, **{**fields, field: value})
    cfg = ArchitectureConfig(kind=kind, **{k: np.int64(v) for k, v in fields.items()})
    assert all(type(getattr(cfg, k)) is int for k in fields)
