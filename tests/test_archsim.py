import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsc import CodeSpec, Kernel, archsim, construct_frozen_bec, decode_batch, simulate
from polarsc.archsim import SimulationError, _run_tree_like
from polarsc.kernels import LLR_CLIP
from polarsc.schedule import (ArchKind, ArchitectureConfig, Schedule, ScheduleEntry,
                              build_schedule)

from conftest import random_frames

ALL_KERNELS = [Kernel.LR_EXACT, Kernel.LLR_EXACT, Kernel.LLR_MINSUM]


def configs_for(n):
    out = [ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=n),
           ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=n),
           ArchitectureConfig(kind=ArchKind.LINE, n=n)]
    if n >= 4:
        out.append(ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=n // 4))
        out.append(ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n,
                                      overlap_p=min(3, n - 1)))
    return out


@pytest.mark.parametrize("kernel", ALL_KERNELS)
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_all_machines_match_reference(n, kernel):
    spec = construct_frozen_bec(n, max(1, n // 2), 0.5)
    _, llr = random_frames(spec, 64, sigma=0.9, seed=100 + n)
    expected, _ = decode_batch(llr, spec, kernel)
    for cfg in configs_for(n):
        result = simulate(cfg, llr, spec, kernel)
        assert np.array_equal(result.decoded, expected), (cfg.kind, kernel)


@pytest.mark.parametrize("n", [4, 8, 16, 64, 256])
def test_single_vector_cycle_counts(n):
    spec = construct_frozen_bec(n, n // 2, 0.5)
    _, llr = random_frames(spec, 1, sigma=1.0, seed=n)
    for kind in (ArchKind.FFT_LIKE, ArchKind.PIPELINED_TREE, ArchKind.LINE):
        res = simulate(ArchitectureConfig(kind=kind, n=n), llr, spec, Kernel.LLR_MINSUM)
        assert res.total_cycles == 2 * n - 2
    semi = ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=n // 4)
    assert simulate(semi, llr, spec, Kernel.LLR_MINSUM).total_cycles == 2 * n


def test_semi_with_half_budget_equals_line_cycles():
    n = 16
    spec = construct_frozen_bec(n, 8, 0.5)
    _, llr = random_frames(spec, 2, sigma=1.0, seed=1)
    semi = ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=n // 2)
    assert simulate(semi, llr, spec, Kernel.LLR_EXACT).period_cycles == 2 * n - 2


def test_multi_frame_total_cycles_accumulate():
    n = 8
    spec = construct_frozen_bec(n, 4, 0.5)
    _, llr = random_frames(spec, 5, sigma=1.0, seed=2)
    res = simulate(ArchitectureConfig(kind=ArchKind.LINE, n=n), llr, spec,
                   Kernel.LLR_EXACT)
    assert res.period_cycles == 14 and res.total_cycles == 5 * 14


def test_overlap_group_cycles_and_tail():
    n = 8
    spec = construct_frozen_bec(n, 4, 0.5)
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=3)
    _, llr = random_frames(spec, 7, sigma=1.0, seed=3)
    expected, _ = decode_batch(llr, spec, Kernel.LLR_EXACT)
    res = simulate(cfg, llr, spec, Kernel.LLR_EXACT)
    assert np.array_equal(res.decoded, expected)
    # two full groups of 16 cycles plus a single-vector tail of 14
    assert res.period_cycles == 16
    assert res.total_cycles == 2 * 16 + 14


def _spy_on_builds(monkeypatch):
    """Empty the program cache and record the ``vectors`` argument of every
    schedule build, the first step of compiling a program."""
    archsim._programs.clear()
    built = []

    def spy(cfg, vectors=None):
        built.append(vectors)
        return build_schedule(cfg, vectors)

    monkeypatch.setattr(archsim, "build_schedule", spy)
    return built


def test_simulate_builds_only_the_groups_that_run(monkeypatch):
    n, p = 16, 11
    spec = construct_frozen_bec(n, 8, 0.5)
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p)
    for frames, expected in ((3, [3]), (25, [p, 3]), (0, [None])):
        built = _spy_on_builds(monkeypatch)
        _, llr = random_frames(spec, frames, sigma=1.0, seed=frames)
        res = simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
        assert built == expected, frames
        assert res.schedule.vectors == (3 if frames == 3 else p)


def test_simulate_compiles_each_group_schedule_once(monkeypatch):
    n, p = 16, 11
    spec = construct_frozen_bec(n, 8, 0.5)
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p)
    built = _spy_on_builds(monkeypatch)
    for seed in (1, 2):
        _, llr = random_frames(spec, 25, sigma=1.0, seed=seed)
        expected, _ = decode_batch(llr, spec, Kernel.LLR_MINSUM)
        res = simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
        assert np.array_equal(res.decoded, expected)
    assert built == [p, 3]


def test_cached_schedule_is_immutable_and_counts_are_fresh():
    spec = construct_frozen_bec(8, 4, 0.5)
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=3)
    _, llr = random_frames(spec, 7, sigma=1.0, seed=9)
    first = simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
    second = simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
    assert first.schedule is second.schedule
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.schedule.total_cycles = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.schedule.entries = ()
    with pytest.raises(AttributeError):
        first.schedule.entries.append(first.schedule.entries[0])
    assert first.pe_activations == second.pe_activations
    assert first.pe_activations is not second.pe_activations
    first.pe_activations["S_0:P_0"] += 1
    assert simulate(cfg, llr, spec, Kernel.LLR_MINSUM).pe_activations == \
        second.pe_activations


@st.composite
def _frozen_sets(draw, n):
    """Codes of length n with k = 0, 1, n or a random number of information bits."""
    k = draw(st.one_of(st.sampled_from([0, 1, n]), st.integers(0, n)), label="k")
    info = draw(st.permutations(range(n)), label="order")[:k]
    return CodeSpec(m=n.bit_length() - 1, frozen=tuple(set(range(n)) - set(info)))


@pytest.mark.parametrize("m", range(1, 7))
@settings(deadline=None, derandomize=True, max_examples=15)
@given(data=st.data())
def test_frozen_phase_skip_matches_reference(m, data):
    n = 1 << m
    spec = data.draw(_frozen_sets(n), label="spec")
    kernel = data.draw(st.sampled_from(ALL_KERNELS), label="kernel")
    frames = data.draw(st.integers(1, 7), label="frames")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    llr = rng.normal(0.0, 4.0, (frames, n))
    special = rng.random((frames, n)) < 0.3
    llr[special] = rng.choice([0.0, -0.0, LLR_CLIP, -LLR_CLIP, 1e3, -1e3],
                              size=int(special.sum()))
    machines = [ArchitectureConfig(kind=kind, n=n)
                for kind in (ArchKind.FFT_LIKE, ArchKind.PIPELINED_TREE, ArchKind.LINE)]
    machines += [ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=pe)
                 for pe in sorted({n // 4, n // 2} - {0})]
    machines.append(ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n,
                                       overlap_p=data.draw(st.integers(1, n - 1),
                                                           label="P")))
    expected, _ = decode_batch(llr, spec, kernel)
    rate_one = CodeSpec(m=m, frozen=())
    for cfg in machines:
        res = simulate(cfg, llr, spec, kernel)
        assert np.array_equal(res.decoded, expected), cfg
        # dead activations still take their cycles and PEs
        full = simulate(cfg, llr, rate_one, kernel)
        assert res.total_cycles == full.total_cycles, cfg
        assert res.pe_activations == full.pe_activations, cfg
        assert res.occupancy == full.occupancy, cfg


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7])
def test_overlap_parallelism_sweep(p):
    n = 16
    spec = construct_frozen_bec(n, 8, 0.5)
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p)
    _, llr = random_frames(spec, 2 * p + 1, sigma=0.8, seed=p)
    expected, _ = decode_batch(llr, spec, Kernel.LLR_MINSUM)
    res = simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
    assert np.array_equal(res.decoded, expected)


def test_occupancy_respects_budget():
    n = 16
    spec = construct_frozen_bec(n, 8, 0.5)
    _, llr = random_frames(spec, 1, sigma=1.0, seed=4)
    semi = ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=n // 4)
    res = simulate(semi, llr, spec, Kernel.LLR_EXACT)
    for cycle_row in res.occupancy:
        assert sum(len(active) for _, _, active in cycle_row) <= n // 4
    fft = ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=n)
    res = simulate(fft, llr, spec, Kernel.LLR_EXACT)
    for cycle_row in res.occupancy:
        (inst, _, active), = cycle_row
        stage = int(inst.split("_")[1].rstrip("d"))
        assert len(active) == 2 ** stage


def test_tree_pe_activation_counts():
    n = 16
    m = 4
    spec = construct_frozen_bec(n, 8, 0.5)
    _, llr = random_frames(spec, 1, sigma=1.0, seed=5)
    cfg = ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=n)
    res = simulate(cfg, llr, spec, Kernel.LLR_EXACT)
    for l in range(m):
        for q in range(1 << l):
            assert res.pe_activations[f"P_{l},{q}"] == 2 ** (m - l)


def test_line_pe_activation_counts():
    n = 8
    spec = construct_frozen_bec(n, 4, 0.5)
    _, llr = random_frames(spec, 1, sigma=1.0, seed=6)
    cfg = ArchitectureConfig(kind=ArchKind.LINE, n=n)
    res = simulate(cfg, llr, spec, Kernel.LLR_EXACT)
    # PE 0 serves every stage activation; the last PE only the widest stage
    assert res.pe_activations["P_0"] == 2 * n - 2
    assert res.pe_activations[f"P_{n // 2 - 1}"] == 2


def test_fft_every_node_computed_once():
    n = 8
    spec = construct_frozen_bec(n, 4, 0.5)
    _, llr = random_frames(spec, 1, sigma=1.0, seed=7)
    res = simulate(ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=n), llr, spec,
                   Kernel.LLR_EXACT)
    assert sum(res.pe_activations.values()) == n * 3
    assert all(v == 1 for v in res.pe_activations.values())


def _semi(n, pe):
    return ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=pe)


def _overlap(n, p):
    return ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p)


# Recorded from the simulator that counted these inside its arithmetic loop.
# The occupancy digest is the sha256 prefix of json.dumps(res.occupancy).
@pytest.mark.parametrize("cfg, frames, total, period, occupancy_sha, pes", [
    (_semi(16, 4), 3, 96, 32, "228f9be4a68213c8",
     {"P_0": 96, "P_1": 48, "P_2": 24, "P_3": 24}),
    (_semi(16, 8), 3, 90, 30, "e27c5d162e66617c",
     {"P_0": 90, "P_1": 42, "P_2": 18, "P_3": 18, "P_4": 6, "P_5": 6, "P_6": 6,
      "P_7": 6}),
    # two full groups plus a one-vector tail
    (_overlap(8, 3), 7, 46, 16, "9dc6ed0ad15b4a63",
     {"S_0:P_0": 36, "S_0d:P_0": 20, "S_1:P_0": 28, "S_1:P_1": 28, "S_2:P_0": 14,
      "S_2:P_1": 14, "S_2:P_2": 14, "S_2:P_3": 14}),
    # one full group plus a two-vector tail
    (_overlap(16, 5), 7, 66, 35, "5637f1dacd207084",
     {"S_0:P_0": 56, "S_0d2:P_0": 21, "S_0d:P_0": 35, "S_1:P_0": 45, "S_1:P_1": 45,
      "S_1d:P_0": 11, "S_1d:P_1": 11, "S_2:P_0": 28, "S_2:P_1": 28, "S_2:P_2": 28,
      "S_2:P_3": 28, "S_3:P_0": 14, "S_3:P_1": 14, "S_3:P_2": 14, "S_3:P_3": 14,
      "S_3:P_4": 14, "S_3:P_5": 14, "S_3:P_6": 14, "S_3:P_7": 14}),
])
def test_schedule_statistics_pinned(cfg, frames, total, period, occupancy_sha, pes):
    spec = construct_frozen_bec(cfg.n, cfg.n // 2, 0.5)
    _, llr = random_frames(spec, frames, sigma=1.0, seed=11)
    res = simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
    assert (res.total_cycles, res.period_cycles) == (total, period)
    assert len(res.occupancy) == period
    digest = hashlib.sha256(json.dumps(res.occupancy).encode()).hexdigest()
    assert digest[:16] == occupancy_sha
    assert dict(res.pe_activations) == pes


def test_double_booked_schedule_raises_at_runtime():
    n = 4
    spec = construct_frozen_bec(n, 2, 0.5)
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=2)
    entries = [
        ScheduleEntry(cycle=1, stage=1, copy=0, function="f", vector=0, phase=0,
                      active=(0, 1)),
        ScheduleEntry(cycle=1, stage=1, copy=0, function="f", vector=1, phase=0,
                      active=(0, 1)),
    ]
    bad = Schedule(kind=cfg.kind, n=n, vectors=2, total_cycles=1, entries=entries)
    channel = np.zeros((2, n))
    with pytest.raises(SimulationError):
        _run_tree_like(bad, cfg, channel, spec, Kernel.LLR_EXACT)


def test_slots_replaying_different_op_lists_raise_at_compile():
    n = 4
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=2)
    entries = [
        ScheduleEntry(cycle=1, stage=1, copy=0, function="f", vector=0, phase=0,
                      active=(0, 1)),
        ScheduleEntry(cycle=2, stage=1, copy=0, function="g", vector=1, phase=2,
                      active=(0, 1)),
    ]
    bad = Schedule(kind=cfg.kind, n=n, vectors=2, total_cycles=2, entries=entries)
    with pytest.raises(SimulationError, match="different op lists"):
        archsim._compile(bad, cfg)


@pytest.mark.parametrize("kernel", ALL_KERNELS)
@pytest.mark.parametrize("cfg", configs_for(8), ids=lambda cfg: cfg.kind.value)
def test_dead_g_still_clears_its_sites(cfg, kernel):
    # Phase 1 is frozen, so its stage-0 g is dead.  It must still clear the
    # site holding bit 0, which phase 3's g reads back as bit 2 (frozen, 0).
    spec = CodeSpec(m=3, frozen=(1, 2, 4, 5, 6, 7))
    llr = np.array([[6.0, 8.0, -10.0, 8.0, -4.0, 4.0, -2.0, 1.0]])  # a noisy u = 1001 0000
    expected, _ = decode_batch(llr, spec, kernel)
    assert expected.tolist() == [[1, 0, 0, 1, 0, 0, 0, 0]]
    assert np.array_equal(simulate(cfg, llr, spec, kernel).decoded, expected)


def test_simulate_validates_shapes():
    spec = construct_frozen_bec(8, 4, 0.5)
    cfg = ArchitectureConfig(kind=ArchKind.LINE, n=8)
    with pytest.raises(ValueError):
        simulate(cfg, np.zeros((2, 4)), spec, Kernel.LLR_EXACT)
    with pytest.raises(ValueError):
        simulate(ArchitectureConfig(kind=ArchKind.LINE, n=4), np.zeros((1, 4)),
                 spec, Kernel.LLR_EXACT)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_rejects_non_finite(bad):
    spec = construct_frozen_bec(8, 4, 0.5)
    llr = np.full((3, 8), 2.0)
    llr[2, 0] = bad
    for cfg in configs_for(8):
        with pytest.raises(ValueError, match="finite"):
            simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
