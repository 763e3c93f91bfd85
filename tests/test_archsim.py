import hashlib
import json

import numpy as np
import pytest

from polarsc import Kernel, construct_frozen_bec, decode_batch, simulate
from polarsc.archsim import SimulationError, _run_tree_like
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
    expected, _ = decode_batch(kernel.from_llr(llr), spec, kernel)
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
    bad = Schedule(kind=cfg.kind, n=n, vectors=2, total_cycles=1, entries=entries,
                   overlap_p=2)
    channel = [np.zeros((1, n)), np.zeros((1, n))]
    with pytest.raises(SimulationError):
        _run_tree_like(bad, cfg, channel, spec, Kernel.LLR_EXACT)


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
