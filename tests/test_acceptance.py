"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import functools
import time

import numpy as np
import pytest

from polarsc import (CampaignStop, CodeSpec, Kernel, butterfly_transform,
                     construct_frozen_bec, decode_batch, encode, run_campaign,
                     simulate, stage_duplication_count, table_report, throughput)
from polarsc.complexity import CostParams, node_processor_count, register_count
from polarsc.schedule import (ArchKind, ArchitectureConfig, build_schedule,
                              check_no_conflict, register_liveness)

from conftest import oracle_phase_decision, random_frames
from test_schedule import (DECISION_CYCLES_N8, OVERLAP_GRID_N8_P3,
                           SINGLE_VECTOR_GRID_N8, flatten)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} FAIL: {desc} ({time.time() - start:.1f}s)")
                raise
            print(f"\nACCEPTANCE {num} PASS: {desc} ({time.time() - start:.1f}s)")
        return wrapper
    return deco


@criterion(1, "schedule fidelity: published 14-cycle and 16-cycle grids, exact")
def test_criterion_1_schedule_fidelity():
    expected_fn = flatten(SINGLE_VECTOR_GRID_N8)
    for kind in (ArchKind.PIPELINED_TREE, ArchKind.LINE):
        sched = build_schedule(ArchitectureConfig(kind=kind, n=8))
        assert sched.total_cycles == 14
        assert sched.function_grid() == expected_fn
        assert sched.decision_cycles() == DECISION_CYCLES_N8
    overlap = build_schedule(ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8,
                                                overlap_p=3))
    assert overlap.total_cycles == 16
    assert overlap.occupancy_grid() == flatten(OVERLAP_GRID_N8_P3)


@criterion(2, "cycle counts: 2n-2 for full machines, 2n at quarter budget")
def test_criterion_2_cycle_counts():
    for n in (4, 8, 16, 64, 256, 1024):
        spec = construct_frozen_bec(n, n // 2, 0.5)
        _, llr = random_frames(spec, 1, sigma=1.0, seed=n)
        for kind in (ArchKind.FFT_LIKE, ArchKind.PIPELINED_TREE, ArchKind.LINE):
            cfg = ArchitectureConfig(kind=kind, n=n)
            assert simulate(cfg, llr, spec, Kernel.LLR_MINSUM).total_cycles == 2 * n - 2
        semi = ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=n // 4)
        assert simulate(semi, llr, spec, Kernel.LLR_MINSUM).total_cycles == 2 * n


@criterion(3, "oracle equivalence: all machines x kernels x sizes, 1000 frames, "
              "zero mismatches")
def test_criterion_3_oracle_equivalence():
    for n in (4, 8, 16, 64, 256):
        spec = construct_frozen_bec(n, n // 2, 0.5)
        _, llr = random_frames(spec, 1000, sigma=0.9, seed=3000 + n)
        configs = [ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=n),
                   ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=n),
                   ArchitectureConfig(kind=ArchKind.LINE, n=n),
                   ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n,
                                      pe_count=n // 4),
                   ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n,
                                      overlap_p=3)]
        for kernel in Kernel:
            expected, _ = decode_batch(llr, spec, kernel)
            for cfg in configs:
                decoded = simulate(cfg, llr, spec, kernel).decoded
                mismatches = int((decoded != expected).sum())
                assert mismatches == 0, (n, cfg.kind, kernel, mismatches)


@criterion(4, "reference decoder equals exhaustive marginalization, "
              "200 realizations per size")
def test_criterion_4_brute_force_equivalence():
    rng = np.random.default_rng(4)
    for n in (2, 4, 8):
        spec = construct_frozen_bec(n, max(1, n // 2), 0.5)
        for _ in range(200):
            _, llr = random_frames(spec, 1, sigma=1.0 + rng.random(),
                                   seed=int(rng.integers(1 << 30)))
            llr = llr[0]
            u_hat, _ = decode_batch(llr[None, :], spec, Kernel.LLR_EXACT)
            u_hat = u_hat[0]
            for i in range(n):
                assert u_hat[i] == oracle_phase_decision(llr, u_hat[:i], i, spec)


@criterion(5, "complexity and throughput closed forms, exact arithmetic")
def test_criterion_5_complexity():
    unit_time = CostParams(c_np=2, c_r=1, c_mux=0.25, c_us=0.5, t_np=1.0)
    for n, p in ((8, 3), (1024, 7)):
        report = table_report(n, p, unit_time)
        rows = {r["kind"]: r for r in report.rows}
        m = n.bit_length() - 1
        assert rows["fft"]["node_processors"] == n * m
        assert rows["fft"]["registers"] == n * (1 + m)
        assert rows["tree"]["node_processors"] == 2 * n - 2
        assert rows["tree"]["registers"] == 2 * n - 1
        assert rows["line"]["node_processors"] == n
        assert rows["line"]["registers"] == 2 * n - 1
        assert rows["overlap"]["registers"] == p * (2 * n - 1)
        half = (p + 1) / 2
        assert rows["overlap"]["node_processors"] == pytest.approx(
            2 * (n + half * (np.log2(half) - 1)))
        for kind in ("fft", "tree", "line"):
            assert rows[kind]["throughput_exact"] == pytest.approx(n / (2 * n - 2))
            assert rows[kind]["throughput_approx"] == pytest.approx(0.5)
        assert rows["overlap"]["throughput_exact"] == pytest.approx(
            p * n / (2 * n - 2))
        assert rows["overlap"]["throughput_approx"] == pytest.approx(p / 2)
    # spot values evaluated by hand
    assert node_processor_count("fft", 8) == 24
    assert register_count("fft", 8) == 32
    assert node_processor_count("overlap", 8, 3) == pytest.approx(16.0)
    assert throughput("tree", 8, t_np=1.0)["exact"] == pytest.approx(8 / 14)
    assert throughput("semi", 8, t_np=1.0, pe_count=2)["exact"] == pytest.approx(0.5)


@criterion(6, "stage duplication counts match the ceiling rule, P=3 duplicates "
              "only stage 0")
def test_criterion_6_stage_duplication():
    assert [stage_duplication_count(l, 3) for l in range(3)] == [2, 1, 1]
    for p in range(1, 32):
        for l in range(8):
            assert stage_duplication_count(l, p) == int(
                np.ceil((p + 1) / 2 ** (l + 1)))


@criterion(7, "min-sum vs exact: paired-seed FER ratio in [0.8, 1.25] at "
              "n=1024, k=512")
def test_criterion_7_minsum_claim():
    spec = construct_frozen_bec(1024, 512, 0.5)
    points = [1.5, 2.0, 2.5]
    stop = CampaignStop(max_frames=10**6, min_frame_errors=100)
    exact = run_campaign(spec, Kernel.LLR_EXACT, points, stop, seed=77)
    minsum = run_campaign(spec, Kernel.LLR_MINSUM, points, stop, seed=77)
    for pe, pm in zip(exact.points, minsum.points):
        assert pe.frame_errors >= 100, f"{pe.ebn0_db} dB starved of frame errors"
        assert pm.frame_errors >= 100
        ratio = pm.fer / pe.fer
        assert 0.8 <= ratio <= 1.25, (pe.ebn0_db, ratio)


@criterion(8, "structural invariants: liveness, conflict-freedom, involution, "
              "linearity")
def test_criterion_8_structural_invariants():
    sizes = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    for n in sizes:
        for kind in (ArchKind.PIPELINED_TREE, ArchKind.LINE):
            cfg = ArchitectureConfig(kind=kind, n=n)
            sched = build_schedule(cfg)
            assert register_liveness(sched).ok, (kind, n)
            assert check_no_conflict(sched) == [], (kind, n)
        fft = ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=n)
        assert check_no_conflict(build_schedule(fft)) == []
        semi = ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=n // 4)
        assert check_no_conflict(build_schedule(semi)) == []
        for p in range(1, 8):
            if p > n - 1:
                continue
            ov = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p)
            assert check_no_conflict(build_schedule(ov)) == [], (n, p)

    rng = np.random.default_rng(8)
    for n in (2, 4, 8, 16):
        if n <= 8:
            blocks = np.array([[(w >> b) & 1 for b in range(n)]
                               for w in range(1 << n)], dtype=np.uint8)
        else:
            blocks = rng.integers(0, 2, size=(500, n), dtype=np.uint8)
        assert np.array_equal(butterfly_transform(butterfly_transform(blocks)),
                              blocks)
    for m in (2, 4, 6):
        spec = CodeSpec(m=m, frozen=())
        u = rng.integers(0, 2, size=(100, 1 << m), dtype=np.uint8)
        v = rng.integers(0, 2, size=(100, 1 << m), dtype=np.uint8)
        assert np.array_equal(encode(u ^ v, spec), encode(u, spec) ^ encode(v, spec))
