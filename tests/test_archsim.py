import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsc import (CodeSpec, Kernel, archsim, bit_reverse_permutation,
                     construct_frozen_bec, cycles_per_vector, decode_batch, simulate)
from polarsc.archsim import SimulationError
from polarsc.kernels import LLR_CLIP
from polarsc.schedule import ArchKind, ArchitectureConfig, Schedule, build_schedule

from conftest import random_frames, recursive_sc

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
    with pytest.raises(ValueError):
        first.schedule.entries[0] = 1
    assert first.pe_activations == second.pe_activations
    assert first.pe_activations is not second.pe_activations
    first.pe_activations["S_0:P_0"] += 1
    assert simulate(cfg, llr, spec, Kernel.LLR_MINSUM).pe_activations == \
        second.pe_activations


def test_a_kind_given_by_its_value_simulates_that_machine():
    # kind="fft" used to report the line machine's 4 PEs
    spec = construct_frozen_bec(8, 4, 0.5)
    _, llr = random_frames(spec, 2, sigma=1.0, seed=3)
    res = simulate(ArchitectureConfig(kind="fft", n=8), llr, spec, Kernel.LLR_MINSUM)
    graph = simulate(ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=8), llr, spec,
                     Kernel.LLR_MINSUM)
    assert len(res.pe_activations) == 24 and all(pe.startswith("N_")
                                                  for pe in res.pe_activations)
    assert res.pe_activations == graph.pe_activations


def test_programs_are_freed_with_their_config():
    spec = construct_frozen_bec(8, 4, 0.5)
    _, llr = random_frames(spec, 3, sigma=1.0, seed=4)
    archsim._programs.clear()
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8, overlap_p=3)
    res = simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
    assert list(archsim._programs) == [cfg] and res.schedule.cfg == cfg
    del cfg, res
    assert len(archsim._programs) == 0


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
    expected, c_hat = decode_batch(llr, spec, kernel)
    u_ref, c_ref = recursive_sc(kernel.from_llr(llr), spec.frozen_mask, kernel)
    assert np.array_equal(expected, u_ref) and np.array_equal(c_hat, c_ref)
    rate_one = CodeSpec(m=m, frozen=())
    for cfg in machines:
        res = simulate(cfg, llr, spec, kernel)
        assert np.array_equal(res.decoded, expected), cfg
        # dead activations still take their cycles and PEs
        full = simulate(cfg, llr, rate_one, kernel)
        assert res.total_cycles == full.total_cycles, cfg
        assert res.pe_activations == full.pe_activations, cfg
        assert res.occupancy == full.occupancy, cfg


@pytest.mark.parametrize("m", range(1, 8))
@settings(deadline=None, derandomize=True, max_examples=8)
@given(data=st.data())
def test_every_accepted_config_decodes_like_the_oracle(m, data):
    # every kind at every PE budget the config accepts, and a drawn P: the
    # single-vector machines take the modelled cycles per frame
    n = 1 << m
    spec = data.draw(_frozen_sets(n), label="spec")
    kernel = data.draw(st.sampled_from(ALL_KERNELS), label="kernel")
    frames = data.draw(st.integers(1, 7), label="frames")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    llr = rng.normal(0.0, 3.0, (frames, n))
    machines = [ArchitectureConfig(kind=kind, n=n)
                for kind in (ArchKind.FFT_LIKE, ArchKind.PIPELINED_TREE, ArchKind.LINE)]
    machines += [ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=1 << p)
                 for p in range(m)]
    machines.append(ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n,
                                       overlap_p=data.draw(st.integers(1, n - 1),
                                                           label="P")))
    u_ref, _ = recursive_sc(kernel.from_llr(llr), spec.frozen_mask, kernel)
    for cfg in machines:
        res = simulate(cfg, llr, spec, kernel)
        assert np.array_equal(res.decoded, u_ref), cfg
        if cfg.kind is not ArchKind.VECTOR_OVERLAP:
            assert res.total_cycles == frames * cycles_per_vector(cfg.kind, n,
                                                                  cfg.pe_count), cfg


def _maximal_rate1_nodes(mask):
    """(i0, L) of every maximal all-information block [i0, i0 + 2**L), L >= 1."""
    nodes = []

    def visit(lo, size):
        if not mask[lo:lo + size].any():
            if size > 1:
                nodes.append((lo, size.bit_length() - 1))
        elif size > 1:
            visit(lo, size // 2)
            visit(lo + size // 2, size // 2)

    visit(0, len(mask))
    return nodes


@pytest.mark.parametrize("m", range(1, 9))
@settings(deadline=None, derandomize=True, max_examples=6)
@given(data=st.data())
def test_minsum_rate1_shortcut_matches_the_oracle(m, data):
    # min-sum decides a tie-free rate-1 node by hard decision; a batch with
    # one +/-0.0 inside a node runs that node in full
    n = 1 << m
    spec = data.draw(st.one_of(
        _frozen_sets(n),
        st.integers(1, n).map(lambda k: construct_frozen_bec(n, k, 0.5))), label="spec")
    frames = data.draw(st.integers(1, 7), label="frames")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    llr = rng.normal(0.0, 3.0, (frames, n))
    special = rng.random((frames, n)) < 0.2
    llr[special] = rng.choice([LLR_CLIP, -LLR_CLIP, 1e3, -1e3, 1e-300, -1e-300],
                              size=int(special.sum()))
    llr[llr == 0.0] = 1.0
    batches = [llr]
    nodes = _maximal_rate1_nodes(spec.frozen_mask)
    if nodes:
        i0, top = nodes[int(rng.integers(len(nodes)))]
        # zero every channel value feeding one position of the node's level:
        # f and g of two zeros are zero, so the node's input holds a zero
        feed = int(rng.integers(1 << top)) + (np.arange(n >> top) << top)
        tie = llr.copy()
        tie[int(rng.integers(frames)), bit_reverse_permutation(m)[feed]] = \
            rng.choice([0.0, -0.0], size=len(feed))
        batches.append(tie)
    machines = [ArchitectureConfig(kind=kind, n=n)
                for kind in (ArchKind.FFT_LIKE, ArchKind.PIPELINED_TREE, ArchKind.LINE)]
    machines += [
        ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n,
                           pe_count=1 << data.draw(st.integers(0, m - 1), label="pe")),
        ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n,
                           overlap_p=data.draw(st.integers(1, min(n - 1, 5)), label="P"))]
    kernel = Kernel.LLR_MINSUM
    for batch in batches:
        u_ref, c_ref = recursive_sc(kernel.from_llr(batch), spec.frozen_mask, kernel)
        u_hat, c_hat = decode_batch(batch, spec, kernel)
        assert np.array_equal(u_hat, u_ref) and np.array_equal(c_hat, c_ref)
        for cfg in machines:
            assert np.array_equal(simulate(cfg, batch, spec, kernel).decoded, u_ref), cfg


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


def test_double_booked_schedule_raises_at_runtime(monkeypatch):
    # two slots run every step in the same cycles on the same stage copies
    n = 4
    cfg = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=2)
    bad = Schedule(cfg=cfg, cycles=[range(1, 7)] * 2, copies=np.zeros((2, 6)))
    archsim._programs.clear()
    monkeypatch.setattr(archsim, "build_schedule", lambda cfg, vectors=None: bad)
    spec = construct_frozen_bec(n, 2, 0.5)
    _, llr = random_frames(spec, 2, sigma=1.0, seed=5)
    with pytest.raises(SimulationError, match="claimed by"):
        simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
    assert not archsim._programs.get(cfg)  # nothing cached


def test_slot_stopping_early_raises_at_compile():
    # a slot that stops early is a row short of the step list, which the
    # step table rejects when it is built, before any compile
    cfg = ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=8)
    sched = build_schedule(cfg)
    with pytest.raises(ValueError, match="one row of 14 steps"):
        Schedule(cfg=cfg, cycles=sched.cycles[:, :-1], copies=sched.copies[:, :-1])


@pytest.mark.parametrize("kernel", ALL_KERNELS)
@pytest.mark.parametrize("cfg", configs_for(8), ids=lambda cfg: cfg.kind.value)
def test_dead_g_still_clears_its_sites(cfg, kernel):
    # Phase 1 is frozen, so its stage-0 g is dead and decides 0.  The
    # partial sums it folds, its sites, must leave no stale bit for phase 3:
    # phase 3's g reads the sum of bit 2 (frozen, 0) alone, not bit 0.
    spec = CodeSpec(m=3, frozen=(1, 2, 4, 5, 6, 7))
    llr = np.array([[6.0, 8.0, -10.0, 8.0, -4.0, 4.0, -2.0, 1.0]])  # a noisy u = 1001 0000
    expected, _ = decode_batch(llr, spec, kernel)
    assert expected.tolist() == [[1, 0, 0, 1, 0, 0, 0, 0]]
    u_ref, _ = recursive_sc(kernel.from_llr(llr), spec.frozen_mask, kernel)
    assert np.array_equal(u_ref, expected)
    assert np.array_equal(simulate(cfg, llr, spec, kernel).decoded, expected)


def test_simulate_validates_shapes():
    spec = construct_frozen_bec(8, 4, 0.5)
    cfg = ArchitectureConfig(kind=ArchKind.LINE, n=8)
    with pytest.raises(ValueError):
        simulate(cfg, np.zeros((2, 4)), spec, Kernel.LLR_EXACT)
    with pytest.raises(ValueError):
        simulate(ArchitectureConfig(kind=ArchKind.LINE, n=4), np.zeros((1, 4)),
                 spec, Kernel.LLR_EXACT)
    for bad in (np.zeros((2, 3, 8)), np.zeros((8, 1)), 1.0):
        with pytest.raises(ValueError, match=r"got shape \("):
            simulate(cfg, bad, spec, Kernel.LLR_EXACT)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_rejects_non_finite(bad):
    spec = construct_frozen_bec(8, 4, 0.5)
    llr = np.full((3, 8), 2.0)
    llr[2, 0] = bad
    for cfg in configs_for(8):
        with pytest.raises(ValueError, match="finite"):
            simulate(cfg, llr, spec, Kernel.LLR_MINSUM)
