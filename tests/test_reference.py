import numpy as np
import pytest

from polarsc import (ArchitectureConfig, ArchKind, CodeSpec, Kernel, LLR_CLIP,
                     construct_frozen_bec, decode, decode_batch, encode,
                     genie_error_counts, simulate)
from polarsc.kernels import g_llr

from conftest import oracle_phase_decision, random_frames, recursive_sc

KERNELS = [Kernel.LR_EXACT, Kernel.LLR_EXACT, Kernel.LLR_MINSUM]


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
@pytest.mark.parametrize("kernel", KERNELS)
def test_noiseless_frames_decode_exactly(n, kernel, rng):
    spec = construct_frozen_bec(n, max(1, n // 2), 0.5)
    u = np.zeros((20, n), dtype=np.uint8)
    u[:, spec.info_indices] = rng.integers(0, 2, size=(20, spec.k), dtype=np.uint8)
    llr = 5.0 * (1.0 - 2.0 * encode(u, spec).astype(np.float64))
    u_hat, c_hat = decode_batch(kernel.from_llr(llr), spec, kernel)
    assert np.array_equal(u_hat, u)
    assert np.array_equal(c_hat, encode(u, spec))


def test_n2_hand_traced_chain(rng):
    # frozen bit 0: phase 1 sees g(L0, L1, 0) = L0 + L1
    spec = CodeSpec(m=1, frozen=(0,))
    for _ in range(50):
        llr = rng.normal(size=2) * 3
        u_hat, _ = decode(llr, spec, Kernel.LLR_EXACT)
        expected = 0 if g_llr(llr[0], llr[1], 0) > 0 else 1
        assert u_hat.tolist() == [0, expected]


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("kernel", [Kernel.LLR_EXACT, Kernel.LR_EXACT])
def test_phase_decisions_match_exhaustive_oracle(n, kernel, rng):
    for trial in range(25):
        k = int(rng.integers(1, n + 1))
        if trial % 2:
            spec = construct_frozen_bec(n, k, 0.5)
        else:
            frozen = tuple(sorted(rng.choice(n, size=n - k, replace=False).tolist()))
            spec = CodeSpec(m=n.bit_length() - 1, frozen=frozen)
        _, llr = random_frames(spec, 1, sigma=1.0 + rng.random(), seed=int(rng.integers(1 << 30)))
        llr = llr[0]
        u_hat, _ = decode(kernel.from_llr(llr), spec, kernel)
        for i in range(n):
            assert u_hat[i] == oracle_phase_decision(llr, u_hat[:i], i, spec), (
                n, trial, i)


def test_lr_and_llr_kernels_agree(rng):
    # 1000 noisy frames spread over three sizes
    for n, count in ((16, 400), (64, 350), (256, 250)):
        spec = construct_frozen_bec(n, n // 2, 0.5)
        _, llr = random_frames(spec, count, sigma=1.0, seed=int(rng.integers(1 << 30)))
        u_lr, _ = decode_batch(Kernel.LR_EXACT.from_llr(llr), spec, Kernel.LR_EXACT)
        u_llr, _ = decode_batch(Kernel.LLR_EXACT.from_llr(llr), spec, Kernel.LLR_EXACT)
        assert np.array_equal(u_lr, u_llr)


def test_batch_equals_sequential(rng):
    spec = construct_frozen_bec(16, 8, 0.5)
    _, llr = random_frames(spec, 10, sigma=0.9, seed=5)
    batch, _ = decode_batch(llr, spec, Kernel.LLR_MINSUM)
    singles = np.stack([decode(f, spec, Kernel.LLR_MINSUM)[0] for f in llr])
    assert np.array_equal(batch, singles)


def test_codeword_output_is_reencoded_message(rng):
    spec = construct_frozen_bec(32, 16, 0.5)
    _, llr = random_frames(spec, 50, sigma=1.2, seed=9)
    u_hat, c_hat = decode_batch(llr, spec, Kernel.LLR_EXACT)
    assert np.array_equal(c_hat, encode(u_hat, spec))


def test_decode_rejects_bad_length():
    spec = CodeSpec(m=2, frozen=())
    with pytest.raises(ValueError):
        decode(np.zeros(3), spec, Kernel.LLR_EXACT)


def test_genie_counts_reproducible_and_sized():
    a = genie_error_counts(8, 1.0, trials=400, seed=2)
    b = genie_error_counts(8, 1.0, trials=400, seed=2)
    assert np.array_equal(a, b)
    assert a.shape == (8,)
    assert a.max() <= 400
    # the all-f chain is the least reliable position at this noise level
    assert a[0] == a.max()


def edge_case_llrs(n, count, rng):
    """Noisy log-ratios with exact zeros, saturated values and values past
    the clip, so ties and saturation reach every stage."""
    llr = rng.normal(scale=4.0, size=(count, n))
    pick = rng.random(size=llr.shape)
    llr[pick < 0.15] = 0.0
    llr[(pick >= 0.15) & (pick < 0.25)] = LLR_CLIP
    llr[(pick >= 0.25) & (pick < 0.35)] = -LLR_CLIP
    llr[(pick >= 0.35) & (pick < 0.4)] = -3 * LLR_CLIP
    llr[-1] = 0.0  # an all-tie frame
    return llr


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("m", range(1, 11))
def test_decode_batch_equals_fft_and_line_machines(m, kernel):
    # both machines run the simulator's executor, which shares no code with
    # the reference decoder's loop
    n = 1 << m
    rng = np.random.default_rng(1000 + 10 * m + KERNELS.index(kernel))
    for k in (0, n, int(rng.integers(1, n + 1))):
        frozen = tuple(sorted(rng.choice(n, size=n - k, replace=False).tolist()))
        spec = CodeSpec(m=m, frozen=frozen)
        llr = edge_case_llrs(n, 6, rng)
        u_hat, c_hat = decode_batch(kernel.from_llr(llr), spec, kernel)
        assert np.array_equal(c_hat, encode(u_hat, spec))
        for kind in (ArchKind.FFT_LIKE, ArchKind.LINE):
            got = simulate(ArchitectureConfig(kind=kind, n=n), llr, spec, kernel)
            assert np.array_equal(got.decoded, u_hat), (kind, k)


def oracle_machines(n):
    cfgs = [ArchitectureConfig(kind=kind, n=n)
            for kind in (ArchKind.FFT_LIKE, ArchKind.PIPELINED_TREE, ArchKind.LINE)]
    cfgs += [ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=pe)
             for pe in (n // 4, n // 2) if pe >= 1]
    cfgs += [ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p)
             for p in sorted({1, 3, n - 1}) if p < n]
    return cfgs


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("m", range(1, 9))
def test_recursive_oracle_matches_reference_and_machines(m, kernel):
    # the textbook recursion shares no index scheme with the tree decoder
    # or the machines' executor
    n = 1 << m
    rng = np.random.default_rng(2000 + 10 * m + KERNELS.index(kernel))
    for k in (0, 1, int(rng.integers(1, n + 1)), n):
        frozen = tuple(sorted(rng.choice(n, size=n - k, replace=False).tolist()))
        spec = CodeSpec(m=m, frozen=frozen)
        llr = edge_case_llrs(n, 5, rng)
        values = kernel.from_llr(llr)
        u_ref, c_ref = recursive_sc(values, spec.frozen_mask, kernel)
        u_hat, c_hat = decode_batch(values, spec, kernel)
        assert np.array_equal(u_hat, u_ref) and np.array_equal(c_hat, c_ref), k
        for cfg in oracle_machines(n):
            got = simulate(cfg, llr, spec, kernel)
            assert np.array_equal(got.decoded, u_ref), (cfg, k)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("kernel", [Kernel.LLR_EXACT, Kernel.LR_EXACT])
def test_recursive_oracle_matches_exhaustive_oracle(n, kernel, rng):
    for _ in range(25):
        k = int(rng.integers(0, n + 1))
        frozen = tuple(sorted(rng.choice(n, size=n - k, replace=False).tolist()))
        spec = CodeSpec(m=n.bit_length() - 1, frozen=frozen)
        _, llr = random_frames(spec, 1, sigma=1.0 + rng.random(),
                               seed=int(rng.integers(1 << 30)))
        u_hat, _ = recursive_sc(kernel.from_llr(llr), spec.frozen_mask, kernel)
        for i in range(n):
            assert u_hat[0, i] == oracle_phase_decision(llr[0], u_hat[0, :i], i, spec)


def test_genie_counts_golden_n64():
    # recorded from the graph-row decoder this one replaced
    assert genie_error_counts(64, 0.9, trials=600, seed=7).tolist() == [
        312, 316, 293, 317, 283, 286, 290, 212, 336, 311, 266, 188, 253, 135, 102, 26,
        299, 255, 262, 123, 219, 112, 78, 16, 195, 64, 53, 6, 34, 4, 1, 0,
        305, 234, 198, 80, 193, 66, 44, 1, 145, 35, 25, 4, 19, 3, 0, 0,
        102, 16, 13, 0, 10, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kernel", KERNELS)
def test_decode_rejects_non_finite(kernel, bad):
    spec = construct_frozen_bec(8, 4, 0.5)
    values = kernel.from_llr(np.full((2, 8), 3.0))
    values[1, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        decode_batch(values, spec, kernel)
