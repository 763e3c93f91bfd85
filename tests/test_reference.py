import gc
import hashlib
import re
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from polarsc import (ArchitectureConfig, ArchKind, CampaignStop, CodeSpec, Kernel, LLR_CLIP,
                     bit_reverse_permutation,
                     construct_frozen_bec, decode, decode_batch, encode,
                     genie_error_counts, run_campaign, simulate)
from polarsc import channel, kernels, reference

from conftest import (oracle_phase_decision, random_frames, recursive_sc,
                      single_vector_ops)

KERNELS = [Kernel.LR_EXACT, Kernel.LLR_EXACT, Kernel.LLR_MINSUM]


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
@pytest.mark.parametrize("kernel", KERNELS)
def test_noiseless_frames_decode_exactly(n, kernel, rng):
    spec = construct_frozen_bec(n, max(1, n // 2), 0.5)
    u = np.zeros((20, n), dtype=np.uint8)
    u[:, spec.info_indices] = rng.integers(0, 2, size=(20, spec.k), dtype=np.uint8)
    llr = 5.0 * (1.0 - 2.0 * encode(u, spec).astype(np.float64))
    u_hat, c_hat = decode_batch(llr, spec, kernel)
    assert np.array_equal(u_hat, u)
    assert np.array_equal(c_hat, encode(u, spec))


def test_n2_hand_traced_chain(rng):
    # frozen bit 0: phase 1 sees g(L0, L1, 0) = L0 + L1
    spec = CodeSpec(m=1, frozen=(0,))
    for _ in range(50):
        llr = rng.normal(size=2) * 3
        u_hat, _ = decode(llr, spec, Kernel.LLR_EXACT)
        expected = 0 if Kernel.LLR_EXACT.g(llr[0], llr[1], 0) > 0 else 1
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
        u_hat, _ = decode(llr, spec, kernel)
        for i in range(n):
            assert u_hat[i] == oracle_phase_decision(llr, u_hat[:i], i, spec), (
                n, trial, i)


def test_lr_and_llr_kernels_agree(rng):
    # 1000 noisy frames spread over three sizes
    for n, count in ((16, 400), (64, 350), (256, 250)):
        spec = construct_frozen_bec(n, n // 2, 0.5)
        _, llr = random_frames(spec, count, sigma=1.0, seed=int(rng.integers(1 << 30)))
        u_lr, _ = decode_batch(llr, spec, Kernel.LR_EXACT)
        u_llr, _ = decode_batch(llr, spec, Kernel.LLR_EXACT)
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
    # decode takes one (n,) frame; the error names the shape it got
    spec = CodeSpec(m=2, frozen=())
    for bad in (np.zeros(3), np.zeros((2, 4)), np.zeros((1, 4)), 1.0):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(bad)}")):
            decode(bad, spec, Kernel.LLR_EXACT)


@pytest.mark.parametrize("bad", [np.ones((2, 3, 8)), np.ones((8, 1)), np.ones((2, 7)), 1.0])
def test_decode_batch_rejects_bad_shapes(bad):
    spec = construct_frozen_bec(8, 4, 0.5)
    with pytest.raises(ValueError, match=r"\(batch, 8\), got shape"):
        decode_batch(bad, spec, Kernel.LLR_MINSUM)


@pytest.mark.parametrize("dtype", [complex, str, object])
def test_decoders_reject_log_ratios_of_no_real_dtype(dtype):
    # complex input used to warn and lose its imaginary part, and "1" to
    # decode as 1.0
    spec = construct_frozen_bec(8, 4, 0.5)
    llr = np.ones((2, 8)).astype(dtype)
    for call in (lambda: decode_batch(llr, spec, Kernel.LLR_MINSUM),
                 lambda: decode(llr[0], spec, Kernel.LLR_EXACT)):
        with pytest.raises(ValueError, match=f"got dtype {llr.dtype}"):
            call()


def test_decode_batch_takes_one_frame_or_a_batch():
    spec = construct_frozen_bec(8, 4, 0.5)
    _, llr = random_frames(spec, 3, sigma=0.9, seed=4)
    u_hat, _ = decode_batch(llr, spec, Kernel.LLR_MINSUM)
    assert np.array_equal(decode_batch(llr[1], spec, Kernel.LLR_MINSUM)[0], u_hat[1:2])
    assert decode_batch(llr[:0], spec, Kernel.LLR_MINSUM)[0].shape == (0, 8)


def test_minsum_rate1_shortcut_is_taken(monkeypatch, rng):
    # a tie-free rate-1 code is decided by hard decision with no f call; one
    # exact zero sends its frame one step down at each level on the zero's
    # path (a zero f result keeps failing the floor), m f calls
    calls = []
    kernel = Kernel.LLR_MINSUM
    real_f = kernel.f_into

    def counting_f(*args):
        calls.append(1)
        real_f(*args)

    monkeypatch.setattr(kernel, "f_into", counting_f)
    for m in range(1, 9):
        spec = CodeSpec(m=m, frozen=())
        llr = rng.normal(0.0, 3.0, size=(20, spec.n))
        llr[llr == 0.0] = 1.0
        calls.clear()
        _, c_hat = decode_batch(llr, spec, kernel)
        assert not calls, m
        assert np.array_equal(c_hat, kernel.hard_decision(llr))
        if m == 6:
            llr[7, 40] = 0.0
            calls.clear()
            u_hat, c_hat = decode_batch(llr, spec, kernel)
            assert len(calls) == spec.m
            u_ref, c_ref = recursive_sc(kernel.from_llr(llr), spec.frozen_mask, kernel)
            assert np.array_equal(u_hat, u_ref) and np.array_equal(c_hat, c_ref)


@pytest.mark.parametrize("kernel, f_name", [(Kernel.LLR_MINSUM, "_f_minsum_into"),
                                            (Kernel.LLR_EXACT, "_f_llr_exact_into")])
def test_rate1_fallback_decodes_only_the_frames_below_the_floor(monkeypatch, rng, kernel,
                                                               f_name):
    # a frame with a value at or below a rate-1 node's floor is re-decoded
    # on its own, one SC step down with each child a rate-1 node again: the
    # node's f steps see only those frames, and the other frames keep the
    # node's hard decision
    widths = []
    real_f = kernel.f_into
    assert real_f is getattr(kernels, f_name)  # the member's record names its f

    def spy(a, b, out, scratch):
        widths.append(a.shape[1])
        real_f(a, b, out, scratch)

    spec = CodeSpec(m=6, frozen=())
    floor = kernel.rate1_floors[spec.m]
    llr = rng.choice([-1.0, 1.0], (20, spec.n)) * (floor + 1.0 + rng.random((20, spec.n)))
    llr[3, 5], llr[11, 60] = floor, -0.0
    u_ref, c_ref = recursive_sc(kernel.from_llr(llr), spec.frozen_mask, kernel)
    monkeypatch.setattr(kernel, "f_into", spy)
    u_hat, c_hat = decode_batch(llr, spec, kernel)
    # min-sum's floor is 0, so both frames hold a zero and every split on
    # its path fails again; the exact kernel's frame at t_6 clears the
    # floors of its children after one split, and only the -0.0 goes down
    assert widths == ([2] * 6 if kernel is Kernel.LLR_MINSUM else [2] + [1] * 5)
    assert np.array_equal(u_hat, u_ref) and np.array_equal(c_hat, c_ref)
    keep = np.setdiff1d(np.arange(20), [3, 11])
    assert np.array_equal(c_hat[keep], kernel.hard_decision(llr[keep]))
    # with no frame below the floor, no f step runs at all
    widths.clear()
    assert np.array_equal(decode_batch(llr[keep], spec, kernel)[1], c_hat[keep])
    assert widths == []
    # with several rate-1 nodes, the plan's own f steps see the whole batch
    # and each fallback's see fewer frames, at least the two all-zero ones
    spec = construct_frozen_bec(64, 48, 0.5)
    llr = rng.normal(0.0, 2.0, (20, spec.n))
    llr[[2, 9]] = 0.0
    u_ref, c_ref = recursive_sc(kernel.from_llr(llr), spec.frozen_mask, kernel)
    widths.clear()
    u_hat, c_hat = decode_batch(llr, spec, kernel)
    assert np.array_equal(u_hat, u_ref) and np.array_equal(c_hat, c_ref)
    assert widths.count(20) == reference._plan(spec, True)[0::4].count(reference._F)
    fallback = [w for w in widths if w != 20]
    assert fallback and all(2 <= w < 20 for w in fallback)


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
    # both machines run the reference decoder's loop once their schedules
    # pass the compile check; this checks that they pass it at every m, the
    # recursive oracle below checks the loop
    n = 1 << m
    rng = np.random.default_rng(1000 + 10 * m + KERNELS.index(kernel))
    for k in (0, n, int(rng.integers(1, n + 1))):
        frozen = tuple(sorted(rng.choice(n, size=n - k, replace=False).tolist()))
        spec = CodeSpec(m=m, frozen=frozen)
        llr = edge_case_llrs(n, 6, rng)
        u_hat, c_hat = decode_batch(llr, spec, kernel)
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

    def check(frozen):
        spec = CodeSpec(m=m, frozen=frozen)
        llr = edge_case_llrs(n, 5, rng)
        values = kernel.from_llr(llr)
        u_ref, c_ref = recursive_sc(values, spec.frozen_mask, kernel)
        u_hat, c_hat = decode_batch(llr, spec, kernel)
        assert np.array_equal(u_hat, u_ref) and np.array_equal(c_hat, c_ref), frozen
        for cfg in oracle_machines(n):
            got = simulate(cfg, llr, spec, kernel)
            assert np.array_equal(got.decoded, u_ref), (cfg, frozen)

    for k in (0, 1, int(rng.integers(1, n + 1)), n):
        check(tuple(sorted(rng.choice(n, size=n - k, replace=False).tolist())))
    # structured codes: the repetition code, whose every g follows a rate-0
    # sibling, every even phase frozen, and the first half frozen
    for frozen in (range(n - 1), range(0, n, 2), range(n // 2)):
        check(tuple(frozen))


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


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("m", range(1, 9))
def test_genie_mode_returns_the_forced_codeword(m, kernel, rng):
    # the recursive oracle's genie mode propagates the forced bits into
    # their codeword whatever its raw decisions were, and the stage-wide
    # evaluator counts at each phase the frames whose decision misses
    n = 1 << m
    spec = CodeSpec(m=m, frozen=())
    for batch in (1, 3, 40):
        u = rng.integers(0, 2, size=(batch, n), dtype=np.uint8)
        llr = rng.normal(0.0, 4.0, size=(batch, n))  # independent of u: many wrong decisions
        values = kernel.from_llr(llr)
        decided, c_hat = recursive_sc(values, spec.frozen_mask, kernel, forced=u)
        assert np.array_equal(c_hat, encode(u, spec))
        forced = u.T.copy()  # the message rows, which the evaluator overwrites
        level = values.T[bit_reverse_permutation(m)]  # level m, a fresh C-ordered copy
        errs = reference._genie_errors(level, forced, kernel)
        assert errs.tolist() == np.count_nonzero(decided != u, axis=0).tolist()
    assert 0 < errs.sum() < u.size


def _floor_edge_frames(kernel, m, batch, rng):
    """Message rows and level ``m`` (bit-reversed order) of frames whose
    right child of the root is placed exactly: every left value is +/-0.0,
    so f gives the left child zeros and g gives the right child the right
    values, which sit at, just above or just below the floor ``t_{m-1}`` or
    far below it, carry a wrong hard decision above it, or a signed zero."""
    n, h = 1 << m, 1 << (m - 1)
    floor = (kernel.rate1_floors or kernels._EXACT_RATE1_FLOORS)[m - 1]
    u = rng.integers(0, 2, size=(n, batch), dtype=np.uint8)
    right = encode(u.T, CodeSpec(m=m, frozen=())).T[bit_reverse_permutation(m)][h:]
    level = np.empty((n, batch))
    level[:h] = rng.choice([0.0, -0.0], size=(h, batch))
    for j in range(batch):
        case = j % 7
        mags = np.full(h, [floor, np.nextafter(floor, np.inf), np.nextafter(floor, 0.0),
                           np.nextafter(floor, np.inf), 30.0, 1e-200, 0.0][case])
        signs = 1.0 - 2.0 * right[:, j]  # the hard decision of the true codeword
        if case == 3:
            signs[rng.integers(h)] *= -1.0
        if case == 4:
            mags[rng.integers(h)] = 0.0  # a zero signed as its true bit
        level[h:, j] = signs * mags
        if case == 6:
            level[:, j] = rng.normal(0.0, 2.0, n)
    return u, level


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("m", range(1, 9))
def test_genie_counts_equal_the_oracle_at_the_floors(m, kernel, rng):
    # a child is dropped only where its values clear the floor with the
    # signs of its true codeword; at the floor, below it, with a zero or
    # with a wrong hard decision it is decoded down to its phases
    u, level = _floor_edge_frames(kernel, m, 35, rng)
    decided, _ = recursive_sc(kernel.from_llr(level[bit_reverse_permutation(m)].T),
                              np.zeros(1 << m, dtype=bool), kernel, forced=u.T)
    errs = reference._genie_errors(kernel.from_llr(level), u.copy(), kernel)
    assert errs.tolist() == np.count_nonzero(decided != u.T, axis=0).tolist()


@pytest.mark.parametrize("kernel, f_name", [(Kernel.LR_EXACT, "_f_lr_into"),
                                            (Kernel.LLR_EXACT, "_f_llr_exact_into"),
                                            (Kernel.LLR_MINSUM, "_f_minsum_into")])
def test_genie_drops_the_children_decided_above_their_floors(monkeypatch, rng, kernel,
                                                             f_name):
    sizes = []
    real_f = kernel.f_into
    assert real_f is getattr(kernels, f_name)  # the member's record names its f

    def spy(a, b, out, scratch):
        sizes.append(a.size)
        real_f(a, b, out, scratch)

    monkeypatch.setattr(kernel, "f_into", spy)
    m, batch = 10, 4
    n = 1 << m
    u = rng.integers(0, 2, size=(n, batch), dtype=np.uint8)
    noiseless = 30.0 * (1.0 - 2.0 * encode(u.T, CodeSpec(m=m, frozen=())).T)
    errs = reference._genie_errors(kernel.from_llr(noiseless[bit_reverse_permutation(m)]),
                                   u.copy(), kernel)
    assert not errs.any()
    # both children of the root clear their floors at once; the ratio domain
    # has no floors and evaluates every stage in full
    assert sizes == [n // 2 * batch] * (m if kernel is Kernel.LR_EXACT else 1)
    # values below every floor: every stage is evaluated in full, and every
    # phase's root value is a tie, decided 1
    sizes.clear()
    errs = reference._genie_errors(kernel.from_llr(np.zeros((n, batch))), u.copy(), kernel)
    assert sizes == [n // 2 * batch] * m
    assert errs.tolist() == np.count_nonzero(u == 0, axis=1).tolist()


def test_genie_errors_live_peak_stays_within_the_level_arrays():
    # one block of the benchmark's genie point holds a second level array
    # and one stage's scratch, and no array per column; the stage-wide
    # evaluator this one replaced peaked at 3.32 MiB here
    spec = CodeSpec(m=10, frozen=())
    u, llr = channel._level_frames(spec, 0.794, *channel._draw(spec, 256, 0, 0))
    level = Kernel.LLR_EXACT._from_llr_in_place(llr)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        reference._genie_errors(level, u, Kernel.LLR_EXACT)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 3.32 * 2**20


def test_genie_counts_golden_n64():
    # recorded from the graph-row decoder this one replaced
    assert genie_error_counts(64, 0.9, trials=600, seed=7).tolist() == [
        312, 316, 293, 317, 283, 286, 290, 212, 336, 311, 266, 188, 253, 135, 102, 26,
        299, 255, 262, 123, 219, 112, 78, 16, 195, 64, 53, 6, 34, 4, 1, 0,
        305, 234, 198, 80, 193, 66, 44, 1, 145, 35, 25, 4, 19, 3, 0, 0,
        102, 16, 13, 0, 10, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]


def test_genie_counts_digest_n1024():
    # the digest perfbench's genie_construct checks: every stage of n = 1024
    # and a 512-trial block cut into two chunks
    counts = genie_error_counts(1024, 0.794, 512, 0)
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()[:16] == \
        "3365aaf47f62c42a"


def test_genie_lowers_no_plan(monkeypatch):
    # forced decisions depend on no decision, so genie decoding runs the
    # unrolled graph stage by stage and lowers no decode plan
    lowered = []

    def spy(spec, rate1):
        lowered.append((spec.m, rate1))
        return lower(spec, rate1)

    lower = reference._lower
    monkeypatch.setattr(reference, "_lower", spy)
    for seed in (1, 2):
        genie_error_counts(64, 0.9, trials=20, seed=seed)
    assert lowered == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kernel", KERNELS)
def test_decode_rejects_non_finite(kernel, bad):
    # the check sits in from_llr, before the clip that would turn inf into 40
    spec = construct_frozen_bec(8, 4, 0.5)
    llr = np.full((2, 8), 3.0)
    llr[1, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        kernel.from_llr(llr)
    with pytest.raises(ValueError, match="finite"):
        decode_batch(llr, spec, kernel)


def _golden_specs(m):
    n = 1 << m
    yield CodeSpec(m=m, frozen=tuple(range(n)))
    for k in sorted({1, n // 2, n}):
        yield construct_frozen_bec(n, k, 0.5)


def _decode_digests(kernel):
    """sha256 of every u_hat and c_hat that decode_batch returns for m = 1..10,
    k in {0, 1, n/2, n}, on edge-case and on Gaussian frames."""
    u_sha, c_sha = hashlib.sha256(), hashlib.sha256()
    for m in range(1, 11):
        rng = np.random.default_rng(3000 + m)
        for spec in _golden_specs(m):
            _, gaussian = random_frames(spec, 6, sigma=0.8, seed=m)
            for llr in (edge_case_llrs(spec.n, 6, rng), gaussian):
                u_hat, c_hat = decode_batch(llr, spec, kernel)
                u_sha.update(u_hat.tobytes())
                c_sha.update(c_hat.tobytes())
    return u_sha.hexdigest()[:16], c_sha.hexdigest()[:16]


# Recorded from the decoder whose loop ran no rate-0 skip and shared no code
# with the machines.
@pytest.mark.parametrize("kernel, digests", [
    (Kernel.LR_EXACT, ("32eeca4d0df183a3", "dc40ddca5633d1aa")),
    (Kernel.LLR_EXACT, ("b8db281347999b72", "0afb1c77fe73cd74")),
    (Kernel.LLR_MINSUM, ("345170a9ad993e7b", "38be15eef242f1cc")),
])
def test_decode_batch_golden_digests(kernel, digests):
    assert _decode_digests(kernel) == digests


def _plan_replay(ops, take_fallbacks, shift=0):
    """The kernel steps ``(l, fn, i)`` and decisions ``("d", i)`` of a plan,
    in the order it runs them, with phases moved up by ``shift``: with each
    rate-1 node ``(L, lo)`` expanded into its fallback, ``_split_plan(L)``
    moved up to ``lo``, whose own rate-1 nodes are expanded in turn, or on
    the path that decides every node at once."""
    names = {reference._F: "f", reference._G: "g", reference._G0: "g"}
    out, pos = [], 0
    while pos < len(ops):
        op, a, b, c = ops[pos:pos + 4]
        pos += 4
        if op in names:
            out.append((a, names[op], b + shift))
        elif op == reference._RATE1 and not a:  # a leaf: its phase's decision
            out.append(("d", b + shift))
        elif op == reference._RATE1 and take_fallbacks:
            out += _plan_replay(reference._split_plan(a), True, b + shift)
        elif op == reference._RATE1:
            out.append(("rate1", a, b + shift))
    return out


def _maximal_rate1_nodes(frozen_mask, lo, l):
    """``(L, lo)`` of each maximal rate-1 node (L >= 1) under ``[lo, lo + 2**l)``."""
    if not frozen_mask[lo:lo + (1 << l)].any():
        return [(l, lo)] if l else []
    if not l:
        return []
    half = 1 << (l - 1)
    return (_maximal_rate1_nodes(frozen_mask, lo, l - 1)
            + _maximal_rate1_nodes(frozen_mask, lo + half, l - 1))


def _live_sequence(spec, nodes=()):
    """``single_vector_ops`` without its dead steps, each stage-0 step of an
    information phase followed by its decision; without the steps below the
    root of each rate-1 node in ``nodes``, which is decided at its first such
    step instead."""
    inside = {(i, l) for L, lo in nodes for i in range(lo, lo + (1 << L)) for l in range(L)}
    first = {(lo, L - 1): ("rate1", L, lo) for L, lo in nodes}
    out = []
    for l, fn, i in single_vector_ops(spec.n):
        if (i, l) in first:
            out.append(first[i, l])
        if (i, l) in inside or spec.frozen_mask[i:i + (1 << l)].all():
            continue
        out.append((l, fn, i))
        if not l:
            out.append(("d", i))
    return out


@pytest.mark.parametrize("m", range(1, 9))
def test_plan_replays_the_live_control_sequence(m):
    n = 1 << m
    rng = np.random.default_rng(4000 + m)
    random = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                     replace=False).tolist()))
    for frozen in ((), construct_frozen_bec(n, max(1, n // 2), 0.5).frozen, random):
        spec = CodeSpec(m=m, frozen=frozen)
        live = _live_sequence(spec)
        # with or without rate-1 nodes, the kernel steps and decisions that
        # run when every node falls back are the live steps, in order
        for rate1 in (False, True):
            assert _plan_replay(reference._lower(spec, rate1), True) == live
        # a frame with no fallback decides each maximal rate-1 node at its
        # first step below its root and runs none of the node's steps below it
        nodes = _maximal_rate1_nodes(spec.frozen_mask, 0, m)
        assert _plan_replay(reference._lower(spec, True), False) == \
            _live_sequence(spec, nodes)
    # the unpruned plan, whose steps the machines' schedules replay: every
    # step, and a decision at every phase
    assert _plan_replay(reference._unpruned_plan(m), False) == \
        _live_sequence(CodeSpec(m=m, frozen=()))


def _structural_codes(m):
    """The frozen sets the plan's structural tests run over, for length 2**m."""
    n = 1 << m
    rng = np.random.default_rng(5000 + m)
    random = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
    # the one information bit n - 3 ends a dead-left node's right child
    # [n - 4, n) with the tile of its left child [n - 4, n - 2): a tile of
    # its own, not one the parent's extends
    for frozen in ((), construct_frozen_bec(n, max(1, n // 2), 0.5).frozen, random,
                   range(n - 1), range(0, n, 2), range(n // 2),
                   [i for i in range(n) if i != n - 3]):
        yield CodeSpec(m=m, frozen=tuple(frozen))


def _instructions(plan):
    it = iter(plan)
    return list(zip(it, it, it, it))


@pytest.mark.parametrize("m", range(1, 11))
def test_g0_follows_exactly_the_rate0_siblings(m):
    # a g whose left sibling is all frozen reads no partial sums (_G0); every
    # other g reads them, and the unpruned plan, which the machines'
    # schedules replay, holds no _G0
    for spec in _structural_codes(m):
        for rate1 in (False, True):
            for op, l, i, _ in _instructions(reference._lower(spec, rate1)):
                if op in (reference._G, reference._G0):
                    rate0 = spec.frozen_mask[i - (1 << l):i].all()
                    assert (op == reference._G0) == rate0, (spec.frozen, l, i)
    assert reference._G0 not in reference._unpruned_plan(m)[0::4]


def _dead_left_chains(frozen_mask):
    """``(a, b, c)`` of each maximal chain of dead-left nodes: nodes whose
    left child is all frozen and whose right child is not, each the right
    child of the next.  Its folds copy the bottom node's right child
    ``[b, c)`` into every left sibling of the chain, ``[a, b)``."""
    n = len(frozen_mask)

    def dead_left(lo, size):
        h = size // 2
        return size > 1 and frozen_mask[lo:lo + h].all() and not frozen_mask[lo + h:lo + size].all()

    chains = []
    size = 2
    while size <= n:
        for lo in range(0, n, size):
            if dead_left(lo, size) and not dead_left(lo + size // 2, size // 2):
                a, top = lo, size  # climb while the chain's top is a right child
                while top < n and a & top and dead_left(a - top, 2 * top):
                    a, top = a - top, 2 * top
                chains.append((a, lo + size // 2, lo + size))
        size *= 2
    return sorted(chains)


@pytest.mark.parametrize("m", range(1, 11))
def test_each_tile_is_one_dead_left_chain(m):
    # a fold XORs into a live left sibling; the folds into dead left
    # siblings, which still hold 0, are copies, and each maximal chain of
    # them is one _TILE; the unpruned plan has no dead node, so no _TILE
    for spec in _structural_codes(m):
        mask = spec.frozen_mask
        for rate1 in (False, True):
            ops = _instructions(reference._lower(spec, rate1))
            for op, a, b, c in ops:
                if op == reference._FOLD:
                    assert b - a == c - b and not mask[a:b].all() and not mask[b:c].all()
            tiles = sorted((a, b, c) for op, a, b, c in ops if op == reference._TILE)
            assert tiles == _dead_left_chains(mask), (spec.frozen, rate1)
    assert reference._TILE not in reference._unpruned_plan(m)[0::4]


def test_minsum_tie_free_mix_on_the_benchmark_code():
    # the instructions a frame that takes no rate-1 fallback runs on the
    # benchmark code, which are the whole plan: 96 of its 191 g steps
    # follow a rate-0 sibling, and the 96 folds into their dead left
    # siblings are 49 tiles
    ops = reference._lower(construct_frozen_bec(1024, 512, 0.5), True)
    assert Counter(ops[0::4]) == {reference._F: 95, reference._G: 95, reference._G0: 96,
                                  reference._FOLD: 95, reference._TILE: 49,
                                  reference._RATE1: 96}


def test_decoders_create_no_reference_cycles(monkeypatch):
    # a decode's (n, batch) arrays must be freed when it returns, not wait
    # for the cycle collector; fresh codes and configs lower and build
    # their plans and programs inside the checked region, and the genie
    # block of 512 trials and the two-block campaign run on a worker thread
    n = 64
    monkeypatch.setattr(reference, "_WORKERS", 2)
    _, llr = random_frames(construct_frozen_bec(n, n // 2, 0.5), 8, sigma=0.9, seed=3)
    gc.collect()
    gc.disable()
    try:
        spec = construct_frozen_bec(n, n // 2, 0.5)
        for kernel in KERNELS:
            decode_batch(llr, spec, kernel)
            decode(llr[0], spec, kernel)
        genie_error_counts(n, 0.9, 600, 1)
        run_campaign(spec, Kernel.LLR_EXACT, [1.0],
                     CampaignStop(max_frames=512, min_frame_errors=10**6), seed=1)
        for kind in ArchKind:
            extra = {ArchKind.SEMI_PARALLEL: {"pe_count": n // 4},
                     ArchKind.VECTOR_OVERLAP: {"overlap_p": 3}}.get(kind, {})
            res = simulate(ArchitectureConfig(kind=kind, n=n, **extra), llr, spec,
                           Kernel.LLR_MINSUM)
            assert res.pe_activations
        genie_error_counts(n, 0.9, trials=20, seed=1)
        del spec, res
        assert gc.collect() == 0
    finally:
        gc.enable()


# Frame blocks decoded on worker threads.  Tests set the worker count to at
# most 3, so they start at most two threads whatever the host.

def _per_worker_count(monkeypatch, run):
    """``run()`` with the worker count set to 1, 2 and 3, in that order."""
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(reference, "_WORKERS", workers)
        results.append(run())
    return results


def _recorded_batches(monkeypatch) -> list:
    """The number of jobs in each ``_run_jobs`` call from now on."""
    batches = []
    real_run = reference._run_jobs

    def recorded(jobs):
        batches.append(len(jobs))
        return real_run(jobs)

    monkeypatch.setattr(reference, "_run_jobs", recorded)
    return batches


def test_threads_start_on_at_most_two_cpus():
    assert 1 <= reference._WORKERS <= reference._MAX_WORKERS == 2


@pytest.mark.parametrize("kernel", KERNELS)
def test_threads_change_no_campaign_report(kernel, monkeypatch):
    # blocks decoded at once are counted in block order, so a point stops
    # where a one-block-at-a-time loop stops: a block decoded past the stop
    # is not counted, and a frame budget that is no multiple of the block
    # is cut at the same frame
    spec = construct_frozen_bec(64, 32, 0.5)
    budget = CampaignStop(max_frames=1100, min_frame_errors=10**6)
    errors = CampaignStop(max_frames=10**5, min_frame_errors=60)
    blocks, decoded = [], []  # per worker count, the blocks the errors stop decoded
    real_block = channel._block_errors

    def counted_block(*args):
        blocks.append(args[-1])
        return real_block(*args)

    def run():
        blocks.clear()
        report = run_campaign(spec, kernel, [0.0, 2.0, 3.0], errors, seed=6)
        decoded.append(len(blocks))
        return report, run_campaign(spec, kernel, [1.0], budget, seed=5)

    monkeypatch.setattr(channel, "_block_errors", counted_block)
    results = _per_worker_count(monkeypatch, run)
    assert results[0] == results[1] == results[2]
    report, cut = results[0]
    assert [p.frames for p in cut.points] == [1100]
    counted = sum(-(-p.frames // 256) for p in report.points)
    assert decoded[0] == counted < decoded[2]  # at 3 workers, a block past a stop


def test_campaign_batches_hold_the_blocks_the_stop_needs(monkeypatch):
    # at 3 workers: a point whose first block meets the stop decodes it
    # alone; one whose first block falls short of the stop by fewer errors
    # than it showed expects one more block; an error-free block widens the
    # next batch to every worker; and a budget the errors cannot stop runs 3
    # blocks at once
    monkeypatch.setattr(reference, "_WORKERS", 3)
    batches = _recorded_batches(monkeypatch)
    spec = construct_frozen_bec(64, 32, 0.5)
    report = run_campaign(spec, Kernel.LLR_MINSUM, [-2.0, 1.0, 6.0],
                          CampaignStop(max_frames=1024, min_frame_errors=100), seed=5)
    assert [(p.frames, p.frame_errors) for p in report.points] == [
        (256, 229), (512, 145), (1024, 0)]
    assert batches == [1, 1, 1, 1, 3]
    batches.clear()
    run_campaign(spec, Kernel.LLR_MINSUM, [1.0],
                 CampaignStop(max_frames=1100, min_frame_errors=1101), seed=5)
    assert batches == [3, 2]


def test_threads_change_no_genie_count(monkeypatch):
    # 1324 trials: two genie blocks of 512 frames, two chunks each, and a tail
    counts = _per_worker_count(monkeypatch, lambda: genie_error_counts(32, 0.8, 1324, 9))
    assert np.array_equal(counts[0], counts[1]) and np.array_equal(counts[0], counts[2])


def test_genie_chunks_need_two_blocks_and_two_cpus(monkeypatch):
    # one CPU, or fewer than 2 * 256 trials in a genie block, is one job
    # and starts no thread; a genie block of 512 is at most two chunks
    batches = _recorded_batches(monkeypatch)
    for workers, trials, want in ((1, 512, [1]), (2, 511, [1]), (2, 512, [2]),
                                  (3, 512, [2]), (2, 1100, [2, 2, 1])):
        monkeypatch.setattr(reference, "_WORKERS", workers)
        batches.clear()
        genie_error_counts(32, 0.8, trials, 1)
        assert batches == want, (workers, trials)
    monkeypatch.setattr(reference, "_WORKERS", 1)
    batches.clear()
    run_campaign(construct_frozen_bec(32, 16, 0.5), Kernel.LLR_MINSUM, [1.0],
                 CampaignStop(max_frames=600, min_frame_errors=10**6), seed=1)
    assert batches == [1, 1, 1]


def test_a_worker_error_reaches_the_caller(monkeypatch):
    # the second chunk of a genie block raises on a worker thread; the
    # first, run by the caller, has ended by the time the error comes back
    real_errors = reference._genie_errors
    decoded = []

    def failing(values, *args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("second chunk")
        decoded.append(values.shape[1])  # level m: one column per frame
        return real_errors(values, *args)

    monkeypatch.setattr(reference, "_WORKERS", 2)
    monkeypatch.setattr(reference, "_genie_errors", failing)
    with pytest.raises(RuntimeError, match="second chunk"):
        genie_error_counts(32, 0.8, 600, 1)
    assert decoded == [256]
