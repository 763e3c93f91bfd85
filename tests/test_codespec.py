import json

import numpy as np
import pytest

from polarsc import (CodeSpec, bec_erasure_profile, bit_reverse_permutation,
                     butterfly_transform, construct_frozen_bec,
                     construct_frozen_mc, encode)


def kron_power_matrix(m):
    """Independent oracle: the m-fold Kronecker power of [[1,0],[1,1]]."""
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    for _ in range(m):
        g = np.kron(g, f)
    return g


def test_bit_reverse_identity_for_m1():
    assert bit_reverse_permutation(1).tolist() == [0, 1]


def test_bit_reverse_m3_golden():
    perm = bit_reverse_permutation(3)
    assert perm[1] == 4  # 001 -> 100
    assert perm.tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_bit_reverse_is_involution(m):
    perm = bit_reverse_permutation(m)
    assert np.array_equal(perm[perm], np.arange(1 << m))


def test_bit_reverse_rejects_bad_m():
    with pytest.raises(ValueError):
        bit_reverse_permutation(0)


def test_butterfly_maps_zero_to_zero():
    assert not butterfly_transform(np.zeros(16, dtype=np.uint8)).any()


def test_butterfly_n4_exhaustive_vs_matrix():
    g = kron_power_matrix(2)
    for word in range(16):
        x = np.array([(word >> b) & 1 for b in range(4)], dtype=np.uint8)
        assert np.array_equal(butterfly_transform(x), (x @ g) % 2), word


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_butterfly_is_involution(n, rng):
    if n <= 8:
        blocks = np.array([[(w >> b) & 1 for b in range(n)] for w in range(1 << n)],
                          dtype=np.uint8)
    else:
        blocks = rng.integers(0, 2, size=(200, n), dtype=np.uint8)
    assert np.array_equal(butterfly_transform(butterfly_transform(blocks)), blocks)


def butterfly_loop(x):
    """Reference: the butterfly one top/bottom block pair at a time."""
    x = (np.asarray(x).astype(np.uint8) & 1).copy()
    n = x.shape[-1]
    m = n.bit_length() - 1
    for l in range(m):
        stride = 1 << (m - 1 - l)
        for start in range(0, n, 2 * stride):
            x[..., start: start + stride] ^= x[..., start + stride: start + 2 * stride]
    return x


@pytest.mark.parametrize("m", range(1, 11))
def test_butterfly_equals_blockwise_loop(m, rng):
    n = 1 << m
    single = rng.integers(0, 2, size=n, dtype=np.uint8)
    batch = rng.integers(0, 2, size=(3, 5, n), dtype=np.uint8)
    assert np.array_equal(butterfly_transform(single), butterfly_loop(single))
    assert np.array_equal(butterfly_transform(batch), butterfly_loop(batch))
    # strided input, and the input left untouched
    columns = np.asfortranarray(batch[0])
    before = columns.copy()
    assert np.array_equal(butterfly_transform(columns), butterfly_loop(columns))
    assert np.array_equal(columns, before)


def test_butterfly_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        butterfly_transform(np.zeros(6, dtype=np.uint8))


def test_encode_all_zero_maps_to_all_zero():
    for n in (2, 8, 64):
        spec = CodeSpec(m=n.bit_length() - 1, frozen=())
        assert not encode(np.zeros(n, dtype=np.uint8), spec).any()


def test_encode_n2_single_pair():
    spec = CodeSpec(m=1, frozen=())
    for u0 in (0, 1):
        for u1 in (0, 1):
            c = encode(np.array([u0, u1], dtype=np.uint8), spec)
            assert c.tolist() == [u0 ^ u1, u1]


def test_encode_n8_one_hot_goldens():
    # hand-traced through the 3-stage network with bit-reversed entry
    spec = CodeSpec(m=3, frozen=())
    eye = np.eye(8, dtype=np.uint8)
    assert encode(eye[0], spec).tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert encode(eye[5], spec).tolist() == [1, 1, 0, 0, 1, 1, 0, 0]
    assert encode(eye[7], spec).tolist() == [1, 1, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_encode_matches_permuted_matrix_oracle(m, rng):
    n = 1 << m
    spec = CodeSpec(m=m, frozen=())
    perm = bit_reverse_permutation(m)
    full = (np.eye(n, dtype=np.uint8)[perm] @ kron_power_matrix(m)) % 2
    u = rng.integers(0, 2, size=(50, n), dtype=np.uint8)
    assert np.array_equal(encode(u, spec), (u @ full) % 2)


def test_encode_is_linear(rng):
    for m in range(1, 9):
        n = 1 << m
        for _ in range(5):
            spec = CodeSpec(m=m, frozen=tuple(np.flatnonzero(rng.random(n) < rng.random())))
            u, v = rng.integers(0, 2, size=(2, 8, n), dtype=np.uint8)
            u[:, spec.frozen_mask] = v[:, spec.frozen_mask] = 0
            assert np.array_equal(encode(u ^ v, spec), encode(u, spec) ^ encode(v, spec)), spec


def test_encode_validates_frozen_and_length():
    spec = CodeSpec(m=2, frozen=(0,))
    with pytest.raises(ValueError):
        encode(np.array([1, 0, 0, 0], dtype=np.uint8), spec)
    with pytest.raises(ValueError):
        encode(np.zeros(8, dtype=np.uint8), spec)
    # non-binary entries are rejected, not masked to their low bit
    free = CodeSpec(m=2, frozen=())
    for u in ([2, 0, 0, 0], [-1, 0, 0, 0], [0.7, 0, 0, 0]):
        with pytest.raises(ValueError):
            encode(np.array(u), free)
    with pytest.raises(ValueError):
        encode(np.array([2, 0, 0, 0]), spec)  # a 2 on the frozen position


def test_bec_profile_n2():
    z = bec_erasure_profile(2, 0.5)
    assert z.tolist() == [0.75, 0.25]
    assert construct_frozen_bec(2, 1, 0.5).frozen == (0,)


def test_bec_profile_n8_golden():
    # full hand recursion from 0.5: three doubling levels
    z = bec_erasure_profile(8, 0.5)
    expected = [0.99609375, 0.87890625, 0.80859375, 0.31640625,
                0.68359375, 0.19140625, 0.12109375, 0.00390625]
    np.testing.assert_allclose(z, expected, rtol=0, atol=0)
    assert construct_frozen_bec(8, 4, 0.5).frozen == (0, 1, 2, 4)


def test_bec_rate_one_freezes_nothing():
    assert construct_frozen_bec(4, 4, 0.5).frozen == ()


def test_bec_profile_bounds_and_split_ordering():
    # Strict openness holds wherever float64 can represent it; at larger
    # sizes the worst parameters round to the interval endpoints.
    for eps in (0.1, 0.5, 0.9):
        z = bec_erasure_profile(8, eps)
        assert np.all(z > 0) and np.all(z < 1)
        big = bec_erasure_profile(1024, eps)
        assert np.all(big >= 0) and np.all(big <= 1)
    z32 = bec_erasure_profile(32, 0.5)
    assert np.all(z32 > 0) and np.all(z32 < 1)
    zs = np.linspace(0.01, 0.99, 99)
    assert np.all(2 * zs - zs * zs >= zs) and np.all(zs >= zs * zs)


def test_bec_parameter_validation():
    with pytest.raises(ValueError):
        construct_frozen_bec(8, 9, 0.5)
    with pytest.raises(ValueError):
        construct_frozen_bec(8, 4, 1.5)


def test_mc_construction_rate_one_and_determinism():
    assert construct_frozen_mc(4, 4, 1.0, trials=8, seed=1).frozen == ()
    a = construct_frozen_mc(16, 8, 0.9, trials=300, seed=7)
    b = construct_frozen_mc(16, 8, 0.9, trials=300, seed=7)
    assert a == b
    assert len(a.frozen) == 8


def test_mc_construction_n2_low_noise_freezes_index0():
    spec = construct_frozen_mc(2, 1, 1e-3, trials=50, seed=3)
    assert spec.frozen == (0,)


def test_mc_construction_freezes_worst_index_under_noise():
    spec = construct_frozen_mc(8, 4, 1.0, trials=2000, seed=11)
    assert 0 in spec.frozen


def test_codespec_json_round_trip():
    spec = construct_frozen_bec(8, 4, 0.5)
    doc = json.loads(spec.to_json())
    assert doc == {"m": 3, "frozen": [0, 1, 2, 4]}
    assert CodeSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        CodeSpec.from_json('{"m": 2, "frozen": [0], "extra": 1}')


def test_codespec_invariants():
    spec = CodeSpec(m=3, frozen=(4, 1))
    assert spec.frozen == (1, 4)
    assert spec.n == 8 and spec.k == 6
    with pytest.raises(ValueError):
        CodeSpec(m=2, frozen=(4,))
    with pytest.raises(ValueError):
        CodeSpec(m=0, frozen=())
