import copy
import inspect
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from polarsc import Kernel, kernels, reference
from polarsc.cli import _build_parser
from polarsc.kernels import LLR_CLIP, LR_MAX, LR_MIN


def test_f_lr_erasure_absorbs():
    for b in (0.1, 1.0, 7.0, 100.0):
        assert Kernel.LR_EXACT.f(1.0, b) == pytest.approx(1.0)


def test_f_lr_direct_value():
    assert Kernel.LR_EXACT.f(2.0, 3.0) == pytest.approx(1.4)


def test_f_lr_symmetric(rng):
    a = np.exp(rng.normal(size=100))
    b = np.exp(rng.normal(size=100))
    np.testing.assert_allclose(Kernel.LR_EXACT.f(a, b), Kernel.LR_EXACT.f(b, a))


def test_lr_domain_rejects_nonpositive():
    with pytest.raises(ValueError):
        Kernel.LR_EXACT.f(-1.0, 2.0)
    with pytest.raises(ValueError):
        Kernel.LR_EXACT.g(1.0, 0.0, 0)
    good = np.array([[0.5, 2.0], [1.0, 3.0]])
    for bad in (np.array([[0.5, 2.0], [1.0, 0.0]]), -good):
        for args in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="strictly positive"):
                Kernel.LR_EXACT.f(*args)
        for args in ((bad, good, 1), (good, bad, 0)):
            with pytest.raises(ValueError, match="strictly positive"):
                Kernel.LR_EXACT.g(*args)


def test_g_lr_multiply_or_divide():
    assert Kernel.LR_EXACT.g(2.0, 3.0, 0) == pytest.approx(6.0)
    assert Kernel.LR_EXACT.g(2.0, 3.0, 1) == pytest.approx(1.5)
    for b in (0.2, 1.0, 9.0):
        assert Kernel.LR_EXACT.g(1.0, b, 0) == pytest.approx(b)


def test_f_llr_exact_zero_annihilates():
    for x in (-3.0, 0.0, 5.0):
        assert Kernel.LLR_EXACT.f(0.0, x) == pytest.approx(0.0)


def test_f_llr_exact_saturates_to_other_argument():
    assert Kernel.LLR_EXACT.f(39.0, 2.5) == pytest.approx(2.5, abs=1e-6)
    assert Kernel.LLR_EXACT.f(-39.0, 2.5) == pytest.approx(-2.5, abs=1e-6)


def test_f_llr_exact_cross_domain():
    got = Kernel.LLR_EXACT.f(2.0, 3.0)
    assert got == pytest.approx(np.log(Kernel.LR_EXACT.f(np.exp(2.0), np.exp(3.0))), abs=1e-12)
    assert got == pytest.approx(1.6934536609708952, abs=1e-12)


def test_f_llr_exact_equals_tanh_product_form(rng):
    a = rng.uniform(-8, 8, size=200)
    b = rng.uniform(-8, 8, size=200)
    tanh_form = 2.0 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
    np.testing.assert_allclose(Kernel.LLR_EXACT.f(a, b), tanh_form, atol=1e-10)


def test_f_minsum_direct_values():
    assert Kernel.LLR_MINSUM.f(2.0, -3.0) == pytest.approx(-2.0)
    assert Kernel.LLR_MINSUM.f(0.0, 4.0) == pytest.approx(0.0)


def test_minsum_dominates_exact_on_grid():
    grid = np.linspace(-10, 10, 81)
    a, b = np.meshgrid(grid, grid)
    exact = Kernel.LLR_EXACT.f(a, b)
    approx = Kernel.LLR_MINSUM.f(a, b)
    assert np.all(np.abs(exact) <= np.abs(approx) + 1e-12)
    assert np.all(np.abs(approx) <= np.minimum(np.abs(a), np.abs(b)) + 1e-12)
    nz = (a != 0) & (b != 0)
    assert np.all(np.sign(exact[nz]) == np.sign(approx[nz]))


def test_g_llr_values_and_cross_domain(rng):
    assert Kernel.LLR_EXACT.g(0.0, 2.5, 0) == pytest.approx(2.5)
    assert Kernel.LLR_EXACT.g(0.0, 2.5, 1) == pytest.approx(2.5)
    assert Kernel.LLR_EXACT.g(1.5, 2.5, 0) == pytest.approx(4.0)
    a = rng.uniform(-5, 5, size=50)
    b = rng.uniform(-5, 5, size=50)
    for us in (0, 1):
        lhs = Kernel.LLR_EXACT.g(a, b, us)
        rhs = np.log(Kernel.LR_EXACT.g(np.exp(a), np.exp(b), us))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_g_llr_bit_identical_to_select_form(rng):
    special = np.array([0.0, -0.0, 1e-300, -1e-300, LLR_CLIP, -LLR_CLIP,
                        2 * LLR_CLIP, -2 * LLR_CLIP, 39.999, -39.999])
    k = special.size
    la = rng.uniform(-60, 60, size=(512, 256))
    lb = rng.uniform(-60, 60, size=(512, 256))
    us = rng.integers(0, 2, size=(512, 256), dtype=np.uint8)
    # every pair of special values, once under each partial sum
    la[: 2 * k, :k] = special
    lb[: 2 * k, :k] = np.tile(special, 2)[:, None]
    us[:k, :k], us[k: 2 * k, :k] = 0, 1
    select = np.clip(np.where(us == 0, la + lb, lb - la), -LLR_CLIP, LLR_CLIP)
    got = Kernel.LLR_EXACT.g(la, lb, us)
    assert np.array_equal(got.view(np.int64), select.view(np.int64))


@pytest.mark.parametrize("kernel", list(Kernel))
def test_g0_into_is_g_into_with_zero_partial_sums(kernel, rng):
    # the g after a rate-0 sibling skips the partial-sum read without moving
    # a bit: at signed zeros, at and past the clip, and at the ratio extremes
    special = np.array([0.0, -0.0, 1e-300, -1e-300, LLR_CLIP, -LLR_CLIP,
                        2 * LLR_CLIP, -2 * LLR_CLIP, LR_MAX, LR_MIN])
    k = special.size
    a = rng.uniform(-60, 60, size=(128, 64))
    b = rng.uniform(-60, 60, size=(128, 64))
    if kernel is Kernel.LR_EXACT:
        a, b = np.exp(a), np.exp(b)
    a[:k, :k], b[:k, :k] = special, special[:, None]  # every pair of special values
    want, got, scratch = np.empty(a.shape), np.empty(a.shape), np.empty(a.shape)
    with np.errstate(all="ignore"):  # the ratio g's unused b / a at 0 and past LR_MAX
        kernel.g_into(a, b, np.zeros(a.shape, np.uint8), want, scratch)
    kernel.g0_into(a, b, got, scratch)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_clipping_keeps_values_finite():
    assert Kernel.LLR_EXACT.g(LLR_CLIP, LLR_CLIP, 0) == LLR_CLIP
    assert Kernel.LLR_EXACT.g(LLR_CLIP, -LLR_CLIP, 1) == -LLR_CLIP
    assert np.isfinite(Kernel.LLR_EXACT.f(LLR_CLIP, LLR_CLIP))


def test_hard_decision_threshold_and_boundary():
    assert Kernel.LLR_EXACT.hard_decision(0.5) == 0
    assert Kernel.LLR_EXACT.hard_decision(-0.5) == 1
    # the boundary itself decides 1: strict inequality for the 0 branch
    assert Kernel.LLR_EXACT.hard_decision(0.0) == 1
    assert Kernel.LR_EXACT.hard_decision(1.0) == 1
    assert Kernel.LR_EXACT.hard_decision(1.5) == 0


def test_kernel_domain_conversion():
    llr = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_allclose(Kernel.LR_EXACT.from_llr(llr), np.exp(llr))
    np.testing.assert_allclose(Kernel.LLR_EXACT.from_llr(llr), llr)
    big = Kernel.LLR_MINSUM.from_llr(np.array([1e9]))
    assert big[0] == LLR_CLIP


# Reference forms of the rules, one allocating numpy expression each: the
# stage ops must match them bit for bit.
FORMULA_F = {
    Kernel.LR_EXACT: lambda a, b: np.clip((1.0 + a * b) / (a + b), LR_MIN, LR_MAX),
    Kernel.LLR_EXACT: lambda a, b: np.clip(np.logaddexp(a + b, 0.0) - np.logaddexp(a, b),
                                           -LLR_CLIP, LLR_CLIP),
    Kernel.LLR_MINSUM: lambda a, b: np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b)),
}
FORMULA_G = {
    Kernel.LR_EXACT: lambda a, b, us: np.clip(np.where(us == 0, a * b, b / a), LR_MIN, LR_MAX),
    Kernel.LLR_EXACT: lambda a, b, us: np.clip(b + (1.0 - 2.0 * us) * a, -LLR_CLIP, LLR_CLIP),
}
FORMULA_G[Kernel.LLR_MINSUM] = FORMULA_G[Kernel.LLR_EXACT]
LOG_SPECIALS = [0.0, -0.0, 1e-300, -1e-300, LLR_CLIP, -LLR_CLIP, 2.5, -39.5]
LR_SPECIALS = [LR_MIN, LR_MAX, 1.0, 0.5, 2.0, np.exp(39.5), np.exp(-2.5), 1.0 + 1e-15]
ROWS, COLS = 16, 12


def stage_operands(rng, kernel):
    """(ROWS, COLS) operands: every pair of special values, once under each
    partial sum, then random values."""
    specials = LR_SPECIALS if kernel is Kernel.LR_EXACT else LOG_SPECIALS
    a = rng.uniform(-45, 45, size=(ROWS, COLS))
    b = rng.uniform(-45, 45, size=(ROWS, COLS))
    if kernel is Kernel.LR_EXACT:
        a, b = np.exp(a), np.exp(b)
    us = rng.integers(0, 2, size=(ROWS, COLS), dtype=np.uint8)
    pa, pb = np.meshgrid(specials, specials)
    k = pa.size
    a.flat[:2 * k], b.flat[:2 * k] = np.tile(pa.ravel(), 2), np.tile(pb.ravel(), 2)
    us.flat[:k], us.flat[k:2 * k] = 0, 1
    return a, b, us


def lane(values, start, stride, fill):
    """Place ``values`` at rows ``start::stride`` of a larger array; returns
    (the array, the view)."""
    level = np.full((values.shape[0] * stride, values.shape[1]), fill, dtype=values.dtype)
    view = level[start::stride]
    view[...] = values
    return level, view


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("start, stride", [(0, 1), (1, 2), (3, 4)])
def test_stage_ops_match_public_functions(rng, kernel, start, stride):
    a, b, us = stage_operands(rng, kernel)
    want_f, want_g = kernel.f(a, b), kernel.g(a, b, us)
    assert np.array_equal(want_f, FORMULA_F[kernel](a, b))
    assert np.array_equal(want_g, FORMULA_G[kernel](a, b, us))
    # operands at positions start::stride of the two halves of a level; the
    # loop passes whole halves (start 0, stride 1)
    src, _ = lane(np.concatenate((a, b)), start, stride, np.nan)
    rows = ROWS * stride
    a_view, b_view = src[start:rows:stride], src[rows + start::stride]
    _, us_view = lane(us, start, stride, 1)
    for op, args, want in ((kernel.f_into, (a_view, b_view), want_f),
                           (kernel.g_into, (a_view, b_view, us_view), want_g)):
        level, out = lane(np.zeros((ROWS, COLS)), start, stride, np.nan)
        op(*args, out, np.empty((ROWS, COLS)))
        assert np.array_equal(out, want)
        assert np.array_equal(kernel.hard_decision(out), kernel.hard_decision(want))
        others = np.ones(rows, dtype=bool)
        others[start::stride] = False
        assert np.isnan(level[others]).all()  # only the lane's positions are written
    assert np.array_equal(a_view, a) and np.array_equal(b_view, b)  # inputs untouched
    assert np.array_equal(us_view, us)


def test_f_llr_exact_stays_within_the_floors_error_bound():
    # the exact kernel's rate-1 floors assume |computed f - true f| <= delta
    # on [-LLR_CLIP, LLR_CLIP]**2; the true f here is the same formula in
    # extended precision, on a grid of tiny values, 0, +/-LLR_CLIP and a
    # linear spread between
    if np.finfo(np.longdouble).nmant < 60:
        pytest.skip("needs an extended-precision np.longdouble")
    mags = np.concatenate([np.logspace(-300, np.log10(LLR_CLIP), 300), [LLR_CLIP]])
    vals = np.concatenate([-mags, [0.0], mags, np.linspace(-LLR_CLIP, LLR_CLIP, 201)])
    a, b = np.meshgrid(vals, vals)
    la, lb = a.astype(np.longdouble), b.astype(np.longdouble)
    true = np.logaddexp(la + lb, np.longdouble(0)) - np.logaddexp(la, lb)
    assert np.abs(Kernel.LLR_EXACT.f(a, b) - true).max() <= kernels._F_EXACT_ERROR


def test_rate1_floors():
    floors = Kernel.LLR_EXACT.rate1_floors
    assert Kernel.LR_EXACT.rate1_floors is None
    assert set(Kernel.LLR_MINSUM.rate1_floors) == {0.0}
    assert floors[0] == 0.0
    assert floors[1:8] == pytest.approx([4.47e-7, 9.46e-4, 0.0435, 0.297, 0.810, 1.45, 2.13],
                                        rel=5e-3)
    # each floor's chain step log cosh(t) - delta, computed as the kernel's
    # docstring says, reaches the floor below it, and a floor 1e-9 lower
    # would not
    def step(t):
        return math.log1p(2.0 * math.sinh(t / 2.0) ** 2) - kernels._F_EXACT_ERROR

    for below, t in zip(floors, floors[1:]):
        assert step(t) >= below > step(t * (1 - 1e-9))
    # an L-fold chain of the computed f from +/-t_L, each step on two values
    # of the smallest magnitude, keeps the sign product and stays non-zero
    for L in range(1, 11):
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            h = np.float64(floors[L])
            for _ in range(L):
                out = Kernel.LLR_EXACT.f(sa * h, sb * h)
                assert out != 0.0 and np.sign(out) == sa * sb, (L, sa, sb)
                h = abs(out)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_each_member_is_found_by_its_value_and_survives_copies(kernel):
    assert Kernel(kernel.value) is kernel
    assert pickle.loads(pickle.dumps(kernel)) is kernel
    assert copy.deepcopy(kernel) is kernel
    assert copy.copy(kernel) is kernel


def test_kernel_values_are_the_cli_kernel_choices():
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    for name in ("decode", "simulate"):
        (flag,) = [a for a in subcommands[name]._actions if a.dest == "kernel"]
        assert list(flag.choices) == sorted(k.value for k in Kernel)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_only_the_ratio_kernel_rejects_non_positive_inputs(kernel):
    for a, b in ((0.0, 2.0), (2.0, -1.0), (-0.0, 0.5)):
        if kernel is Kernel.LR_EXACT:
            with pytest.raises(ValueError, match="strictly positive"):
                kernel.f(a, b)
            with pytest.raises(ValueError, match="strictly positive"):
                kernel.g(a, b, 1)
        else:
            assert np.isfinite(kernel.f(a, b)) and np.isfinite(kernel.g(a, b, 1))


@pytest.mark.parametrize("llr", [np.array([1.0 + 2.0j, 3.0]), np.array(["1", "-2"]),
                                 np.array([1.0, None], dtype=object)])
def test_from_llr_rejects_arrays_of_no_real_dtype(llr):
    for kernel in Kernel:
        with pytest.raises(ValueError, match=f"got dtype {llr.dtype}"):
            kernel.from_llr(llr)


def test_a_log_domain_g_allocates_no_operand_buffer():
    # the sign flip widens the uint8 partial sums inside its own output: a
    # shift of uint8 into uint64 would cast through a 64 KiB buffer
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, 256, 256))
    us = rng.integers(0, 2, size=(256, 256), dtype=np.uint8)
    out, scratch = np.empty((256, 256)), np.empty((256, 256))
    Kernel.LLR_MINSUM.g_into(a, b, us, out, scratch)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        Kernel.LLR_MINSUM.g_into(a, b, us, out, scratch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**10
    assert np.array_equal(out, np.clip(b + (1.0 - 2.0 * us) * a, -LLR_CLIP, LLR_CLIP))


def test_the_value_format_is_stated_in_kernels_only():
    # the decoder takes its buffers' dtype from the values it decodes and
    # flips signs through kernels._signed_into, so it names no float layout
    source = inspect.getsource(reference)
    for word in ("float64", "uint64", "_SIGN_SHIFT"):
        assert word not in source, word
