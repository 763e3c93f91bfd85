import numpy as np
import pytest

from polarsc import (CodeSpec, Kernel, decide, f_llr_exact, f_lr, f_minsum, g_llr,
                     g_lr)
from polarsc.kernels import LLR_CLIP


def test_f_lr_erasure_absorbs():
    for b in (0.1, 1.0, 7.0, 100.0):
        assert f_lr(1.0, b) == pytest.approx(1.0)


def test_f_lr_direct_value():
    assert f_lr(2.0, 3.0) == pytest.approx(1.4)


def test_f_lr_symmetric(rng):
    a = np.exp(rng.normal(size=100))
    b = np.exp(rng.normal(size=100))
    np.testing.assert_allclose(f_lr(a, b), f_lr(b, a))


def test_lr_domain_rejects_nonpositive():
    with pytest.raises(ValueError):
        f_lr(-1.0, 2.0)
    with pytest.raises(ValueError):
        g_lr(1.0, 0.0, 0)


def test_g_lr_multiply_or_divide():
    assert g_lr(2.0, 3.0, 0) == pytest.approx(6.0)
    assert g_lr(2.0, 3.0, 1) == pytest.approx(1.5)
    for b in (0.2, 1.0, 9.0):
        assert g_lr(1.0, b, 0) == pytest.approx(b)


def test_f_llr_exact_zero_annihilates():
    for x in (-3.0, 0.0, 5.0):
        assert f_llr_exact(0.0, x) == pytest.approx(0.0)


def test_f_llr_exact_saturates_to_other_argument():
    assert f_llr_exact(39.0, 2.5) == pytest.approx(2.5, abs=1e-6)
    assert f_llr_exact(-39.0, 2.5) == pytest.approx(-2.5, abs=1e-6)


def test_f_llr_exact_cross_domain():
    got = f_llr_exact(2.0, 3.0)
    assert got == pytest.approx(np.log(f_lr(np.exp(2.0), np.exp(3.0))), abs=1e-12)
    assert got == pytest.approx(1.6934536609708952, abs=1e-12)


def test_f_llr_exact_equals_tanh_product_form(rng):
    a = rng.uniform(-8, 8, size=200)
    b = rng.uniform(-8, 8, size=200)
    tanh_form = 2.0 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
    np.testing.assert_allclose(f_llr_exact(a, b), tanh_form, atol=1e-10)


def test_f_minsum_direct_values():
    assert f_minsum(2.0, -3.0) == pytest.approx(-2.0)
    assert f_minsum(0.0, 4.0) == pytest.approx(0.0)


def test_minsum_dominates_exact_on_grid():
    grid = np.linspace(-10, 10, 81)
    a, b = np.meshgrid(grid, grid)
    exact = f_llr_exact(a, b)
    approx = f_minsum(a, b)
    assert np.all(np.abs(exact) <= np.abs(approx) + 1e-12)
    assert np.all(np.abs(approx) <= np.minimum(np.abs(a), np.abs(b)) + 1e-12)
    nz = (a != 0) & (b != 0)
    assert np.all(np.sign(exact[nz]) == np.sign(approx[nz]))


def test_g_llr_values_and_cross_domain(rng):
    assert g_llr(0.0, 2.5, 0) == pytest.approx(2.5)
    assert g_llr(0.0, 2.5, 1) == pytest.approx(2.5)
    assert g_llr(1.5, 2.5, 0) == pytest.approx(4.0)
    a = rng.uniform(-5, 5, size=50)
    b = rng.uniform(-5, 5, size=50)
    for us in (0, 1):
        lhs = g_llr(a, b, us)
        rhs = np.log(g_lr(np.exp(a), np.exp(b), us))
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
    got = g_llr(la, lb, us)
    assert np.array_equal(got.view(np.int64), select.view(np.int64))


def test_clipping_keeps_values_finite():
    assert g_llr(LLR_CLIP, LLR_CLIP, 0) == LLR_CLIP
    assert g_llr(LLR_CLIP, -LLR_CLIP, 1) == -LLR_CLIP
    assert np.isfinite(f_llr_exact(LLR_CLIP, LLR_CLIP))


def test_decide_frozen_forces_zero():
    spec = CodeSpec(m=2, frozen=(0,))
    assert decide(-100.0, 0, spec, Kernel.LLR_EXACT) == 0


def test_decide_threshold_and_boundary():
    spec = CodeSpec(m=2, frozen=())
    assert decide(0.5, 1, spec, Kernel.LLR_EXACT) == 0
    assert decide(-0.5, 1, spec, Kernel.LLR_EXACT) == 1
    # the boundary itself decides 1: strict inequality for the 0 branch
    assert decide(0.0, 1, spec, Kernel.LLR_EXACT) == 1
    assert decide(1.0, 1, spec, Kernel.LR_EXACT) == 1
    assert decide(1.5, 1, spec, Kernel.LR_EXACT) == 0


def test_kernel_domain_conversion():
    llr = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_allclose(Kernel.LR_EXACT.from_llr(llr), np.exp(llr))
    np.testing.assert_allclose(Kernel.LLR_EXACT.from_llr(llr), llr)
    big = Kernel.LLR_MINSUM.from_llr(np.array([1e9]))
    assert big[0] == LLR_CLIP
