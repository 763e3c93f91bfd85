"""The public boundary, one row per bad argument: each public call checks
its arguments once, on entry, and raises ValueError with a message that
starts as the row says."""

import re

import numpy as np
import pytest

from polarsc import (ArchitectureConfig, CampaignStop, Kernel, bit_reverse_permutation,
                     bpsk_modulate, construct_frozen_bec, decode, decode_batch, run_campaign,
                     simulate)

SPEC = construct_frozen_bec(8, 4, 0.5)
LLR = np.linspace(-3.0, 4.0, 8)
BAD_KERNEL = "'llr_bogus' is not a valid Kernel"

# (function, arguments, start of the ValueError message)
ROWS = {
    "decode_batch-spec-dict": (decode_batch, (LLR, {"m": 3, "frozen": []}, Kernel.LLR_EXACT),
                               "spec must be a CodeSpec, got dict"),
    "decode-spec-str": (decode, (LLR, "spec", Kernel.LLR_EXACT),
                        "spec must be a CodeSpec, got str"),
    "bit_reverse_permutation-float": (bit_reverse_permutation, (3.5,), "m must be an integer"),
    "bit_reverse_permutation-bool": (bit_reverse_permutation, (True,), "m must be an integer"),
    "bpsk_modulate-two": (bpsk_modulate, ([2],), "input bits must be 0 or 1"),
    "bpsk_modulate-half": (bpsk_modulate, ([0.5],), "input bits must be 0 or 1"),
    "hard_decision-nan": (Kernel.LLR_MINSUM.hard_decision, (np.array([np.nan]),),
                          "soft values must not be NaN"),
    "decode-kernel-string": (decode, (LLR, SPEC, "llr_bogus"), BAD_KERNEL),
    "decode_batch-kernel-string": (decode_batch, (LLR, SPEC, "llr_bogus"), BAD_KERNEL),
    "simulate-kernel-string": (simulate, (ArchitectureConfig(kind="tree", n=8), LLR, SPEC,
                                          "llr_bogus"), BAD_KERNEL),
    "run_campaign-kernel-string": (run_campaign, (SPEC, "llr_bogus", [1.0]), BAD_KERNEL),
}


@pytest.mark.parametrize("name", ROWS)
def test_a_bad_argument_is_rejected_at_the_public_call(name):
    function, args, message = ROWS[name]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        function(*args)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_a_kernel_value_string_is_coerced_to_its_member(kernel):
    # the rule of both enums: a value string is taken as its member, as
    # ArchitectureConfig takes "tree"
    frames = np.vstack([LLR, -LLR])
    for got, want in ((decode(LLR, SPEC, kernel.value), decode(LLR, SPEC, kernel)),
                      (decode_batch(frames, SPEC, kernel.value),
                       decode_batch(frames, SPEC, kernel))):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    cfg = ArchitectureConfig(kind="tree", n=8)
    assert np.array_equal(simulate(cfg, frames, SPEC, kernel.value).decoded,
                          simulate(cfg, frames, SPEC, kernel).decoded)
    stop = CampaignStop(max_frames=256, min_frame_errors=1)
    by_name = run_campaign(SPEC, kernel.value, [1.0], stop, seed=3)
    assert by_name.kernel is kernel
    assert by_name.points == run_campaign(SPEC, kernel, [1.0], stop, seed=3).points

