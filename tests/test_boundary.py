"""The public boundary, one row per bad argument: each public call checks
its arguments once, on entry, and raises ValueError with a message that
starts as the row says."""

import inspect
import re

import numpy as np
import pytest

import polarsc
from polarsc import (ArchitectureConfig, CampaignStop, Kernel, awgn_llr,
                     bit_reverse_permutation, bpsk_modulate, build_schedule, check_no_conflict,
                     construct_frozen_bec, decode, decode_batch, encode, model,
                     monotonicity_flags, node_processor_count, register_count,
                     register_liveness, run_campaign, simulate, stage_duplication_count,
                     throughput)

SPEC = construct_frozen_bec(8, 4, 0.5)
LLR = np.linspace(-3.0, 4.0, 8)
BAD_KERNEL = "'llr_bogus' is not a valid Kernel"
DICT_SPEC, NOT_A_SPEC = {"m": 3, "frozen": []}, "spec must be a CodeSpec, got dict"
TREE = ArchitectureConfig(kind="tree", n=8)
OVERLAP = ArchitectureConfig(kind="overlap", n=8, overlap_p=3)
DICT_CFG, NOT_A_CFG = {"kind": "tree", "n": 8}, "cfg must be an ArchitectureConfig, got dict"
NOT_A_SCHEDULE = "s must be a Schedule, got dict"

# (function, arguments, start of the ValueError message)
ROWS = {
    "decode_batch-spec-dict": (decode_batch, (LLR, DICT_SPEC, Kernel.LLR_EXACT), NOT_A_SPEC),
    "decode-spec-dict": (decode, (LLR, DICT_SPEC, Kernel.LLR_EXACT), NOT_A_SPEC),
    "decode-spec-str": (decode, (LLR, "spec", Kernel.LLR_EXACT),
                        "spec must be a CodeSpec, got str"),
    "simulate-spec-dict": (simulate, (TREE, LLR, DICT_SPEC, Kernel.LLR_EXACT), NOT_A_SPEC),
    "run_campaign-spec-dict": (run_campaign, (DICT_SPEC, Kernel.LLR_EXACT, [1.0]), NOT_A_SPEC),
    "encode-spec-dict": (encode, (np.zeros(8, np.uint8), DICT_SPEC), NOT_A_SPEC),
    "stage_duplication_count-float": (stage_duplication_count, (0.5, 3), "l must be an integer"),
    "stage_duplication_count-bool": (stage_duplication_count, (0, True), "p must be an integer"),
    "build_schedule-float": (build_schedule, (OVERLAP, 2.5), "vectors must be an integer"),
    "build_schedule-bool": (build_schedule, (OVERLAP, True), "vectors must be an integer"),
    "awgn_llr-complex": (awgn_llr, (np.array([1 + 1j, -1]), 1.0),
                         "y must be real numbers, got dtype complex128"),
    "awgn_llr-string": (awgn_llr, ("abc", 1.0), "y must be real numbers, got dtype <U3"),
    "bit_reverse_permutation-float": (bit_reverse_permutation, (3.5,), "m must be an integer"),
    "bit_reverse_permutation-bool": (bit_reverse_permutation, (True,), "m must be an integer"),
    "bpsk_modulate-two": (bpsk_modulate, ([2],), "input bits must be 0 or 1"),
    "bpsk_modulate-half": (bpsk_modulate, ([0.5],), "input bits must be 0 or 1"),
    "hard_decision-nan": (Kernel.LLR_MINSUM.hard_decision, (np.array([np.nan]),),
                          "soft values must not be NaN"),
    "decode-kernel-string": (decode, (LLR, SPEC, "llr_bogus"), BAD_KERNEL),
    "decode_batch-kernel-string": (decode_batch, (LLR, SPEC, "llr_bogus"), BAD_KERNEL),
    "simulate-kernel-string": (simulate, (TREE, LLR, SPEC, "llr_bogus"), BAD_KERNEL),
    "run_campaign-kernel-string": (run_campaign, (SPEC, "llr_bogus", [1.0]), BAD_KERNEL),
    # a slot past the last used to raise IndexError, and -1 read the last slot
    "decision_cycles-past-the-last-slot": (build_schedule(TREE).decision_cycles, (5,),
                                           "vector must satisfy 0 <= vector < 1, got 5"),
    "decision_cycles-negative": (build_schedule(OVERLAP).decision_cycles, (-1,),
                                 "vector must satisfy 0 <= vector < 3, got -1"),
    "decision_cycles-float": (build_schedule(TREE).decision_cycles, (0.5,),
                              "vector must be an integer"),
    # a budget the machine lacks used to be dropped without a word
    "throughput-p_vectors-tree": (throughput, ("tree", 8, -3),
                                  "p_vectors only applies to the vector-overlap machine"),
    "throughput-pe_count-tree": (throughput, ("tree", 8, 1, 1.0, 2),
                                 "pe_count only applies to the semi-parallel machine"),
    "throughput-pe_count-overlap": (throughput, ("overlap", 8, 3, 1.0, 2),
                                    "pe_count only applies to the semi-parallel machine"),
    "throughput-p_vectors-semi": (throughput, ("semi", 8, 3, 1.0, 2),
                                  "p_vectors only applies to the vector-overlap machine"),
    "throughput-p_vectors-float": (throughput, ("overlap", 8, 2.5),
                                   "p_vectors must be an integer"),
    "node_processor_count-p_vectors-fft": (node_processor_count, ("fft", 8, 3),
                                           "p_vectors only applies to the vector-overlap"),
    "register_count-p_vectors-line": (register_count, ("line", 8, 2),
                                      "p_vectors only applies to the vector-overlap machine"),
    "monotonicity_flags-None": (monotonicity_flags, (None,),
                                "report must be a BerReport, got NoneType"),
    # each of these used to raise AttributeError on its first field read
    "simulate-cfg-dict": (simulate, (DICT_CFG, LLR, SPEC, Kernel.LLR_EXACT), NOT_A_CFG),
    "build_schedule-cfg-dict": (build_schedule, (DICT_CFG,), NOT_A_CFG),
    "model-cfg-dict": (model, (DICT_CFG,), NOT_A_CFG),
    "check_no_conflict-dict": (check_no_conflict, ({"cfg": TREE},), NOT_A_SCHEDULE),
    "register_liveness-dict": (register_liveness, ({"cfg": TREE},), NOT_A_SCHEDULE),
    "run_campaign-stop-dict": (run_campaign, (SPEC, Kernel.LLR_EXACT, [1.0],
                                              {"max_frames": 256}),
                               "stop must be a CampaignStop, got dict"),
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


def test_all_names_each_public_name_once():
    # a name removed from the package but left in __all__, or one added
    # without it, breaks `from polarsc import *` or hides the name
    public = {name for name, value in vars(polarsc).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(polarsc.__all__) == len(set(polarsc.__all__))
    assert set(polarsc.__all__) == public
