"""Successive cancellation decoding toolkit: encoding, reference decoding,
cycle-accurate architecture simulation, cost models, and channel campaigns."""

from .archsim import SimResult, SimulationError, simulate
from .channel import (BerPoint, BerReport, CampaignStop, awgn_llr, bpsk_modulate,
                      monotonicity_flags, run_campaign, sigma_from_ebn0_db,
                      wilson_halfwidth)
from .codespec import (CodeSpec, bec_erasure_profile, bit_reverse_permutation,
                       butterfly_transform, construct_frozen_bec,
                       construct_frozen_mc, encode)
from .complexity import (EXAMPLE_COSTS, ComplexityReport, CostParams, MachineModel,
                         cycles_per_vector, model, node_processor_count, register_count,
                         table_report, throughput)
from .kernels import LLR_CLIP, Kernel
from .reference import decode, decode_batch, genie_error_counts
from .schedule import (ArchKind, ArchitectureConfig, LivenessReport, Schedule,
                       build_schedule, check_no_conflict,
                       register_liveness, stage_duplication_count)

__version__ = "0.1.0"

__all__ = [
    "ArchKind", "ArchitectureConfig", "BerPoint", "BerReport", "CampaignStop",
    "CodeSpec", "ComplexityReport", "CostParams",
    "EXAMPLE_COSTS", "Kernel", "LLR_CLIP", "LivenessReport", "MachineModel", "Schedule",
    "SimResult", "SimulationError", "awgn_llr",
    "bec_erasure_profile", "bit_reverse_permutation", "bpsk_modulate",
    "build_schedule", "butterfly_transform", "check_no_conflict",
    "construct_frozen_bec", "construct_frozen_mc",
    "cycles_per_vector", "decode", "decode_batch",
    "encode", "genie_error_counts", "model", "monotonicity_flags",
    "node_processor_count", "register_count",
    "register_liveness", "run_campaign", "sigma_from_ebn0_db",
    "stage_duplication_count", "simulate", "table_report", "throughput",
    "wilson_halfwidth",
]
