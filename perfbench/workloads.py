"""The three workloads of the polarsc benchmark and the checks on their output.

Every workload uses the code n = 1024, k = 512 built by
``construct_frozen_bec(1024, 512, 0.5)`` at Eb/N0 = 2.0 dB and calls only the
public API of ``polarsc``.  One loop unit is a fixed amount of work; the
harness in ``run.py`` repeats units, closed loop, until the run's time is up.

A unit returns the wall time of its ``timed`` calls, the calls end-to-end
metrics are made of, raw and rescaled to the reference host (see
``hostspeed``), and, for ``ber_paired``, of its ``replica`` region.  Checks,
host calibrations and the decomposition calls of the traced run lie outside
them.
Every call into ``polarsc`` sits in a span named ``<layer>.<function>[.<kernel
or machine kind>]``; spans of calls made only to check an output are named
``check.<layer>...`` so that they feed no layer metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EBN0_DB = 2.0
DESIGN_ERASURE = 0.5
GENIE_SIGMA = 0.794  # 2.0 dB at rate 1/2
GENIE_BATCH = 512  # frames per genie_error_counts block
OVERLAP_P = 3
RNG_BLOCK = 256  # run_campaign's frames per Philox stream (its reproducibility contract)
WARM_FRAMES = 16  # frames in each set-up warm-up call
DEFAULT_SEED = 0
KERNELS = ("llr_minsum", "llr_exact")
KINDS = ("fft", "tree", "line", "semi", "overlap")
LAYERS = ("channel", "codespec", "kernels", "reference", "schedule", "archsim",
          "complexity")


@dataclass(frozen=True)
class Size:
    n: int
    k: int
    campaign_frames: int  # per run_campaign call, two RNG blocks
    machine_frames: int  # per simulate call, a multiple of OVERLAP_P
    genie_trials: int  # a multiple of GENIE_BATCH
    line_sample: int  # frames of the first unit re-decoded by the line machine
    setup_reps: int
    genie_digest: str  # of genie_error_counts(n, GENIE_SIGMA, genie_trials, DEFAULT_SEED)
    campaign_counts: tuple  # (bit, frame) errors per kernel of run_campaign at DEFAULT_SEED


FULL = Size(n=1024, k=512, campaign_frames=512, machine_frames=48, genie_trials=512,
            line_sample=8, setup_reps=5, genie_digest="3365aaf47f62c42a",
            campaign_counts=((3930, 61), (3116, 56)))
SMOKE = Size(n=64, k=32, campaign_frames=512, machine_frames=6, genie_trials=512,
             line_sample=4, setup_reps=2, genie_digest="7f1149cba821f661",
             campaign_counts=((656, 70), (558, 63)))

TIMED_METRICS = [f"channel.{f}_s" for f in ("rng", "bpsk_modulate", "awgn_llr", "error_count")]
TIMED_METRICS += [f"channel.run_campaign_s.{k}" for k in KERNELS]
TIMED_METRICS += ["codespec.encode_s", "codespec.construct_frozen_bec_s",
           "codespec.construct_frozen_mc_s", "kernels.from_llr_s"]
TIMED_METRICS += [f"kernels.{fn}_replay_s.{k}" for fn in ("f", "g") for k in KERNELS]
TIMED_METRICS += [f"reference.decode_batch_s.{k}" for k in KERNELS]
TIMED_METRICS += ["reference.genie_error_counts_s"]
TIMED_METRICS += [f"schedule.build_schedule_s.{kind}" for kind in KINDS]
TIMED_METRICS += [f"archsim.simulate_s.{kind}" for kind in KINDS]

#: Every per-layer metric with its unit, in output order.
PER_LAYER = [(name, "s") for name in TIMED_METRICS]
PER_LAYER += [("codespec.encode_calls", "count"), ("kernels.f_elements", "count"),
              ("kernels.g_elements", "count"), ("kernels.bytes_computed", "B")]
PER_LAYER += [(f"reference.decode_self_s.{k}", "s") for k in KERNELS]
PER_LAYER += [(f"schedule.entries.{kind}", "count") for kind in KINDS]
for _kind in KINDS:
    PER_LAYER += [(f"archsim.exec_self_s.{_kind}", "s"),
                  (f"archsim.host_us_per_cycle.{_kind}", "us"),
                  (f"archsim.cycles.{_kind}", "count"),
                  (f"archsim.pe_activations.{_kind}", "count"),
                  (f"archsim.pe_utilisation.{_kind}", "share"),
                  (f"complexity.model_cycles.{_kind}", "count"),
                  (f"complexity.gap_cycles.{_kind}", "count")]
PER_LAYER += [("archsim.sim_cycles_per_s", "1/s"),
              ("archsim.overlap_cycles_per_frame", "cycles/frame"),
              ("complexity.model_gap_cycles", "count")]
PER_LAYER += [(f"share.{layer}", "share") for layer in LAYERS]
PER_LAYER += [("trace.attributed_share", "share"), ("trace.wall_s", "s"),
              ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
              ("checks.failed_share", "share"), ("host.calibrate_s", "s"),
              ("host.raw_wall_s", "s")]


def span_name(metric: str) -> str:
    """``layer.fn_s[.suffix]`` -> the span ``layer.fn[.suffix]`` it is timed by."""
    layer, fn, *rest = metric.split(".")
    return ".".join([layer, fn.removesuffix("_s"), *rest])


def fresh_import(src: Path):
    """Import polarsc from ``src`` anew, so set-up pays its import each time."""
    for name in [m for m in sys.modules if m == "polarsc" or m.startswith("polarsc.")]:
        del sys.modules[name]
    pc = importlib.import_module("polarsc")
    if Path(pc.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"polarsc came from {pc.__file__}, not from {src}")
    return pc


def philox(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=entropy)))


class Checks:
    """Output checks.  ``feed`` passes an output on its way into an
    equality check through ``tamper``, which the smoke test uses to show
    that a corrupted output is counted."""

    def __init__(self, tamper=None):
        self.tamper = tamper
        self.attempted = 0
        self.failed: list[str] = []

    def feed(self, value):
        return self.tamper(value) if self.tamper else value

    def expect(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


class Workload:
    name = ""
    region = "timed"  # the span whose children the traced run attributes to layers
    host_work = ("interpreter", "narrow")  # hostspeed parts like its timed calls

    def __init__(self, pc, size: Size, seed: int, rec, checks: Checks, watch):
        self.pc, self.size, self.seed, self.rec, self.checks = pc, size, seed, rec, checks
        self.watch = watch  # a hostspeed.Stopwatch, shared with set-up
        self.counts: dict[str, float] = {}  # per-layer counts found by the last unit

    def timed(self, name: str, fn, *args, **kwargs):
        """Make one timed call inside the spans ``timed`` and ``name``."""
        return self.watch.call(self._timed_span(name), fn, *args, **kwargs)

    @contextlib.contextmanager
    def _timed_span(self, name: str):
        with self.rec.span("timed"), self.rec.span(name):
            yield

    def timed_walls(self) -> dict[str, float]:
        """The unit's timed calls, raw and rescaled, since the last read."""
        raw, scaled = self.watch.take()
        return {"timed": raw, "scaled": scaled}

    def unit_seed(self, unit: int) -> int:
        return self.seed * 1_000_003 + unit

    def bec_spec(self):
        with self.rec.span("codespec.construct_frozen_bec"):
            return self.pc.construct_frozen_bec(self.size.n, self.size.k, DESIGN_ERASURE)

    def noisy_batch(self, spec, entropy: tuple, frames: int, sigma: float):
        """Random message bits through encode, BPSK and Gaussian noise, drawn
        as run_campaign and genie_error_counts draw them: bits, then noise."""
        pc, span = self.pc, self.rec.span
        with span("channel.rng"):
            rng = philox(*entropy)
            bits = rng.integers(0, 2, size=(frames, spec.k), dtype=np.uint8)
        u = np.zeros((frames, spec.n), dtype=np.uint8)
        u[:, spec.info_indices] = bits
        with span("codespec.encode"):
            c = pc.encode(u, spec)
        with span("channel.bpsk_modulate"):
            x = pc.bpsk_modulate(c)
        with span("channel.rng"):
            noise = rng.standard_normal((frames, spec.n))
        with span("channel.awgn_llr"):
            llr = pc.awgn_llr(x + sigma * noise, sigma)
        return u, c, llr

    def replay_kernels(self, kernel, values: np.ndarray, bits: np.ndarray) -> None:
        """Replay the f and g calls of one decode with contiguous operands:
        per stage l, 2**(m-1-l) calls of width 2**l for each of f and g."""
        span = self.rec.span
        batch, n = values.shape
        m = n.bit_length() - 1
        stages = [(l, 1 << (m - 1 - l),
                   np.ascontiguousarray(values[:, : 1 << l]),
                   np.ascontiguousarray(values[:, 1 << l: 2 << l]),
                   np.ascontiguousarray(bits[:, : 1 << l])) for l in range(m)]
        with span(f"kernels.f_replay.{kernel.value}"):
            for l, calls, a, b, _ in stages:
                with span(f"kernels.f_stage{l}.{kernel.value}"):
                    for _ in range(calls):
                        kernel.f(a, b)
        with span(f"kernels.g_replay.{kernel.value}"):
            for l, calls, a, b, us in stages:
                with span(f"kernels.g_stage{l}.{kernel.value}"):
                    for _ in range(calls):
                        kernel.g(a, b, us)
        # Bytes computed from operand and result array sizes, not measured.
        f_bytes = sum(calls * 3 * a.nbytes for _, calls, a, _, _ in stages)
        g_bytes = sum(calls * (3 * a.nbytes + us.nbytes) for _, calls, a, _, us in stages)
        self.counts["kernels.f_elements"] = sum(calls * a.size for _, calls, a, _, _ in stages)
        self.counts["kernels.g_elements"] = self.counts["kernels.f_elements"]
        self.counts["kernels.bytes_computed"] = f_bytes + g_bytes

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self, unit: int, traced: bool) -> dict[str, float]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once per run, after the loop."""


class BerPaired(Workload):
    """run_campaign for min-sum, then exact, on one seed and frame budget."""

    name = "ber_paired"
    region = "replica"
    host_work = ("wide",)  # batch decoding: array arithmetic streamed over (256, 1024) blocks

    def __init__(self, pc, size, seed, rec, checks, watch):
        super().__init__(pc, size, seed, rec, checks, watch)
        self.spec = self.bec_spec()
        self.sigma = pc.sigma_from_ebn0_db(EBN0_DB, self.spec.k / self.spec.n)
        self.kernels = [pc.Kernel(k) for k in KERNELS]
        frames = size.campaign_frames
        # Frame errors never exceed frames, so only the frame budget stops a point.
        self.stop = pc.CampaignStop(max_frames=frames, min_frame_errors=frames + 1)
        self.frames_per_unit = len(KERNELS) * frames
        self.info_bits_per_frame = self.spec.k

    def warm_up(self):
        stop = self.pc.CampaignStop(max_frames=WARM_FRAMES, min_frame_errors=WARM_FRAMES + 1)
        for kernel in self.kernels:
            self.pc.run_campaign(self.spec, kernel, [EBN0_DB], stop, seed=self.seed)

    def unit(self, unit, traced):
        seed = self.unit_seed(unit)
        reports = {kernel: self.timed(f"channel.run_campaign.{kernel.value}",
                                      self.pc.run_campaign, self.spec, kernel, [EBN0_DB],
                                      self.stop, seed=seed)
                   for kernel in self.kernels}
        walls = self.timed_walls()
        t1 = time.perf_counter()
        with self.rec.span("replica"):
            replicas = {kernel: self.replica(kernel, seed) for kernel in self.kernels}
        walls["replica"] = time.perf_counter() - t1

        for kernel, (counts, _) in replicas.items():
            p = reports[kernel].points[0]
            got = self.checks.feed(np.array([p.frames, p.bit_errors, p.frame_errors]))
            self.checks.expect(f"replica counts match run_campaign ({kernel.value})",
                               np.array_equal(got, counts))
        if unit == 0:
            self.check_line(replicas)
        if traced:
            self.decompose(replicas)
        return walls

    def finish(self):
        """Error counts at the default seed must equal those recorded when the
        benchmark was defined, which catches a change common to run_campaign
        and the replica, such as a kernel's arithmetic."""
        for kernel, want in zip(self.kernels, self.size.campaign_counts):
            with self.rec.span(f"check.channel.run_campaign.{kernel.value}"):
                p = self.pc.run_campaign(self.spec, kernel, [EBN0_DB], self.stop,
                                         seed=DEFAULT_SEED).points[0]
            self.checks.expect(f"default-seed error counts are as recorded ({kernel.value})",
                               (p.bit_errors, p.frame_errors) == want)

    def replica(self, kernel, seed):
        """run_campaign's loop rebuilt from public calls on the same Philox
        entropy (seed, point 0, frame base).  Returns (frames, bit errors,
        frame errors) and the first block's arrays."""
        span, spec = self.rec.span, self.spec
        frames = self.size.campaign_frames
        info = spec.info_indices
        bit_errors = frame_errors = 0
        first = None
        for base in range(0, frames, RNG_BLOCK):
            todo = min(RNG_BLOCK, frames - base)
            u, _, llr = self.noisy_batch(spec, (seed, 0, base), todo, self.sigma)
            with span("kernels.from_llr"):
                values = kernel.from_llr(llr)
            with span(f"reference.decode_batch.{kernel.value}"):
                u_hat, c_hat = self.pc.decode_batch(values, spec, kernel)
            with span("channel.error_count"):
                wrong = u_hat[:, info] != u[:, info]
                bit_errors += int(wrong.sum())
                frame_errors += int(wrong.any(axis=1).sum())
            first = first or (llr, values, u_hat, c_hat)
        return np.array([frames, bit_errors, frame_errors]), first

    def check_line(self, replicas):
        """Re-decode a fixed sample of frames on the line machine, an executor
        that shares no code with the reference decoder's loop."""
        pc = self.pc
        cfg = pc.ArchitectureConfig(kind=pc.ArchKind.LINE, n=self.spec.n)
        count = self.size.line_sample
        for kernel, (_, (llr, _, u_hat, _)) in replicas.items():
            with self.rec.span("check.archsim.simulate.line"):
                res = pc.simulate(cfg, llr[:count], self.spec, kernel)
            self.checks.expect(f"line machine matches the reference ({kernel.value})",
                               np.array_equal(self.checks.feed(res.decoded), u_hat[:count]))

    def decompose(self, replicas):
        """Replay decode_batch's re-encode and its f/g calls for one block."""
        for kernel, (_, (_, values, u_hat, c_hat)) in replicas.items():
            with self.rec.span("codespec.encode"):
                c = self.pc.encode(u_hat, self.spec)
            self.checks.expect("re-encode replay matches decode_batch",
                               np.array_equal(c, c_hat))
            self.replay_kernels(kernel, values, c_hat)


class Machines(Workload):
    """simulate on all five machines, each call on a fresh noisy batch."""

    name = "machines"

    def __init__(self, pc, size, seed, rec, checks, watch):
        super().__init__(pc, size, seed, rec, checks, watch)
        self.spec = self.bec_spec()
        self.sigma = pc.sigma_from_ebn0_db(EBN0_DB, self.spec.k / self.spec.n)
        self.kernel = pc.Kernel.LLR_MINSUM
        n = size.n
        extra = {"semi": {"pe_count": n // 4}, "overlap": {"overlap_p": OVERLAP_P}}
        self.configs = {kind: pc.ArchitectureConfig(kind=pc.ArchKind(kind), n=n,
                                                    **extra.get(kind, {}))
                        for kind in KINDS}
        self.frames_per_unit = len(KINDS) * size.machine_frames
        self.info_bits_per_frame = self.spec.k
        self.first_counts = None

    def warm_up(self):
        frames = np.ones((OVERLAP_P, self.size.n))
        for cfg in self.configs.values():
            self.pc.simulate(cfg, frames, self.spec, self.kernel)

    def unit(self, unit, traced):
        pc, span = self.pc, self.rec.span
        seed = self.unit_seed(unit)
        frames = self.size.machine_frames
        batches = [self.noisy_batch(self.spec, (seed, j), frames, self.sigma)
                   for j in range(len(KINDS))]
        results = {kind: self.timed(f"archsim.simulate.{kind}", pc.simulate,
                                    self.configs[kind], llr, self.spec, self.kernel)
                   for kind, (_, _, llr) in zip(KINDS, batches)}
        walls = self.timed_walls()
        schedules = {}
        for kind, cfg in self.configs.items():
            with span(f"schedule.build_schedule.{kind}"):
                schedules[kind] = pc.build_schedule(cfg)
        self.check(results, batches, schedules)
        return walls

    def check(self, results, batches, schedules):
        pc, expect = self.pc, self.checks.expect
        n, frames = self.size.n, self.size.machine_frames
        counts = {}
        for kind, (_, _, llr) in zip(KINDS, batches):
            res, cfg = results[kind], self.configs[kind]
            with self.rec.span("check.reference.decode_batch"):
                ref, _ = pc.decode_batch(self.kernel.from_llr(llr), self.spec, self.kernel)
            expect(f"{kind} decodes bit for bit like decode_batch",
                   np.array_equal(self.checks.feed(res.decoded), ref))
            if kind == "overlap":
                expect("overlap cycles equal the sum of its group schedules",
                       res.total_cycles == frames // OVERLAP_P * schedules[kind].total_cycles)
            else:
                expect(f"{kind} cycles equal cycles_per_vector x frames",
                       res.total_cycles
                       == pc.cycles_per_vector(kind, n, cfg.pe_count) * frames)
            rate = pc.throughput(kind, n, p_vectors=cfg.overlap_p or 1,
                                 pe_count=cfg.pe_count)["exact"]
            model = round(frames * n / rate)  # bits per cycle at t_np = 1
            activations = sum(res.pe_activations.values())
            pes = len(res.pe_activations)
            counts.update({
                f"schedule.entries.{kind}": len(schedules[kind].entries),
                f"archsim.cycles.{kind}": res.total_cycles,
                f"archsim.pe_activations.{kind}": activations,
                f"archsim.pe_utilisation.{kind}": activations / (res.total_cycles * pes),
                f"complexity.model_cycles.{kind}": model,
                f"complexity.gap_cycles.{kind}": res.total_cycles - model,
            })
        if self.first_counts is None:
            self.first_counts = counts
        expect("simulated counts repeat from unit to unit", counts == self.first_counts)
        self.counts.update(counts)
        self.counts["archsim.overlap_cycles_per_frame"] = (
            counts["archsim.cycles.overlap"] / frames)
        self.counts["complexity.model_gap_cycles"] = sum(
            counts[f"complexity.gap_cycles.{kind}"] for kind in KINDS)


class GenieConstruct(Workload):
    """construct_frozen_mc: genie-aided decoding of a full-rate code."""

    name = "genie_construct"
    host_work = ("wide",)  # batch decoding: array arithmetic streamed over (512, 1024) blocks

    def __init__(self, pc, size, seed, rec, checks, watch):
        super().__init__(pc, size, seed, rec, checks, watch)
        n = size.n
        self.full_rate = pc.CodeSpec(m=n.bit_length() - 1, frozen=())
        self.frames_per_unit = size.genie_trials
        self.info_bits_per_frame = n  # every position of the genie's code carries a bit

    def warm_up(self):
        self.pc.construct_frozen_mc(self.size.n, self.size.k, GENIE_SIGMA, WARM_FRAMES,
                                    self.seed)

    def unit(self, unit, traced):
        pc, span, size = self.pc, self.rec.span, self.size
        seed = self.unit_seed(unit)
        spec = self.timed("codespec.construct_frozen_mc", pc.construct_frozen_mc, size.n,
                          size.k, GENIE_SIGMA, size.genie_trials, seed)
        walls = self.timed_walls()
        with span("reference.genie_error_counts"):
            counts = pc.genie_error_counts(size.n, GENIE_SIGMA, size.genie_trials, seed)
        self.check(spec, counts)
        if traced:
            self.decompose(seed)
        return walls

    def check(self, spec, counts):
        size, expect = self.size, self.checks.expect
        expect("genie counts lie in [0, trials]",
               counts.shape == (size.n,) and counts.min() >= 0
               and counts.max() <= size.genie_trials)
        expect("frozen set has n - k entries", len(spec.frozen) == size.n - size.k)
        frozen = spec.frozen_mask
        expect("frozen positions have the highest genie counts",
               counts[frozen].min() >= counts[~frozen].max())

    def decompose(self, seed):
        """Replay the first genie block's encode, LLR mapping and f/g calls."""
        kernel = self.pc.Kernel.LLR_EXACT
        frames = min(GENIE_BATCH, self.size.genie_trials)
        _, c, llr = self.noisy_batch(self.full_rate, (seed, 0), frames, GENIE_SIGMA)
        with self.rec.span("kernels.from_llr"):
            values = kernel.from_llr(llr)
        self.replay_kernels(kernel, values, c)

    def finish(self):
        size = self.size
        with self.rec.span("check.reference.genie_error_counts"):
            counts = self.pc.genie_error_counts(size.n, GENIE_SIGMA, size.genie_trials,
                                                DEFAULT_SEED)
        self.checks.expect("default-seed genie counts match the recorded digest",
                           digest(self.checks.feed(counts)) == size.genie_digest)


def digest(counts) -> str:
    return hashlib.sha256(np.asarray(counts, dtype="<i8").tobytes()).hexdigest()[:16]


WORKLOADS = {cls.name: cls for cls in (BerPaired, Machines, GenieConstruct)}
