"""polarsc benchmark: one workload, closed loop, single process.

    python3 perfbench/run.py --workload ber_paired --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; polarsc is imported from its
``src`` directory.  Set-up (import, code construction, one warm-up call per
timed function) is repeated ``setup_reps`` times and its median reported.
End-to-end times are rescaled to a reference host speed, measured by
fixed calibration work run right before and after each timed call (see
``hostspeed.py``); the raw times are printed above the last line.
The loop then repeats units of work, each issued after the previous one
returned, until the next unit would end past ``--seconds``.  Outputs are
checked outside the timed regions.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` every other unit records spans around each call into a layer
and the last line carries the per-layer metrics; the units in between run
untraced, which gives the tracing overhead.  Details (sample counts, span
self times, the environment) are printed above the last line and written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # the numpy/BLAS pools size themselves at import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from hostspeed import Stopwatch  # noqa: E402
from tracing import Recorder, summary  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_UNITS = 4  # a traced run needs two traced and two untraced units


def run(name: str, seed: int, seconds: float, trace: bool, size: W.Size = W.FULL,
        tamper=None) -> dict:
    """Set up, loop and check one workload; return its result and details."""
    rec = Recorder()
    rec.enabled = trace
    checks = W.Checks(tamper)
    setup_times: dict[str, list[float]] = {"raw": [], "scaled": []}
    watch = Stopwatch(W.WORKLOADS[name].host_work)  # times the units' calls
    setup_watch = Stopwatch()  # set-up, mostly import, does every kind of work

    def set_up():
        workload = W.WORKLOADS[name](W.fresh_import(SRC), size, seed, rec, checks, watch)
        workload.warm_up()
        return workload

    for rep in range(size.setup_reps):
        rec.run = f"setup{rep}"
        wl = setup_watch.call(rec.span("setup"), set_up)
        raw, scaled = setup_watch.take()
        setup_times["raw"].append(raw)
        setup_times["scaled"].append(scaled)

    walls: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    start = time.perf_counter()
    unit = 0
    while True:
        traced = trace and unit % 2 == 0
        rec.enabled = traced
        rec.run = f"unit{unit}"
        for region, t in wl.unit(unit, traced).items():
            walls[traced].setdefault(region, []).append(t)
        unit += 1
        elapsed = time.perf_counter() - start
        if unit >= MIN_UNITS and elapsed * (unit + 1) / unit > seconds:
            break
    rec.enabled = trace
    rec.run = "finish"
    wl.finish()

    wall = statistics.median(walls[False]["scaled"])
    if trace:
        metrics = layer_metrics(rec, wl, walls, checks)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times["scaled"]), "s"),
            "wall_s": (wall, "s"),
            "frames_per_s": (wl.frames_per_unit / wall, "1/s"),
            "info_bits_per_s": (wl.frames_per_unit * wl.info_bits_per_frame / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "units": unit,
        "setup_s": {k: summary(v) for k, v in setup_times.items()},
        "calibration_s": summary(watch.calibrations),
        "regions": {f"{region}{' traced' if t else ''}": summary(v)
                    for t, by_region in walls.items() for region, v in by_region.items()},
        "failed_checks": checks.failed,
        "spans": {name: {"total": summary(v), "self": summary(s)}
                  for (name, v), s in zip(rec.by_name().items(),
                                           rec.by_name("self").values())},
    }
    return {"result": result, "detail": detail, "recorder": rec}


def layer_metrics(rec: Recorder, wl: W.Workload, walls: dict, checks: W.Checks) -> dict:
    """Per-layer metrics of a traced run.  A metric the workload does not
    exercise reads 0."""
    durations = rec.by_name()
    traced_units = len(walls[True]["timed"])

    def med(span: str) -> float:
        return statistics.median(durations[span]) if span in durations else 0.0

    values = {name: med(W.span_name(name)) for name, unit in W.PER_LAYER
              if name in W.TIMED_METRICS}
    values.update(wl.counts)
    values["codespec.encode_calls"] = len(durations.get("codespec.encode", ())) / traced_units
    for k in W.KERNELS:
        decode = values[f"reference.decode_batch_s.{k}"]
        values[f"reference.decode_self_s.{k}"] = decode and (
            decode - values["codespec.encode_s"] - values[f"kernels.f_replay_s.{k}"]
            - values[f"kernels.g_replay_s.{k}"])
    total_cycles = 0
    for kind in W.KINDS:
        sim = values[f"archsim.simulate_s.{kind}"]
        cycles = values.get(f"archsim.cycles.{kind}", 0)
        total_cycles += cycles
        values[f"archsim.exec_self_s.{kind}"] = sim and (
            sim - values[f"schedule.build_schedule_s.{kind}"])
        values[f"archsim.host_us_per_cycle.{kind}"] = sim / cycles * 1e6 if cycles else 0.0
    values["archsim.sim_cycles_per_s"] = (
        total_cycles / statistics.median(walls[False]["scaled"]))

    # Layer shares: inclusive time of the calls made directly inside the
    # workload's attribution region, over the region's wall time.
    kids = rec.children()
    regions = [s for s in rec.spans if s.name == wl.region]
    region_total = sum(s.duration for s in regions)
    by_layer = dict.fromkeys(W.LAYERS, 0.0)
    for s in regions:
        for c in kids.get(s.sid, ()):
            by_layer[c.name.split(".")[0]] += c.duration
    for layer, t in by_layer.items():
        values[f"share.{layer}"] = t / region_total
    values["trace.attributed_share"] = sum(by_layer.values()) / region_total
    traced_wall = statistics.median(walls[True][wl.region])
    untraced_wall = statistics.median(walls[False][wl.region])
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["checks.failed_share"] = len(checks.failed) / checks.attempted
    values["host.calibrate_s"] = statistics.median(wl.watch.calibrations)
    values["host.raw_wall_s"] = statistics.median(walls[False]["timed"])
    return {name: (values.get(name, 0), unit) for name, unit in W.PER_LAYER}


def git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" when
    the tree is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "polarsc" / "__init__.py").is_file():
        print(f"error: no polarsc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args.seed)
    detail = out["detail"]
    for name, s in detail["spans"].items():
        tot, own = s["total"], s["self"]
        print(f"span {name:42s} n={tot['n']:<6d} median {tot['median']:.6f} s"
              f"  self {own['median']:.6f} s" + "".join(
                  f"  p{q} {tot['p' + q]:.6f} s" for q in ("99", "90") if "p" + q in tot))
    for region, s in detail["regions"].items():
        print(f"region {region:20s} n={s['n']:<4d} median {s['median']:.6f} s")
    setup = detail["setup_s"]
    print(f"setup n={setup['raw']['n']} median {setup['raw']['median']:.6f} s"
          f" (rescaled {setup['scaled']['median']:.6f} s)  calibration median"
          f" {detail['calibration_s']['median']:.6f} s  units {detail['units']}"
          f"  failed checks {detail['failed_checks']}")
    print(json.dumps({"env": env}))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "detail": detail, "result": out["result"]}, fh, indent=1)
    if args.trace:
        out["recorder"].write(OUT / f"{stem}-spans.jsonl", env)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
