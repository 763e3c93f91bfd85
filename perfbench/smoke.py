"""Smoke test of the benchmark at n = 64.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at a tiny size and checks that each
metric BENCHMARK.json names is emitted with its unit, that every output
check passes, and that the traced run attributes the workload's time to
layer spans.  Then it runs each workload once more with the first output
that enters an equality check corrupted, and checks that the corruption is
counted as a failed check.  The program itself is not touched.  Exits 1 on
the first problem.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import run
import workloads as W

SECONDS = 0.5


def corrupt_first():
    """A tamper function that flips the low bit of the first output it sees."""
    seen = []

    def tamper(value):
        if seen:
            return value
        seen.append(True)
        value = np.array(value, copy=True)
        value.flat[0] ^= 1
        return value

    return tamper


def main() -> int:
    if not (run.SRC / "polarsc" / "__init__.py").is_file():
        print(f"error: no polarsc package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if list(expected[True].items()) != W.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from workloads.PER_LAYER")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(W.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in W.WORKLOADS:
        for trace in (False, True):
            res = run.run(name, W.DEFAULT_SEED, SECONDS, trace, size=W.SMOKE)["result"]
            label = f"{name} trace={int(trace)}"
            metrics = res["metrics"]
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{label}: checks failed {res}")
            for k, v in metrics.items():
                if not math.isfinite(v["value"]) or (not trace and v["value"] <= 0):
                    problems.append(f"{label}: {k} = {v['value']}")
            if trace:
                value = {k: v["value"] for k, v in metrics.items()}
                if value["trace.attributed_share"] < 0.9:
                    problems.append(f"{label}: attributed share "
                                    f"{value['trace.attributed_share']:.3f} < 0.9")
                if value["checks.failed_share"] != 0:
                    problems.append(f"{label}: failed share {value['checks.failed_share']}")
                shares = {layer: value[f"share.{layer}"] for layer in W.LAYERS}
                if name == "machines":
                    shares["schedule+archsim"] = shares.pop("schedule") + shares.pop("archsim")
                top = max(shares, key=shares.get)
                want = {"ber_paired": "reference", "machines": "schedule+archsim",
                        "genie_construct": "codespec"}[name]
                if top != want:
                    problems.append(f"{label}: largest share is {top}, expected {want}")
            print(f"ok? {label}: {res['attempted']} checks, {len(problems)} problems so far")

        res = run.run(name, W.DEFAULT_SEED, SECONDS, True, size=W.SMOKE,
                      tamper=corrupt_first())["result"]
        share = res["metrics"]["checks.failed_share"]["value"]
        if res["correct"] or res["failed"] < 1 or share <= 0:
            problems.append(f"{name}: corrupted output not counted: {res['failed']} failed, "
                            f"failed share {share}")
        print(f"ok? {name} corrupted: {res['failed']} of {res['attempted']} checks failed")

    for p in problems:
        print("PROBLEM", p)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
