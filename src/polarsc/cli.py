"""Command-line surface for batch experiments and golden-file generation.

Every subcommand reads an optional JSON config document (``--config``),
whose keys are the subcommand's own flags other than its file paths;
explicit flags override config values.  The subcommands that draw random
numbers (construct, simulate, ber-sweep) take a ``--seed``, which must be
a non-negative integer.
Machine-readable JSON outputs embed a ``_meta`` block echoing the sha256
of the effective config and the polarsc and numpy versions, for
reproducibility.  Schedule CSV output carries no metadata so it can be
compared byte for byte against golden files; its config hash goes to
stderr instead.

Exit codes: 0 success, 2 usage/config error, 3 internal consistency error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .archsim import SimulationError, simulate
from .channel import (CampaignStop, _noisy_frames, awgn_llr, bpsk_modulate,
                      run_campaign, sigma_from_ebn0_db)
from .codespec import (CodeSpec, _as_seed, bit_reverse_permutation, construct_frozen_bec,
                       construct_frozen_mc, encode)
from .complexity import CostParams, table_report
from .kernels import LLR_CLIP, Kernel
from .reference import decode_batch
from .schedule import ArchKind, ArchitectureConfig, build_schedule


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _meta(cfg: dict) -> dict:
    """The ``_meta`` block of a JSON output."""
    return {"config_sha256": _config_hash(cfg), "polarsc_version": __version__,
            "numpy_version": np.__version__}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _fits(value, flag_type) -> bool:
    """Whether a config value fits its flag's ``type=``: a JSON int fits a
    float flag, and a JSON bool fits no number flag."""
    accepted = (int, float) if flag_type is float else flag_type
    return isinstance(value, accepted) and not isinstance(value, bool)


def _effective(args: argparse.Namespace, required=()) -> dict:
    """Merge config-file values and CLI flags; flags win.  The config keys
    are the subcommand's settings, ``args.keys`` (see ``_build_parser``).
    A config value must fit the ``type=`` and ``choices=`` of its flag, a
    seed must be a non-negative integer, and every key in ``required`` must
    end up with a value."""
    cfg = _load_config(args.config)
    unknown = set(cfg) - set(args.keys)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        flag_type = args.flag_types.get(key)
        if flag_type and not _fits(value, flag_type):
            raise ValueError(f"config key {key!r} must be {flag_type.__name__}, "
                             f"got {value!r}")
        choices = args.flag_choices.get(key)
        if choices and value not in choices:
            raise ValueError(f"unknown {key} {value!r} "
                             f"(choose one of: {', '.join(sorted(choices))})")
    merged = dict(cfg)
    for key in args.keys:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    if "seed" in merged:
        merged["seed"] = _as_seed(merged["seed"])
    for key in required:
        if merged.get(key) is None:
            raise ValueError(f"missing setting {key!r} "
                             f"(pass --{key.replace('_', '-')} or set it in --config)")
    return merged


def _names(enum) -> list[str]:
    return sorted(member.value for member in enum)


def _choice(enum, setting: str, name):
    """Look up a named choice such as an arch or a kernel."""
    try:
        return enum(name)
    except ValueError:
        raise ValueError(f"unknown {setting} {name!r} "
                         f"(choose one of: {', '.join(_names(enum))})") from None


def _write(path: str | None, text: str):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spec(path: str) -> CodeSpec:
    with open(path) as fh:
        return CodeSpec.from_json(fh.read())


def _load_costs(path: str) -> CostParams:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("costs file must hold a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(CostParams)}
    if unknown:
        raise ValueError(f"unknown cost keys: {sorted(unknown)}")
    return CostParams(**doc)


def _read_bit_lines(path: str, n: int) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if len(line) != n or set(line) - {"0", "1"}:
                raise ValueError(f"{path}:{ln}: expected {n} chars of 0/1")
            rows.append([int(c) for c in line])
    if not rows:
        raise ValueError(f"{path}: no bit lines found")
    return np.array(rows, dtype=np.uint8)


def _read_llr_lines(path: str, n: int) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            if not line.strip():
                continue
            vals = [float(tok) for tok in line.split()]
            if len(vals) != n:
                raise ValueError(f"{path}:{ln}: expected {n} values, got {len(vals)}")
            if not np.isfinite(vals).all():
                raise ValueError(f"{path}:{ln}: values must be finite (no NaN or inf)")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no value lines found")
    return np.array(rows, dtype=np.float64)


def _bits_text(blocks: np.ndarray) -> str:
    return "".join("".join(str(int(b)) for b in row) + "\n" for row in blocks)


def _cmd_construct(args) -> int:
    cfg = _effective(args, required=["n", "k"])
    if cfg.get("method", "bec") == "bec":
        spec = construct_frozen_bec(cfg["n"], cfg["k"], cfg.get("design_erasure", 0.5))
    else:
        spec = construct_frozen_mc(cfg["n"], cfg["k"], cfg.get("sigma", 1.0),
                                   cfg.get("trials", 2000), cfg.get("seed", 0))
    _write(args.output, spec.to_json() + "\n")
    print(f"config_sha256: {_config_hash(cfg)}", file=sys.stderr)
    return 0


def _cmd_encode(args) -> int:
    _effective(args)  # encoding has no setting, but a config file is still checked
    spec = _load_spec(args.spec)
    u = _read_bit_lines(args.input, spec.n)
    _write(args.output, _bits_text(encode(u, spec)))
    return 0


def _cmd_decode(args) -> int:
    cfg = _effective(args)
    spec = _load_spec(args.spec)
    kernel = Kernel(cfg.get("kernel", "llr_exact"))
    if cfg.get("input_format", "llr") == "bits":
        c = _read_bit_lines(args.input, spec.n)
        llr = bpsk_modulate(c) * LLR_CLIP
    else:
        llr = _read_llr_lines(args.input, spec.n)
    u_hat, _ = decode_batch(llr, spec, kernel)
    _write(args.output, _bits_text(u_hat))
    return 0


def _make_arch_config(cfg: dict) -> ArchitectureConfig:
    kind = ArchKind(cfg["arch"])
    # Only an absent budget takes the default: an explicit one, even 0 or one
    # for another machine, goes to the config check.
    pe_count, p = cfg.get("pe_count"), cfg.get("P")
    if kind is ArchKind.SEMI_PARALLEL and pe_count is None:
        pe_count = max(1, cfg["n"] // 4)
    if kind is ArchKind.VECTOR_OVERLAP and p is None:
        p = 1
    return ArchitectureConfig(kind=kind, n=cfg["n"], pe_count=pe_count, overlap_p=p)


def _cmd_schedule(args) -> int:
    cfg = _effective(args, required=["arch", "n"])
    sched = build_schedule(_make_arch_config(cfg))
    _write(args.output, sched.to_csv())
    print(f"config_sha256: {_config_hash(cfg)}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _effective(args, required=["arch"] if args.spec else ["arch", "n"])
    spec = _load_spec(args.spec) if args.spec else construct_frozen_bec(
        cfg["n"], cfg["n"] // 2, 0.5)
    if cfg.get("n") not in (None, spec.n):
        raise ValueError(f"n = {cfg['n']} does not match the spec's length {spec.n}")
    cfg["n"] = spec.n
    arch = _make_arch_config(cfg)
    kernel = Kernel(cfg.get("kernel", "llr_exact"))

    if cfg.get("frames"):
        llr = _read_llr_lines(cfg["frames"], spec.n)
        message = None
    else:
        ebn0 = cfg.get("ebn0_db")
        sigma = 1.0 if ebn0 is None else sigma_from_ebn0_db(ebn0, spec.k / spec.n)
        count = cfg.get("random_frames", 1)
        if count < 1:
            raise ValueError(f"random_frames must be >= 1, got {count}")
        message, llr = _noisy_frames(spec, sigma, count, cfg.get("seed", 0))
        message, llr = message.T, llr[bit_reverse_permutation(spec.m)].T  # to (count, n)
        if ebn0 is None:  # noiseless frames, unit-sigma log ratios
            llr = awgn_llr(bpsk_modulate(encode(message, spec)), 1.0)

    result = simulate(arch, llr, spec, kernel)
    print(f"cycles: {result.total_cycles}")
    print(f"cycles_per_vector: {result.period_cycles}")
    for row in result.decoded:
        print("".join(str(int(b)) for b in row))
    if message is not None:
        matches = int((result.decoded == message).all(axis=1).sum())
        print(f"decoded_equal_message: {matches}/{len(message)}")
    if args.trace:
        doc = {
            "_meta": _meta(cfg),
            "arch": cfg["arch"],
            "n": spec.n,
            "total_cycles": result.total_cycles,
            "cycles_per_vector": result.period_cycles,
            "pe_activations": dict(sorted(result.pe_activations.items())),
            "occupancy": [
                [{"stage_instance": inst, "vector": tag, "active": list(active)}
                 for inst, tag, active in cycle_row]
                for cycle_row in result.occupancy
            ],
        }
        _write(args.trace, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_complexity(args) -> int:
    cfg = _effective(args, required=["n"])
    costs = _load_costs(cfg["costs"]) if cfg.get("costs") else CostParams()
    if cfg.get("t_np") is not None:
        costs = dataclasses.replace(costs, t_np=cfg["t_np"])
    report = table_report(cfg["n"], cfg.get("P", 1), costs)
    if cfg.get("format", "text") == "json":
        _write(args.output, report.to_json(meta=_meta(cfg)) + "\n")
    else:
        _write(args.output, report.to_text())
    return 0


def _cmd_ber_sweep(args) -> int:
    cfg = _effective(args, required=["points_db"])
    spec = _load_spec(args.spec)
    points = cfg["points_db"]
    if isinstance(points, str):
        points = [float(tok) for tok in points.split(",")]
    kernels = cfg.get("kernels", "llr_exact")
    if isinstance(kernels, str):
        kernels = kernels.split(",")
    stop = CampaignStop(max_frames=cfg.get("max_frames", 10**6),
                        min_frame_errors=cfg.get("min_frame_errors", 100))
    seed = cfg.get("seed", 0)

    kernels = [_choice(Kernel, "kernel", name) for name in kernels]
    reports = {k.value: run_campaign(spec, k, points, stop, seed=seed) for k in kernels}
    if cfg.get("format", "csv") == "json":
        doc = {"_meta": _meta(cfg),
               "campaigns": {name: json.loads(rep.to_json())
                             for name, rep in reports.items()}}
        _write(args.output, json.dumps(doc, indent=2) + "\n")
    else:
        tables = {name: rep.to_csv().splitlines() for name, rep in reports.items()}
        header = next(iter(tables.values()))[0]
        lines = [f"kernel,{header}"] + [f"{name},{row}" for name, rows in tables.items()
                                        for row in rows[1:]]
        _write(args.output, "\n".join(lines) + "\n")
    print(f"config_sha256: {_config_hash(cfg)}", file=sys.stderr)
    return 0


# Flags that name files to read or write, and help: no config key.
_NOT_SETTINGS = {"help", "config", "output", "spec", "input", "trace"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarsc",
        description="Successive cancellation coding toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--config", help="JSON config document")
        if seeded:
            p.add_argument("--seed", type=int, help="override any configured seed")

    p = sub.add_parser("construct", help="emit a code definition as JSON")
    common(p, seeded=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--method", choices=["bec", "mc"])
    p.add_argument("--design-erasure", dest="design_erasure", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("encode", help="encode bit lines file-to-file")
    common(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode LLR or hard-bit lines file-to-file")
    common(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--input-format", dest="input_format", choices=["llr", "bits"],
                   help="default llr")
    p.add_argument("--kernel", choices=_names(Kernel), help="default llr_exact")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("schedule", help="emit a machine schedule as CSV")
    common(p)
    p.add_argument("--arch", choices=_names(ArchKind))
    p.add_argument("--n", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--pe-count", dest="pe_count", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="run a cycle simulation")
    common(p, seeded=True)
    p.add_argument("--arch", choices=_names(ArchKind))
    p.add_argument("--n", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--pe-count", dest="pe_count", type=int)
    p.add_argument("--spec")
    p.add_argument("--kernel", choices=_names(Kernel))
    p.add_argument("--frames", help="file of whitespace-separated LLR lines")
    p.add_argument("--random-frames", dest="random_frames", type=int)
    p.add_argument("--ebn0-db", dest="ebn0_db", type=float)
    p.add_argument("--trace", help="write occupancy trace JSON here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("complexity", help="emit the architecture comparison report")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--costs", help="JSON file of cost unit prices")
    p.add_argument("--t-np", dest="t_np", type=float)
    p.add_argument("--format", choices=["text", "json"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("ber-sweep", help="run an error-rate campaign")
    common(p, seeded=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--points-db", dest="points_db",
                   help="comma-separated Eb/N0 values in dB")
    p.add_argument("--kernels", help="comma-separated kernel names")
    p.add_argument("--max-frames", dest="max_frames", type=int)
    p.add_argument("--min-frame-errors", dest="min_frame_errors", type=int)
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_ber_sweep)

    for p in sub.choices.values():  # what _effective checks config values against
        flags = [a for a in p._actions if a.dest not in _NOT_SETTINGS]
        p.set_defaults(keys=[a.dest for a in flags],
                       flag_types={a.dest: a.type for a in flags if a.type},
                       flag_choices={a.dest: a.choices for a in flags if a.choices})
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SimulationError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
