import hashlib
import importlib.resources
import json

import numpy as np
import pytest

from polarsc import CodeSpec, construct_frozen_bec, encode
from polarsc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_emits_spec_json(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code, _, err = run_cli(capsys, "construct", "--n", "8", "--k", "4",
                           "--design-erasure", "0.5", "-o", str(out))
    assert code == 0
    assert CodeSpec.from_json(out.read_text()) == construct_frozen_bec(8, 4, 0.5)
    assert "config_sha256" in err


def test_construct_mc_method(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code, _, _ = run_cli(capsys, "construct", "--n", "8", "--k", "4", "--method",
                         "mc", "--sigma", "0.9", "--trials", "200", "--seed", "4",
                         "-o", str(out))
    assert code == 0
    spec = CodeSpec.from_json(out.read_text())
    assert spec.n == 8 and spec.k == 4


def test_encode_decode_round_trip_bytes(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec = construct_frozen_bec(8, 4, 0.5)
    spec_path.write_text(spec.to_json())
    rng = np.random.default_rng(0)
    u = np.zeros((4, 8), dtype=np.uint8)
    u[:, spec.info_indices] = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
    msg = tmp_path / "msg.txt"
    msg.write_text("".join("".join(map(str, row)) + "\n" for row in u))

    cw = tmp_path / "cw.txt"
    code, _, _ = run_cli(capsys, "encode", "--spec", str(spec_path), "--in",
                         str(msg), "-o", str(cw))
    assert code == 0
    got = np.array([[int(c) for c in line] for line in cw.read_text().split()])
    assert np.array_equal(got, encode(u, spec))

    back = tmp_path / "back.txt"
    code, _, _ = run_cli(capsys, "decode", "--spec", str(spec_path), "--in",
                         str(cw), "--input-format", "bits", "-o", str(back))
    assert code == 0
    assert back.read_bytes() == msg.read_bytes()


def test_schedule_matches_golden(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    code, _, _ = run_cli(capsys, "schedule", "--arch", "tree", "--n", "8",
                         "-o", str(out))
    assert code == 0
    golden = (importlib.resources.files("polarsc") / "goldens"
              / "schedule_tree_n8.csv").read_text()
    assert out.read_text() == golden


def test_schedule_overlap_matches_golden(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    code, _, _ = run_cli(capsys, "schedule", "--arch", "overlap", "--n", "8",
                         "--P", "3", "-o", str(out))
    assert code == 0
    golden = (importlib.resources.files("polarsc") / "goldens"
              / "schedule_overlap_n8_p3.csv").read_text()
    assert out.read_text() == golden


def test_simulate_noiseless_line_prints_cycles(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    code, out, _ = run_cli(capsys, "simulate", "--arch", "line", "--n", "8",
                           "--random-frames", "1", "--seed", "3",
                           "--trace", str(trace))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cycles: 14"
    assert "decoded_equal_message: 1/1" in lines
    doc = json.loads(trace.read_text())
    assert doc["total_cycles"] == 14
    assert len(doc["occupancy"]) == 14
    assert "config_sha256" in doc["_meta"]


def test_simulate_noisy_overlap_output_pinned(tmp_path, capsys):
    # sha256 of stdout and of the trace, recorded before the random frames
    # were drawn through channel._noisy_frames: the draw must not move
    trace = tmp_path / "trace.json"
    code, out, _ = run_cli(capsys, "simulate", "--arch", "overlap", "--n", "16",
                           "--P", "3", "--random-frames", "5", "--seed", "7",
                           "--ebn0-db", "1.0", "--trace", str(trace))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8be54d436350bf15f3a5e399b6f8e28bcbd39d9a2471c0beee4f79d759b87922")
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "bd68bf8fbe37739f0254ec5fd3ad7ef5da7992151f05c30b73f6e86455464939")


def test_simulate_from_llr_file(tmp_path, capsys):
    spec = construct_frozen_bec(8, 4, 0.5)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    frames = tmp_path / "llr.txt"
    llr = 5.0 * (1.0 - 2.0 * encode(np.zeros((1, 8), np.uint8), spec))
    frames.write_text(" ".join(str(v) for v in llr[0]) + "\n")
    code, out, _ = run_cli(capsys, "simulate", "--arch", "semi", "--n", "8",
                           "--pe-count", "2", "--spec", str(spec_path),
                           "--frames", str(frames))
    assert code == 0
    assert out.splitlines()[0] == "cycles: 16"
    assert "00000000" in out


def test_complexity_text_and_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "complexity", "--n", "8", "--P", "3")
    assert code == 0
    assert "FFT-like" in out and "Overlap." in out
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "complexity", "--n", "8", "--P", "3", "--format",
                         "json", "-o", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    rows = {r["kind"]: r for r in doc["rows"]}
    assert rows["tree"]["registers"] == 15


def test_ber_sweep_runs_and_is_deterministic(tmp_path, capsys):
    spec = construct_frozen_bec(32, 16, 0.5)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["ber-sweep", "--spec", str(spec_path), "--points-db", "1.0,3.0",
            "--kernels", "llr_exact,llr_minsum", "--max-frames", "256",
            "--min-frame-errors", "1000000", "--seed", "8"]
    assert run_cli(capsys, *args, "-o", str(out1))[0] == 0
    assert run_cli(capsys, *args, "-o", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, *rows = out1.read_text().splitlines()
    assert header.startswith("kernel,ebn0_db,frames")
    assert len(rows) == 4


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"arch": "tree", "n": 4}))
    out = tmp_path / "sched.csv"
    code, _, _ = run_cli(capsys, "schedule", "--config", str(cfg), "--n", "8",
                         "-o", str(out))
    assert code == 0
    assert out.read_text().count("\n") == 15  # header + 14 activations


def test_seed_flag_overrides_config_seed(tmp_path, capsys):
    from polarsc import construct_frozen_mc

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 16, "k": 8, "method": "mc", "sigma": 1.4,
                               "trials": 40, "seed": 1}))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run_cli(capsys, "construct", "--config", str(cfg), "-o", str(out_a))[0] == 0
    assert run_cli(capsys, "construct", "--config", str(cfg), "--seed", "2",
                   "-o", str(out_b))[0] == 0
    assert CodeSpec.from_json(out_a.read_text()) == construct_frozen_mc(
        16, 8, 1.4, trials=40, seed=1)
    assert CodeSpec.from_json(out_b.read_text()) == construct_frozen_mc(
        16, 8, 1.4, trials=40, seed=2)


def test_decode_llr_input_format(tmp_path, capsys):
    spec = construct_frozen_bec(8, 4, 0.5)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    rng = np.random.default_rng(1)
    u = np.zeros(8, dtype=np.uint8)
    u[spec.info_indices] = rng.integers(0, 2, 4)
    llr = 6.0 * (1.0 - 2.0 * encode(u, spec).astype(float))
    llr_file = tmp_path / "llr.txt"
    llr_file.write_text(" ".join(f"{v:.3f}" for v in llr) + "\n")
    out = tmp_path / "u.txt"
    code, _, _ = run_cli(capsys, "decode", "--spec", str(spec_path), "--in",
                         str(llr_file), "--kernel", "llr_minsum", "-o", str(out))
    assert code == 0
    assert out.read_text().strip() == "".join(map(str, u))


def test_decode_nan_line_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(8, 4, 0.5).to_json())
    llr_file = tmp_path / "llr.txt"
    llr_file.write_text("1 2 3 nan 5 6 7 8\n")
    code, out, err = run_cli(capsys, "decode", "--spec", str(spec_path), "--in",
                             str(llr_file), "--kernel", "llr_exact")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("command", [
    ["decode", "--kernel", "llr_exact", "--in"],
    ["simulate", "--arch", "line", "--frames"],
])
def test_inf_line_exits_2(tmp_path, capsys, command):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(8, 4, 0.5).to_json())
    llr_file = tmp_path / "llr.txt"
    llr_file.write_text("1 2 3 4 5 6 7 8\ninf 1 -2 3 4 5 6 7\n")
    code, out, err = run_cli(capsys, *command, str(llr_file), "--spec", str(spec_path))
    assert code == 2
    assert out == ""
    assert f"{llr_file}:2: values must be finite" in err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"arch": "tree", "n": 8, "bogus": 1}))
    code, _, err = run_cli(capsys, "schedule", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_usage_error_exits_2(capsys):
    assert main(["schedule", "--arch", "not-an-arch", "--n", "8"]) == 2
    assert main(["decode", "--spec", "/nonexistent.json", "--in", "x"]) == 2


def test_missing_setting_names_the_flag(capsys):
    code, _, err = run_cli(capsys, "complexity")
    assert code == 2
    assert err.strip() == "error: missing setting 'n' (pass --n or set it in --config)"
    code, _, err = run_cli(capsys, "schedule", "--n", "8")
    assert code == 2
    assert err.strip() == ("error: missing setting 'arch' "
                           "(pass --arch or set it in --config)")


def test_unknown_arch_in_config_lists_choices(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"arch": "foo"}))
    code, _, err = run_cli(capsys, "schedule", "--config", str(cfg), "--n", "8")
    assert code == 2
    assert err.strip() == ("error: unknown arch 'foo' "
                           "(choose one of: fft, line, overlap, semi, tree)")
