import hashlib
import importlib.resources
import json
import warnings

import numpy as np
import pytest

import polarsc
from polarsc import (ArchitectureConfig, ArchKind, CodeSpec, build_schedule,
                     construct_frozen_bec, encode)
from polarsc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_meta(doc):
    meta = doc["_meta"]
    assert set(meta) == {"config_sha256", "polarsc_version", "numpy_version"}
    assert len(meta["config_sha256"]) == 64
    assert meta["polarsc_version"] == polarsc.__version__
    assert meta["numpy_version"] == np.__version__


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


def test_construct_mc_nan_sigma_exits_2(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code, _, err = run_cli(capsys, "construct", "--n", "8", "--k", "4", "--method", "mc",
                           "--sigma", "nan", "-o", str(out))
    assert code == 2
    assert not out.exists()
    assert "noise_sigma must be a finite number, got nan" in err


def test_construct_mc_sigma_whose_log_ratios_overflow_exits_2(tmp_path, capsys):
    # 1e-155 used to warn from the frame source and exit 2 with "channel
    # log-ratios must be finite", naming no argument
    out = tmp_path / "spec.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "construct", "--n", "8", "--k", "4", "--method", "mc",
                               "--sigma", "1e-155", "-o", str(out))
    assert code == 2
    assert not out.exists()
    assert "noise_sigma = 1e-155 is too small" in err


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
    assert_meta(doc)


def test_simulate_noisy_overlap_output_pinned(tmp_path, capsys):
    # sha256 of stdout and of the trace, recorded before the random frames
    # were drawn through channel._noisy_frames: the draw must not move.  The
    # trace is hashed without its _meta block, which names the versions.
    trace = tmp_path / "trace.json"
    code, out, _ = run_cli(capsys, "simulate", "--arch", "overlap", "--n", "16",
                           "--P", "3", "--random-frames", "5", "--seed", "7",
                           "--ebn0-db", "1.0", "--trace", str(trace))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8be54d436350bf15f3a5e399b6f8e28bcbd39d9a2471c0beee4f79d759b87922")
    doc = json.loads(trace.read_text())
    assert_meta(doc)
    assert doc.pop("_meta")["config_sha256"] == (
        "42f8558b26cd5f870160d79aebe46b1516f408ea077aaeee95381dd58397c401")
    assert hashlib.sha256((json.dumps(doc, indent=2) + "\n").encode()).hexdigest() == (
        "6c13c175c23fe248aa1a6feedd86e8cfcb21e9e183ddcc7b05cc4976105dae58")


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


def test_simulate_length_other_than_the_specs_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(8, 4, 0.5).to_json())
    code, out, err = run_cli(capsys, "simulate", "--arch", "tree", "--n", "16",
                             "--spec", str(spec_path))
    assert code == 2
    assert out == ""
    assert "16" in err and "length 8" in err
    code, out, _ = run_cli(capsys, "simulate", "--arch", "tree", "--spec", str(spec_path))
    assert code == 0
    assert out.splitlines()[0] == "cycles: 14"


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
    assert_meta(doc)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_complexity_non_finite_price_exits_2(tmp_path, capsys, bad):
    # --t-np nan used to print a column of nan and exit 0
    code, out, err = run_cli(capsys, "complexity", "--n", "8", f"--t-np={bad}")
    assert code == 2 and out == ""
    assert "t_np must be a finite number" in err
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({"c_mux": float(bad)}))
    code, out, err = run_cli(capsys, "complexity", "--n", "8", "--costs", str(costs))
    assert code == 2 and out == ""
    assert "c_mux must be a finite number" in err


@pytest.mark.parametrize("n, p, text_sha, json_sha", [
    (8, 3, "b9d1ca65ff20363f", "9bff3d3af8dd9e31"),
    (1024, 7, "6c9d3daf53479c07", "5c75f80b7def339b"),
])
def test_complexity_report_is_pinned(capsys, n, p, text_sha, json_sha):
    # sha256 prefixes of the text report and of the JSON report without its
    # _meta block (which names the numpy version), at the default prices
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    code, text, _ = run_cli(capsys, "complexity", "--n", str(n), "--P", str(p))
    assert code == 0 and sha(text) == text_sha
    code, out, _ = run_cli(capsys, "complexity", "--n", str(n), "--P", str(p),
                           "--format", "json")
    doc = json.loads(out)
    del doc["_meta"]
    assert code == 0 and sha(json.dumps(doc, indent=2)) == json_sha


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
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(8, 4, 0.5).to_json())
    for command, doc, key in [
        ("schedule", {"arch": "tree", "n": 8, "bogus": 1}, "bogus"),
        # values of the wrong JSON type used to exit 1 with a TypeError traceback
        ("schedule", {"arch": "tree", "n": "8"}, "'n'"),
        ("schedule", {"arch": "tree", "n": 8.0}, "'n'"),
        ("schedule", {"arch": "tree", "n": True}, "'n'"),
        ("schedule", {"arch": "overlap", "n": 8, "P": 2.5}, "'P'"),
        ("construct", {"n": 8, "k": 4, "design_erasure": "0.5"}, "'design_erasure'"),
        ("construct", {"n": 8, "k": 4, "design_erasure": None}, "'design_erasure'"),
        ("complexity", {"n": 8, "P": "3"}, "'P'"),
        ("ber-sweep", {"points_db": [2.0], "max_frames": "10"}, "'max_frames'"),
    ]:
        cfg.write_text(json.dumps(doc))
        extra = ["--spec", str(spec_path)] if command == "ber-sweep" else []
        code, _, err = run_cli(capsys, command, "--config", str(cfg), *extra)
        assert code == 2, doc
        assert err.startswith("error: ") and key in err, err
    # so does a costs file with a string price, an unknown key or no object
    costs = tmp_path / "costs.json"
    for doc, key in [({"c_np": "2"}, "c_np"), ({"c_np": 2, "bogus": 1}, "bogus"),
                     ([2], "object")]:
        costs.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "complexity", "--n", "8", "--costs", str(costs))
        assert code == 2, doc
        assert err.startswith("error: ") and key in err, err


def test_config_values_of_the_flag_types_pass(tmp_path, capsys):
    # a JSON int fits a float flag; points_db and kernels may be lists
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 8, "t_np": 2}))
    code, out, _ = run_cli(capsys, "complexity", "--config", str(cfg))
    assert code == 0
    assert out == run_cli(capsys, "complexity", "--n", "8", "--t-np", "2")[1]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(8, 4, 0.5).to_json())
    cfg.write_text(json.dumps({"points_db": [2, 3.0], "kernels": ["llr_minsum"],
                               "max_frames": 16}))
    code, out, _ = run_cli(capsys, "ber-sweep", "--spec", str(spec_path),
                           "--config", str(cfg))
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["llr_minsum"] * 2


def test_bad_spec_file_exits_2(tmp_path, capsys):
    # a missing key used to print "error: 'frozen'"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"m": 3}))
    code, _, err = run_cli(capsys, "encode", "--spec", str(spec_path), "--in", "x")
    assert code == 2
    assert err.strip() == "error: missing CodeSpec keys: ['frozen']"


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


def test_ber_sweep_json_meta(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(8, 4, 0.5).to_json())
    out = tmp_path / "sweep.json"
    code, _, _ = run_cli(capsys, "ber-sweep", "--spec", str(spec_path), "--points-db",
                         "2.0", "--max-frames", "16", "--format", "json", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert_meta(doc)
    assert set(doc["campaigns"]) == {"llr_exact"}


@pytest.mark.parametrize("points", ["4000", "-4000"])
def test_ber_sweep_at_an_extreme_ebn0_exits_2(tmp_path, capsys, points):
    # 4000 dB used to end in an OverflowError traceback, and -4000 dB in a
    # divide-by-zero warning and an error that named sigma
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(16, 8, 0.5).to_json())
    code, out, err = run_cli(capsys, "ber-sweep", "--spec", str(spec_path),
                             "--points-db", points, "--max-frames", "16")
    assert code == 2
    assert out == ""
    assert f"ebn0_db = {float(points)} gives noise sigma" in err


@pytest.mark.parametrize("command", ["ber-sweep", "simulate"])
def test_an_ebn0_whose_log_ratios_overflow_exits_2(tmp_path, capsys, command):
    # 3080 dB gives a finite sigma of 1e-154 whose log-ratios overflow: the
    # sweep used to print a RuntimeWarning and exit 2 with "channel
    # log-ratios must be finite"; now no warning is raised and the error
    # names ebn0_db
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(16, 8, 0.5).to_json())
    args = (["ber-sweep", "--points-db", "3080", "--max-frames", "16"] if command == "ber-sweep"
            else ["simulate", "--arch", "tree", "--n", "16", "--ebn0-db", "3080"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *args, "--spec", str(spec_path))
    assert code == 2
    assert out == ""
    assert "ebn0_db = 3080.0 gives noise sigma 1e-154, whose channel log-ratios" in err


@pytest.mark.parametrize("command", [
    ["schedule", "--arch", "semi", "--n", "8", "--pe-count", "0"],
    ["schedule", "--arch", "overlap", "--n", "8", "--P", "0"],
    ["simulate", "--arch", "semi", "--n", "8", "--pe-count", "0"],
    ["simulate", "--arch", "overlap", "--n", "8", "--P", "0"],
    ["complexity", "--n", "8", "--t-np", "0"],
])
def test_explicit_zero_budget_exits_2(capsys, command):
    code, out, err = run_cli(capsys, *command)
    assert code == 2
    assert out == ""
    assert "got 0" in err


@pytest.mark.parametrize("command", [
    ["schedule", "--arch", "tree", "--n", "8", "--P", "3"],
    ["schedule", "--arch", "line", "--n", "8", "--pe-count", "2"],
    ["schedule", "--arch", "semi", "--n", "8", "--P", "3"],
    ["schedule", "--arch", "overlap", "--n", "8", "--pe-count", "2"],
    ["simulate", "--arch", "fft", "--n", "8", "--P", "2"],
])
def test_budget_for_another_machine_exits_2(capsys, command):
    code, out, err = run_cli(capsys, *command)
    assert code == 2
    assert out == ""
    assert "only applies to the" in err


@pytest.mark.parametrize("flag, value, name", [
    ("--max-frames", "0", "max_frames"),
    ("--max-frames", "-3", "max_frames"),
    ("--min-frame-errors", "0", "min_frame_errors"),
    ("--random-frames", "0", "random_frames"),
    ("--random-frames", "-1", "random_frames"),
])
def test_frame_count_below_one_exits_2(tmp_path, capsys, flag, value, name):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(8, 4, 0.5).to_json())
    command = (["simulate", "--arch", "tree"] if name == "random_frames"
               else ["ber-sweep", "--points-db", "2.0"])
    code, out, err = run_cli(capsys, *command, "--spec", str(spec_path), flag, value)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {name} must be >= 1, got {value}"


@pytest.mark.parametrize("command", [["simulate", "--arch", "tree", "--random-frames", "2"],
                                     ["ber-sweep", "--points-db", "2.0"],
                                     ["construct", "--method", "mc", "--k", "4"]])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    # simulate used to fail inside numpy with "expected non-negative integer"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(construct_frozen_bec(8, 4, 0.5).to_json())
    where = ["--n", "8"] if command[0] == "construct" else ["--spec", str(spec_path)]
    code, out, err = run_cli(capsys, *command, *where, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: seed must be >= 0, got -1"


def test_zero_budget_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"arch": "semi", "n": 8, "pe_count": 0}))
    code, _, err = run_cli(capsys, "schedule", "--config", str(cfg))
    assert code == 2
    assert "got 0" in err


def test_semi_default_budget_at_n2(capsys):
    # the n // 4 default is 0 at n = 2; the default budget is at least one PE
    code, out, err = run_cli(capsys, "simulate", "--arch", "semi", "--n", "2",
                             "--random-frames", "1")
    assert code == 0, err
    assert "decoded_equal_message: 1/1" in out
    code, out, _ = run_cli(capsys, "schedule", "--arch", "semi", "--n", "8")
    assert code == 0
    assert out == build_schedule(ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=8,
                                                    pe_count=2)).to_csv()
