import json

import numpy as np
import pytest

from polarsc import (CostParams, Kernel, build_schedule, construct_frozen_bec,
                     cycles_per_vector, model, node_processor_count, register_count,
                     simulate, table_report, throughput)
from polarsc.schedule import ArchKind, ArchitectureConfig

ZERO = CostParams(c_np=0, c_r=0, c_mux=0, c_us=0, t_np=1.0)
UNIT = CostParams(c_np=1, c_r=1, c_mux=1, c_us=1, t_np=1.0)


def machine(kind, n, overlap_p=None):
    """The model record of machine ``kind`` at length ``n``."""
    return model(ArchitectureConfig(kind=kind, n=n, overlap_p=overlap_p))


def test_fft_like_closed_form():
    assert machine("fft", 2).cost(CostParams(c_np=1, c_r=1, t_np=1)) == 6
    assert machine("fft", 8).cost(ZERO) == 0
    p = CostParams(c_np=3, c_r=2, t_np=1)
    assert machine("fft", 8).cost(p) == (3 + 2) * 8 * 3 + 8 * 2


def test_tree_closed_form():
    assert machine("tree", 4).cost(CostParams(c_np=2, c_r=1, t_np=1)) == 19
    assert machine("tree", 8).cost(ZERO) == 0


def test_line_closed_form():
    assert machine("line", 8).cost(UNIT) == 7 * 2 + 8 + 3 * 3 + 8
    assert machine("line", 8).cost(ZERO) == 0


def test_overlap_closed_form():
    p = CostParams(c_np=1, c_r=0, t_np=1)
    assert machine("overlap", 8, 3).cost(p) == pytest.approx(16.0)
    # P = 1 collapses to the tree cost for any prices
    prices = CostParams(c_np=1.7, c_r=0.6, c_mux=0, c_us=0, t_np=1)
    for n in (4, 16, 128):
        assert machine("overlap", n, 1).cost(prices) == pytest.approx(
            machine("tree", n).cost(prices))
    with pytest.raises(ValueError):
        machine("overlap", 8, 8).cost(p)


def test_resource_counts_n8():
    assert node_processor_count("fft", 8) == 24
    assert register_count("fft", 8) == 32
    assert node_processor_count("tree", 8) == 14
    assert register_count("tree", 8) == 15
    assert node_processor_count("line", 8) == 8
    assert register_count("line", 8) == 15
    assert register_count("overlap", 8, 3) == 45
    assert node_processor_count("overlap", 8, 3) == pytest.approx(16.0)


def test_resource_counts_n16():
    assert node_processor_count("fft", 16) == 64
    assert register_count("fft", 16) == 80
    assert node_processor_count("tree", 16) == 30
    assert register_count("tree", 16) == 31
    assert node_processor_count("line", 16) == 16
    assert register_count("line", 16) == 31
    assert register_count("overlap", 16, 3) == 93


def test_resource_counts_n1024():
    assert node_processor_count("fft", 1024) == 10240
    assert register_count("fft", 1024) == 11264
    assert node_processor_count("tree", 1024) == 2046
    assert register_count("tree", 1024) == 2047
    assert node_processor_count("line", 1024) == 1024
    assert register_count("line", 1024) == 2047
    assert register_count("overlap", 1024, 7) == 14329
    assert node_processor_count("overlap", 1024, 7) == pytest.approx(2056.0)


def test_structural_pe_count_matches_closed_form_at_power_of_two():
    for n, p in ((8, 1), (8, 3), (64, 7), (1024, 7), (1024, 3)):
        assert 2 * machine("overlap", n, p).pes == pytest.approx(
            node_processor_count("overlap", n, p))
    # ceilings push the structural count above the continuous form otherwise
    assert 2 * machine("overlap", 8, 4).pes > node_processor_count("overlap", 8, 4)


def schedule_registers(s):
    """The registers a schedule writes: per vector slot, the distinct
    (stage, position) pairs its steps write, plus its n channel registers."""
    written = {(l, q) for l, _, _, active in s.steps for q in active}
    return s.vectors * (len(written) + s.cfg.n)


@pytest.mark.parametrize("n", [2 ** m for m in range(1, 9)])
def test_model_pe_counts_equal_the_schedules_pes(n):
    # every accepted config: every P up to n = 128, a spread of P at n = 256
    # (all 255 would take longer than the rest of the suite), and every
    # semi-parallel PE budget
    ps = range(1, n) if n <= 128 else (1, 2, 3, 4, 5, 31, 64, 127, 128, 254, 255)
    configs = ([ArchitectureConfig(kind=kind, n=n) for kind in
                (ArchKind.FFT_LIKE, ArchKind.PIPELINED_TREE, ArchKind.LINE)]
               + [ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n, pe_count=1 << j)
                  for j in range(n.bit_length() - 1)]
               + [ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p)
                  for p in ps])
    for cfg in configs:
        rec, s = model(cfg), build_schedule(cfg)
        assert rec.pes == len(s.pe_activations()), cfg
        assert rec.registers == schedule_registers(s), cfg
        gap = s.total_cycles - rec.group_cycles
        if cfg.kind is ArchKind.VECTOR_OVERLAP:
            # The model's group is stall-free, but the greedy stalls a vector
            # that finds every copy of its next stage taken, so the schedule
            # runs longer exactly where some vector stalls.  This branch goes
            # when the duplication count is derived so that no vector stalls
            # (ROADMAP item 2), and the gap is then 0 here too.
            assert gap >= 0 and (gap == 0) == (not any(s.stall_cycles())), cfg
        else:
            assert gap == 0, cfg
    # the paper's figures: a PE is two node processors, except in the
    # unrolled graph, whose schedule names one PE per graph node
    fft, tree, line = (model(cfg).pes for cfg in configs[:3])
    assert fft == node_processor_count("fft", n)
    assert 2 * tree == node_processor_count("tree", n)
    assert 2 * line == node_processor_count("line", n)
    for cfg in configs[3:]:
        if cfg.pe_count:
            assert model(cfg).pes == cfg.pe_count


def test_semi_parallel_model_has_no_cost():
    # a tree of 2n - 1 registers and the Leroux cycle form, but no node
    # processor, mux or partial-sum figure, so no cost and no report row
    rec = model(ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=16, pe_count=2))
    assert (rec.pes, rec.registers, rec.group_cycles) == (2, 31, 2 * 16 + 8 * 1)
    assert rec.node_processors is rec.muxes is rec.psum_blocks is None
    with pytest.raises(ValueError, match="^no cost model for machine kind 'semi'$"):
        rec.cost(CostParams())
    assert "semi" not in {row["kind"] for row in table_report(16, 3).rows}


def test_throughput_forms():
    t = throughput("tree", 8, t_np=1.0)
    assert t["exact"] == pytest.approx(8 / 14)
    assert t["approx"] == pytest.approx(0.5)
    big = throughput("line", 1 << 20, t_np=2e-9)
    assert big["exact"] == pytest.approx(big["approx"], rel=1e-5)
    ov = throughput("overlap", 8, 3, t_np=1.0)
    assert ov["exact"] == pytest.approx(3 * 8 / 14)
    assert ov["approx"] == pytest.approx(1.5)
    semi = throughput("semi", 8, t_np=1.0, pe_count=2)
    assert semi["exact"] == pytest.approx(8 / 16)


def test_cycles_per_vector_model():
    for n in (4, 8, 64, 1024):
        assert cycles_per_vector("tree", n) == 2 * n - 2
        assert cycles_per_vector("semi", n, pe_count=n // 4) == 2 * n
        assert cycles_per_vector("semi", n, pe_count=n // 2) == 2 * n - 2
        assert cycles_per_vector("semi", n, pe_count=1) == n * (n.bit_length() - 1)
    for pe_count in (None, 0, 3, 8):
        with pytest.raises(ValueError):
            cycles_per_vector("semi", 8, pe_count=pe_count)


def test_models_take_arch_kinds_and_reject_unknown_ones():
    budgets = {ArchKind.VECTOR_OVERLAP: {"p_vectors": 3},
               ArchKind.SEMI_PARALLEL: {"pe_count": 2}}
    for kind in ArchKind:
        budget = budgets.get(kind, {})
        assert throughput(kind, 8, **budget) == throughput(kind.value, 8, **budget)
    assert register_count(ArchKind.LINE, 8) == register_count("line", 8)
    assert node_processor_count(ArchKind.FFT_LIKE, 8) == node_processor_count("fft", 8)
    for model in (node_processor_count, register_count, cycles_per_vector):
        with pytest.raises(ValueError):
            model("foo", 8)
    with pytest.raises(ValueError):
        cycles_per_vector("overlap", 8)
    with pytest.raises(ValueError):
        register_count(ArchKind.SEMI_PARALLEL, 8)


@pytest.mark.parametrize("p_vectors", [0, -1, 8, 100])
def test_overlap_models_reject_p_outside_one_to_n_minus_1(p_vectors):
    models = [lambda: throughput("overlap", 8, p_vectors=p_vectors),
              lambda: node_processor_count("overlap", 8, p_vectors),
              lambda: register_count("overlap", 8, p_vectors),
              lambda: machine("overlap", 8, p_vectors)]
    for model in models:
        with pytest.raises(ValueError, match="overlap_p must satisfy"):
            model()


def test_throughput_consistent_with_simulated_cycles():
    n = 16
    spec = construct_frozen_bec(n, 8, 0.5)
    llr = np.zeros((1, n)) + 2.0
    for kind, name in ((ArchKind.FFT_LIKE, "fft"), (ArchKind.PIPELINED_TREE, "tree"),
                       (ArchKind.LINE, "line")):
        res = simulate(ArchitectureConfig(kind=kind, n=n), llr, spec, Kernel.LLR_EXACT)
        t = throughput(name, n, t_np=1.0)
        assert t["exact"] == pytest.approx(n / res.period_cycles)


def test_cost_ordering_when_pe_dominates():
    # tree < fft always; line < tree when a PE outweighs its mux/psum overhead
    profiles = [CostParams(c_np=2, c_r=1, c_mux=0.25, c_us=0.5, t_np=1),
                CostParams(c_np=10, c_r=3, c_mux=1, c_us=4, t_np=1),
                CostParams(c_np=1, c_r=0, c_mux=0.5, c_us=0, t_np=1)]
    for p in profiles:
        assert p.c_np >= 2 * (p.c_mux + p.c_us) or p is profiles[1]
    for n in (4, 8, 16, 64, 256, 1024):
        for p in profiles:
            assert machine("tree", n).cost(p) < machine("fft", n).cost(p)
            if p.c_np >= 2 * (p.c_mux + p.c_us):
                assert machine("line", n).cost(p) < machine("tree", n).cost(p)


def test_table_report_rows_and_serialization():
    report = table_report(8, 3, CostParams(c_np=2, c_r=1, c_mux=0.25, c_us=0.5,
                                           t_np=1.0))
    by_kind = {row["kind"]: row for row in report.rows}
    assert by_kind["fft"]["node_processors"] == 24
    assert by_kind["fft"]["registers"] == 32
    assert by_kind["tree"]["node_processors"] == 14
    assert by_kind["tree"]["registers"] == 15
    assert by_kind["line"]["node_processors"] == 8
    assert by_kind["overlap"]["registers"] == 45
    assert by_kind["overlap"]["structural_pes"] == 8
    assert by_kind["overlap"]["node_processors_approx"] == pytest.approx(
        8 + 1.5 * np.log2(1.5))
    doc = json.loads(report.to_json(meta={"config_sha256": "x"}))
    assert doc["n"] == 8 and doc["_meta"]["config_sha256"] == "x"
    text = report.to_text()
    assert "FFT-like" in text and "Overlap." in text


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(c_np=-1)
    with pytest.raises(ValueError):
        throughput("tree", 8, t_np=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_prices_are_rejected(bad):
    # CostParams took NaN and +/-inf prices, and throughput returned nan
    # for t_np = nan
    for name in ("c_np", "c_r", "c_mux", "c_us", "t_np"):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {bad!r}$"):
            CostParams(**{name: bad})
    with pytest.raises(ValueError, match=f"^t_np must be a finite number, got {bad!r}$"):
        throughput("tree", 8, t_np=bad)
