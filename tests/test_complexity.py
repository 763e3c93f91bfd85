import json

import numpy as np
import pytest

from polarsc import (CostParams, Kernel, build_schedule, complexity_fft_like,
                     complexity_line, complexity_overlap, complexity_tree,
                     construct_frozen_bec,
                     cycles_per_vector, node_processor_count,
                     overlap_structural_pe_count, register_count, simulate,
                     table_report, throughput)
from polarsc.schedule import ArchKind, ArchitectureConfig

ZERO = CostParams(c_np=0, c_r=0, c_mux=0, c_us=0, t_np=1.0)
UNIT = CostParams(c_np=1, c_r=1, c_mux=1, c_us=1, t_np=1.0)


def test_fft_like_closed_form():
    assert complexity_fft_like(2, CostParams(c_np=1, c_r=1, t_np=1)) == 6
    assert complexity_fft_like(8, ZERO) == 0
    p = CostParams(c_np=3, c_r=2, t_np=1)
    assert complexity_fft_like(8, p) == (3 + 2) * 8 * 3 + 8 * 2


def test_tree_closed_form():
    assert complexity_tree(4, CostParams(c_np=2, c_r=1, t_np=1)) == 19
    assert complexity_tree(8, ZERO) == 0


def test_line_closed_form():
    assert complexity_line(8, UNIT) == 7 * 2 + 8 + 3 * 3 + 8
    assert complexity_line(8, ZERO) == 0


def test_overlap_closed_form():
    p = CostParams(c_np=1, c_r=0, t_np=1)
    assert complexity_overlap(8, 3, p) == pytest.approx(16.0)
    # P = 1 collapses to the tree cost for any prices
    prices = CostParams(c_np=1.7, c_r=0.6, c_mux=0, c_us=0, t_np=1)
    for n in (4, 16, 128):
        assert complexity_overlap(n, 1, prices) == pytest.approx(
            complexity_tree(n, prices))
    with pytest.raises(ValueError):
        complexity_overlap(8, 8, p)


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
        assert 2 * overlap_structural_pe_count(n, p) == pytest.approx(
            node_processor_count("overlap", n, p))
    # ceilings push the structural count above the continuous form otherwise
    assert 2 * overlap_structural_pe_count(8, 4) > node_processor_count("overlap", 8, 4)


@pytest.mark.parametrize("n", [2 ** m for m in range(1, 9)])
def test_model_pe_counts_equal_the_schedules_pes(n):
    # a PE is two node processors, except in the unrolled graph, whose
    # schedule names one PE per graph node
    def pes(kind, **budget):
        return len(build_schedule(ArchitectureConfig(kind=kind, n=n, **budget))
                   .pe_activations())

    assert pes(ArchKind.FFT_LIKE) == node_processor_count("fft", n)
    assert 2 * pes(ArchKind.PIPELINED_TREE) == node_processor_count("tree", n)
    assert 2 * pes(ArchKind.LINE) == node_processor_count("line", n)
    for pe_count in (1 << j for j in range(n.bit_length() - 1)):
        assert pes(ArchKind.SEMI_PARALLEL, pe_count=pe_count) == pe_count
    # every P up to n = 128, a spread of P at n = 256: all 255 would take
    # longer than the rest of the suite
    ps = range(1, n) if n <= 128 else (1, 2, 3, 4, 5, 31, 64, 127, 128, 254, 255)
    for p in ps:
        assert pes(ArchKind.VECTOR_OVERLAP, overlap_p=p) == \
            overlap_structural_pe_count(n, p), p


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
    for kind in ArchKind:
        assert throughput(kind, 8, 3, pe_count=2) == throughput(kind.value, 8, 3,
                                                                pe_count=2)
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
              lambda: complexity_overlap(8, p_vectors, CostParams()),
              lambda: overlap_structural_pe_count(8, p_vectors)]
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
            assert complexity_tree(n, p) < complexity_fft_like(n, p)
            if p.c_np >= 2 * (p.c_mux + p.c_us):
                assert complexity_line(n, p) < complexity_tree(n, p)


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
