"""Closed-form hardware cost and throughput models.

Costs are abstract, dimensionless unit prices for a node processor, a
register, a 2-input multiplexer and a partial-sum block.  A configurable
PE implements both update rules and is counted as two node processors.
The comparison report evaluates all four machine variants side by side.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from numbers import Real

from .schedule import ArchKind, ArchitectureConfig, stage_duplication_count


@dataclass(frozen=True)
class CostParams:
    """Unit prices: node processor, register, 2-input mux, partial-sum block,
    and node-processor propagation time in seconds."""

    c_np: float = 2.0
    c_r: float = 1.0
    c_mux: float = 0.25
    c_us: float = 0.5
    t_np: float = 1.0

    def __post_init__(self):
        for name in ("c_np", "c_r", "c_mux", "c_us", "t_np"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")


#: Illustrative cost profile used by the demos and CLI defaults.  The unit
#: prices are not measurements; pick your own for real area estimates.
EXAMPLE_COSTS = CostParams()


def _config(kind, n: int, p_vectors: int = 1, pe_count=None) -> ArchitectureConfig:
    """The machine a model describes; building it checks the model's arguments."""
    kind = ArchKind(kind)
    return ArchitectureConfig(
        kind=kind, n=n, pe_count=pe_count if kind is ArchKind.SEMI_PARALLEL else None,
        overlap_p=p_vectors if kind is ArchKind.VECTOR_OVERLAP else None)


def complexity_fft_like(n: int, p: CostParams) -> float:
    """Total cost of the unrolled-graph machine:
    (C_np + C_r) * n * log2(n) + n * C_r."""
    m = ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=n).m
    return (p.c_np + p.c_r) * n * m + n * p.c_r


def complexity_tree(n: int, p: CostParams) -> float:
    """Total cost of the pipelined tree: (n-1) * (2*C_np + C_r) + n * C_r."""
    ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=n)  # checks n
    return (n - 1) * (2 * p.c_np + p.c_r) + n * p.c_r


def complexity_line(n: int, p: CostParams) -> float:
    """Total cost of the PE line:
    (n-1) * (C_r + C_us) + n * C_np + (n/2 - 1) * 3 * C_mux + n * C_r."""
    ArchitectureConfig(kind=ArchKind.LINE, n=n)  # checks n
    return ((n - 1) * (p.c_r + p.c_us) + n * p.c_np
            + (n // 2 - 1) * 3 * p.c_mux + n * p.c_r)


def complexity_overlap(n: int, p_vectors: int, p: CostParams) -> float:
    """Total cost of the overlapped machine at parallelism P:
    (n + (P+1)/2 * (log2((P+1)/2) - 1)) * 2*C_np + P * (2n - 1) * C_r.

    The processor term is the closed continuous form; it coincides with
    the structural duplication count whenever P + 1 is a power of two.
    """
    ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p_vectors)  # checks P
    half = (p_vectors + 1) / 2.0
    return (n + half * (math.log2(half) - 1.0)) * 2 * p.c_np \
        + p_vectors * (2 * n - 1) * p.c_r


def overlap_structural_pe_count(n: int, p_vectors: int) -> int:
    """PEs actually instantiated by the stage duplication rule."""
    m = ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n, overlap_p=p_vectors).m
    return sum(stage_duplication_count(l, p_vectors) << l for l in range(m))


def node_processor_count(kind: ArchKind | str, n: int, p_vectors: int = 1) -> float:
    """Node-processor-equivalent count per machine (PE = 2 node processors)."""
    kind = ArchKind(kind)
    if kind is ArchKind.SEMI_PARALLEL:
        raise ValueError(f"no node-processor model for machine kind {kind.value!r}")
    m = _config(kind, n, p_vectors).m
    if kind is ArchKind.FFT_LIKE:
        return n * m
    if kind is ArchKind.PIPELINED_TREE:
        return 2 * n - 2
    if kind is ArchKind.LINE:
        return n
    half = (p_vectors + 1) / 2.0
    return 2.0 * (n + half * (math.log2(half) - 1.0))


def register_count(kind: ArchKind | str, n: int, p_vectors: int = 1) -> int:
    kind = ArchKind(kind)
    if kind is ArchKind.SEMI_PARALLEL:
        raise ValueError(f"no register model for machine kind {kind.value!r}")
    m = _config(kind, n, p_vectors).m
    if kind is ArchKind.FFT_LIKE:
        return n * (1 + m)
    if kind in (ArchKind.PIPELINED_TREE, ArchKind.LINE):
        return 2 * n - 1
    return p_vectors * (2 * n - 1)


def cycles_per_vector(kind: ArchKind | str, n: int, pe_count: int | None = None) -> int:
    """Clock cycles to decode one vector on the single-vector machines.

    A semi-parallel budget of ``P = 2**p`` PEs takes ``2n + (n/P)(m - p - 2)``
    cycles (Leroux et al., IEEE Trans. Signal Process. 2013): ``2n - 2`` at
    ``P = n/2`` and ``2n`` at ``P = n/4``.
    """
    cfg = _config(kind, n, pe_count=pe_count)
    if cfg.kind is ArchKind.SEMI_PARALLEL:
        p = pe_count.bit_length() - 1
        return 2 * n + (n // pe_count) * (cfg.m - p - 2)
    if cfg.kind is ArchKind.VECTOR_OVERLAP:
        raise ValueError(f"{cfg.kind.value!r} is not a single-vector machine")
    return 2 * n - 2


def throughput(kind: ArchKind | str, n: int, p_vectors: int = 1, t_np: float = 1.0,
               pe_count: int | None = None) -> dict:
    """Exact and limiting throughput in bits per second.

    Single-vector machines deliver n bits per decode; the overlapped
    machine sustains P vectors per 2n - 2 cycles.  The ``approx`` entry is
    the large-n limit 1/(2 t_np), scaled by P for the overlapped machine.
    """
    if t_np <= 0:
        raise ValueError(f"t_np must be > 0, got {t_np}")
    kind = ArchKind(kind)
    if kind is ArchKind.VECTOR_OVERLAP:
        ArchitectureConfig(kind=kind, n=n, overlap_p=p_vectors)  # checks P
        exact = p_vectors * n / ((2 * n - 2) * t_np)
        approx = p_vectors / (2 * t_np)
    else:
        exact = n / (cycles_per_vector(kind, n, pe_count) * t_np)
        approx = 1 / (2 * t_np)
    return {"exact": exact, "approx": approx}


@dataclass
class ComplexityReport:
    """Side-by-side resource and throughput accounting for one (n, P)."""

    n: int
    p_vectors: int
    costs: CostParams
    rows: list

    def to_json(self, meta: dict | None = None) -> str:
        doc = {"n": self.n, "P": self.p_vectors,
               "costs": self.costs.__dict__, "rows": self.rows}
        if meta:
            doc["_meta"] = meta
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        buf = io.StringIO()
        header = f"{'Arch.':<12}{'C_np':>12}{'C_r':>10}{'T (bit/s)':>14}{'total cost':>14}"
        buf.write(header + "\n")
        buf.write("-" * len(header) + "\n")
        for row in self.rows:
            buf.write(
                f"{row['arch']:<12}{row['node_processors']:>12g}"
                f"{row['registers']:>10d}{row['throughput_exact']:>14.6g}"
                f"{row['total_cost']:>14.6g}\n"
            )
        return buf.getvalue()


def table_report(n: int, p_vectors: int, p: CostParams | None = None) -> ComplexityReport:
    """Evaluate every machine's counts, throughput and total cost at (n, P).

    The overlapped row reports the closed-form node-processor equivalent,
    the approximate count ``n + P/2 * log2(P/2)`` (meaningful for P > 1),
    and the structurally instantiated PE count from the duplication rule.
    """
    p = p or EXAMPLE_COSTS
    rows = []
    for kind, label, total in (
        (ArchKind.FFT_LIKE, "FFT-like", complexity_fft_like(n, p)),
        (ArchKind.PIPELINED_TREE, "Pipe. Tree", complexity_tree(n, p)),
        (ArchKind.LINE, "Line", complexity_line(n, p)),
        (ArchKind.VECTOR_OVERLAP, "Overlap.", complexity_overlap(n, p_vectors, p)),
    ):
        t = throughput(kind, n, p_vectors, p.t_np)
        row = {
            "arch": label,
            "kind": kind.value,
            "node_processors": node_processor_count(kind, n, p_vectors),
            "registers": register_count(kind, n, p_vectors),
            "throughput_exact": t["exact"],
            "throughput_approx": t["approx"],
            "total_cost": total,
        }
        if kind is ArchKind.VECTOR_OVERLAP:
            half = p_vectors / 2.0
            row["node_processors_approx"] = (
                n + half * math.log2(half) if p_vectors > 1 else float(n)
            )
            row["structural_pes"] = overlap_structural_pe_count(n, p_vectors)
        rows.append(row)
    return ComplexityReport(n=n, p_vectors=p_vectors, costs=p, rows=rows)
