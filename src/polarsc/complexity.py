"""Closed-form hardware cost and throughput models.

Each machine has one model record, ``model(cfg)``, the public door to its
figures: ``model(cfg).cost(p)``, ``.pes``, ``.throughput(t_np)`` and the
rest.  The count, cycle and throughput functions below are views of it by
machine kind and length.  Cost is one formula over the record, in abstract
unit prices for a node processor, a register, a 2-input mux and a
partial-sum block.  A configurable PE implements both update rules and
counts as two node processors.  The semi-parallel machine has no cost
model yet.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields

from .codespec import _as_finite, _as_instance, _as_int
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
        for field in fields(self):
            if _as_finite(field.name, getattr(self, field.name)) < 0:
                raise ValueError(f"{field.name} must be nonnegative")


#: Illustrative cost profile used by the demos and CLI defaults.  The unit
#: prices are not measurements; pick your own for real area estimates.
EXAMPLE_COSTS = CostParams()


@dataclass(frozen=True)
class MachineModel:
    """Machine ``cfg``'s figures, None where it has no model: the PEs its
    schedule instantiates (one per graph node in the unrolled graph), the
    paper's node-processor figure (the overlapped machine's continuous form,
    ``2 * pes`` only when P + 1 is a power of two), the registers of all
    vector slots with the channel's, muxes, partial-sum blocks, the
    stall-free cycles of one group of P vectors and the sustained cycles per group."""

    cfg: ArchitectureConfig
    pes: int
    node_processors: float | None
    registers: int
    muxes: int | None
    psum_blocks: int | None
    group_cycles: int
    period_cycles: int

    def cost(self, p: CostParams) -> float:
        """Total cost at unit prices ``p``.  Per machine, in the paper's
        closed forms (the overlapped machine's in its continuous form):

        - unrolled graph: ``(C_np + C_r) * n * log2(n) + n * C_r``;
        - pipelined tree: ``(n-1) * (2*C_np + C_r) + n * C_r``;
        - PE line: ``(n-1) * (C_r + C_us) + n * C_np + (n/2 - 1) * 3 * C_mux
          + n * C_r``;
        - overlapped machine at parallelism P: ``(n + (P+1)/2 *
          (log2((P+1)/2) - 1)) * 2*C_np + P * (2n - 1) * C_r``.
        """
        if self.node_processors is None:
            raise ValueError(f"no cost model for machine kind {self.cfg.kind.value!r}")
        return (self.node_processors * p.c_np + self.registers * p.c_r
                + self.muxes * p.c_mux + self.psum_blocks * p.c_us)

    def throughput(self, t_np: float) -> dict:
        """Bits per second: P n-bit vectors per ``period_cycles``, and P / (2 t_np)."""
        vectors, t_np = self.cfg.overlap_p or 1, _as_finite("t_np", t_np)
        if t_np <= 0:
            raise ValueError(f"t_np must be > 0, got {t_np}")
        return {"exact": vectors * self.cfg.n / (self.period_cycles * t_np),
                "approx": vectors / (2 * t_np)}


def model(cfg: ArchitectureConfig) -> MachineModel:
    """The model record of machine ``cfg``.  A vector's ``2n - 2`` f and g
    steps take a cycle each; the semi-parallel machine splits steps wider
    than its ``2**p`` PEs, so takes ``2n + (n / 2**p)(m - p - 2)`` cycles
    (Leroux et al., IEEE Trans. Signal Process. 2013).  The overlapped
    machine admits a vector a cycle and sustains P per ``2n - 2`` cycles."""
    cfg = _as_instance("cfg", cfg, ArchitectureConfig)
    n, m, p = cfg.n, cfg.m, cfg.overlap_p or 1
    tree, steps = 2 * n - 1, 2 * n - 2  # registers of one tree; steps of one vector
    match cfg.kind:
        case ArchKind.FFT_LIKE:
            figures = (n * m, n * m, n * (1 + m), 0, 0, steps)
        case ArchKind.PIPELINED_TREE:
            figures = (n - 1, 2 * n - 2, tree, 0, 0, steps)
        case ArchKind.LINE:
            figures = (n // 2, n, tree, (n // 2 - 1) * 3, n - 1, steps)
        case ArchKind.SEMI_PARALLEL:
            figures = (cfg.pe_count, None, tree, None, None,
                       2 * n + (n // cfg.pe_count) * (m - cfg.pe_count.bit_length() - 1))
        case ArchKind.VECTOR_OVERLAP:
            half = (p + 1) / 2.0
            figures = (sum(stage_duplication_count(l, p) << l for l in range(m)),
                       2.0 * (n + half * (math.log2(half) - 1.0)), p * tree, 0, 0, steps)
    *counts, period = figures
    return MachineModel(cfg, *counts, group_cycles=period + p - 1, period_cycles=period)


def _model(kind, n: int, p_vectors: int = 1, pe_count=None) -> MachineModel:
    """``model`` of ``kind``.  As in ``ArchitectureConfig``, a budget given
    to a machine without it raises: ``p_vectors`` other than 1 except on
    the overlapped machine, and a ``pe_count`` except on the semi-parallel
    one."""
    kind, p_vectors = ArchKind(kind), _as_int("p_vectors", p_vectors)
    overlap = kind is ArchKind.VECTOR_OVERLAP
    if not overlap and p_vectors != 1:
        raise ValueError(f"p_vectors only applies to the vector-overlap machine, "
                         f"got {p_vectors} for {kind.value!r}")
    if kind is not ArchKind.SEMI_PARALLEL and pe_count is not None:
        raise ValueError(f"pe_count only applies to the semi-parallel machine, "
                         f"got {pe_count!r} for {kind.value!r}")
    return model(ArchitectureConfig(kind=kind, n=n, pe_count=pe_count,
                                    overlap_p=p_vectors if overlap else None))


def _budgetless(what: str, kind, n: int, p_vectors: int) -> MachineModel:
    """The model for a view that takes no PE budget, so no semi-parallel one."""
    if ArchKind(kind) is ArchKind.SEMI_PARALLEL:
        raise ValueError(f"no {what} model for machine kind 'semi'")
    return _model(kind, n, p_vectors)


def node_processor_count(kind: ArchKind | str, n: int, p_vectors: int = 1) -> float:
    """Node-processor-equivalent count per machine (PE = 2 node processors)."""
    return _budgetless("node-processor", kind, n, p_vectors).node_processors


def register_count(kind: ArchKind | str, n: int, p_vectors: int = 1) -> int:
    return _budgetless("register", kind, n, p_vectors).registers


def cycles_per_vector(kind: ArchKind | str, n: int, pe_count: int | None = None) -> int:
    """Clock cycles to decode one vector on the single-vector machines:
    ``2n - 2``, and on the semi-parallel machine the form in ``model``."""
    rec = _model(kind, n, pe_count=pe_count)
    if rec.cfg.overlap_p is not None:
        raise ValueError(f"{rec.cfg.kind.value!r} is not a single-vector machine")
    return rec.group_cycles


def throughput(kind: ArchKind | str, n: int, p_vectors: int = 1, t_np: float = 1.0,
               pe_count: int | None = None) -> dict:
    """Exact and limiting throughput in bits per second: n bits per decode,
    or P vectors per 2n - 2 cycles on the overlapped machine; ``approx`` is
    the large-n limit 1/(2 t_np), times P for the overlapped machine."""
    return _model(kind, n, p_vectors, pe_count).throughput(t_np)


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
    """Each costed machine's counts, throughput and total cost at (n, P).
    The overlapped row adds the approximate count ``n + P/2 * log2(P/2)``
    (meaningful for P > 1) and its PEs (``structural_pes``)."""
    p = p or EXAMPLE_COSTS
    rows = []
    for kind, label in ((ArchKind.FFT_LIKE, "FFT-like"), (ArchKind.PIPELINED_TREE, "Pipe. Tree"),
                        (ArchKind.LINE, "Line"), (ArchKind.VECTOR_OVERLAP, "Overlap.")):
        rec = _model(kind, n, p_vectors if kind is ArchKind.VECTOR_OVERLAP else 1)
        t = rec.throughput(p.t_np)
        rows.append({"arch": label, "kind": kind.value,
                     "node_processors": rec.node_processors, "registers": rec.registers,
                     "throughput_exact": t["exact"], "throughput_approx": t["approx"],
                     "total_cost": rec.cost(p)})
        if rec.cfg.overlap_p is not None:
            half = p_vectors / 2.0
            approx = n + half * math.log2(half) if p_vectors > 1 else float(n)
            rows[-1].update(node_processors_approx=approx, structural_pes=rec.pes)
    return ComplexityReport(n=n, p_vectors=p_vectors, costs=p, rows=rows)
