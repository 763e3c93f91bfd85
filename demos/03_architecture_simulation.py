"""Run every machine on the same noisy frames and compare against the
reference decoder: identical outputs, different cycle counts and resources.
"""

import numpy as np

from polarsc import (ArchKind, ArchitectureConfig, Kernel, awgn_llr, bpsk_modulate,
                     construct_frozen_bec, decode_batch, encode, simulate)

n = 64
spec = construct_frozen_bec(n, n // 2, 0.5)
rng = np.random.default_rng(11)
frames = 12
u = np.zeros((frames, n), dtype=np.uint8)
u[:, spec.info_indices] = rng.integers(0, 2, (frames, spec.k))
sigma = 0.85
llr = awgn_llr(bpsk_modulate(encode(u, spec)) + sigma * rng.standard_normal((frames, n)),
               sigma)

kernel = Kernel.LLR_MINSUM
reference, _ = decode_batch(llr, spec, kernel)

machines = [
    ("unrolled graph", ArchitectureConfig(kind=ArchKind.FFT_LIKE, n=n)),
    ("pipelined tree", ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=n)),
    ("PE line", ArchitectureConfig(kind=ArchKind.LINE, n=n)),
    ("semi-parallel n/4", ArchitectureConfig(kind=ArchKind.SEMI_PARALLEL, n=n,
                                             pe_count=n // 4)),
    ("overlap P=3", ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=n,
                                       overlap_p=3)),
]

print(f"{frames} frames, n={n}, min-sum kernel\n")
print(f"{'machine':<18}{'match':>6}{'cycles/vec':>12}{'total':>8}{'busiest PE':>22}")
for label, cfg in machines:
    res = simulate(cfg, llr, spec, kernel)
    match = "yes" if np.array_equal(res.decoded, reference) else "NO"
    top_pe, top_count = res.pe_activations.most_common(1)[0]
    print(f"{label:<18}{match:>6}{res.period_cycles:>12}{res.total_cycles:>8}"
          f"{top_pe + ' x' + str(top_count):>22}")

res = simulate(machines[3][1], llr[:1], spec, kernel)
print("\nsemi-parallel occupancy, first 6 cycles (stage, vector, nodes):")
for cc, row in enumerate(res.occupancy[:6], 1):
    print(f"  CC{cc}: {[(inst, tag, len(active)) for inst, tag, active in row]}")
