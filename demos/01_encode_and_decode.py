"""Build a code, push a message through a noisy channel, decode it back.

Walks the basic pipeline: frozen-set construction, butterfly encoding,
antipodal modulation, Gaussian noise, and successive cancellation decoding
with each of the three arithmetic kernels.
"""

import numpy as np

from polarsc import (Kernel, awgn_llr, bpsk_modulate, construct_frozen_bec,
                     decode, encode, sigma_from_ebn0_db)

n, k = 64, 32
spec = construct_frozen_bec(n, k, design_erasure=0.5)
print(f"code: n={spec.n}, k={spec.k}, rate={spec.k / spec.n}")
print(f"frozen positions: {spec.frozen}\n")

rng = np.random.default_rng(7)
u = np.zeros(n, dtype=np.uint8)
u[spec.info_indices] = rng.integers(0, 2, spec.k)
c = encode(u, spec)
print("message bits :", "".join(map(str, u)))
print("codeword bits:", "".join(map(str, c)))

sigma = sigma_from_ebn0_db(2.0, spec.k / spec.n)
y = bpsk_modulate(c) + sigma * rng.standard_normal(n)
llr = awgn_llr(y, sigma)
print(f"\nchannel: Eb/N0 = 2.0 dB  (sigma = {sigma:.4f})")
print("first 8 received log-ratios:", np.round(llr[:8], 2))

for kernel in Kernel:
    u_hat, c_hat = decode(llr, spec, kernel)
    status = "exact" if np.array_equal(u_hat, u) else "has bit errors"
    print(f"{kernel.value:>11}: decoded message {status}")
