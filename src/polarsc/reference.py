"""Golden-model successive cancellation decoder on the tree register file.

Like the paper's pipelined tree, the decoder keeps ``2n - 1`` soft values:
level ``l`` holds ``2**l`` of them, level ``m`` the channel values in
bit-reversed order, so stage ``l`` reads the two halves of level ``l + 1``.
``_sc_decode`` is the one SC loop, for the reference decoder and for every
machine alike.  It runs a per-code decode plan: the SC recursion,
``_lower_subtree``, lowered once per code into a flat tuple of
instructions, as in the instruction-list decoders of Sarkis et al. (*Fast
Polar Decoders*, 2014), kept to the nodes that give SC's own decisions.
``_lower_subtree`` is the package's one statement of the SC step order:
every machine's schedule replays the f and g steps of the unpruned plan,
the rate-1 code's (see ``schedule``).  Each kernel step covers a whole
level; each stage-0 step is followed by that phase's decision and the
folds that put it into the partial sums that g reads.  As in simplified
SC, the plan is pruned by the frozen set: an activation whose phases are
all frozen (a rate-0 subtree) is left out, the g that follows one reads
none of its partial sums, which are 0, and with a log-domain kernel, which
has ``rate1_floors``, a subtree whose phases all carry information
(rate-1) is decided at once by the hard decision of its soft values.
Frames with a value at or below the kernel's floor for the node's level
(for min-sum, an exact zero) are gathered and re-decoded through the
node's full SC steps, ``_unpruned_plan(L)``, by the same loop.  Levels
are laid out ``(2**l, batch)``: one kernel call serves every frame.

Like the paper's decoders, the loop updates O(n) memory in place and
allocates nothing per step; only a rate-1 node's re-decode allocates, a
tree of its own for its frames.  The kernels' in-place stage ops
(``Kernel.f_into``/``g_into``/``g0_into``) write into the level arrays and
share one ``(n/2, batch)`` scratch array.  All partial sums live in one
``(n, batch)`` uint8 array in block layout: each decision goes into its
phase's row, and each fold is an in-place XOR of a block's right half into
its left half.  After the last phase that array is the codeword in
bit-reversed order, and one more pass of every fold (``codespec._fold``,
the package's one butterfly) turns it back into the decided bits.

``_sc_decode`` and ``_genie_errors`` take level ``m`` as it is stored, an
``(n, batch)`` array in bit-reversed order, and return ``(n, batch)``
results; neither transposes nor gathers.  Campaign and genie frames are
born in that layout (``channel._level_frames``).  The public entry points
check the shape of their ``(batch, n)`` channel log-ratios and convert
them once, in ``_kernel_frames``: through ``Kernel.from_llr`` into the
kernel's domain, then gathered into level ``m``.

Genie-aided decoding, which forces every decision to the true bit, depends
on no decision, so it needs no SC loop: ``_genie_errors`` evaluates the
fully unrolled graph one stage at a time, each stage's ``n/2`` f nodes in
one kernel call and its ``n/2`` g nodes in another, and compares the hard
decision of every phase's root value with its true bit.

Frames share nothing, so independent frame blocks are decoded at once,
up to ``_WORKERS`` of them: ``_run_jobs`` runs the first in the caller and
the others on worker threads, while numpy's array loops release the
interpreter lock.  ``channel.run_campaign`` hands it whole campaign blocks,
drawn and counted in their jobs, and ``genie_error_counts`` cuts each
block of ``_GENIE_BLOCK`` trials into chunks of at least ``_MIN_CHUNK``
(256) frames, which build their frames from the block's draws and whose
counts are summed.  The cut changes no count, as
frames are independent.  ``decode_batch``, ``decode`` and the machines
decode their frames in one piece, in the caller.  With one CPU, every job
runs in the caller and no thread is started.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import accumulate
from weakref import WeakKeyDictionary

import numpy as np

from .channel import _RNG_BLOCK, _as_sigma, _draw, _level_frames
from .codespec import CodeSpec, _as_int, _as_seed, _fold, bit_reverse_permutation
from .kernels import Kernel

_GENIE_BLOCK = 512  # frames per random stream; part of the reproducibility contract

# Plan instructions, four ints each: (opcode, a, b, c).
_F = 0       # (_F, l, i, 0): f at stage l of phase i, level l + 1 into level l
_G = 1       # (_G, l, i, i - 2**l): g likewise, with partial sums x[i - 2**l:i]
_G0 = 5      # (_G0, l, i, 0): g whose left sibling [i - 2**l, i) is all frozen,
#              so its partial sums are 0 and it reads none
_DECIDE = 2  # (_DECIDE, i, 0, 0): hard decision of the root into x[i]
_FOLD = 3    # (_FOLD, a, b, c): x[a:b] ^= x[b:c], b - a == c - b
_RATE1 = 4   # (_RATE1, L, i, 0): decide x[i:i + 2**L] by the hard decision of
#              level L; re-decode in full the frames with a value at or below
#              the kernel's floor (see _run_plan)


def _lower(spec: CodeSpec, rate1: bool) -> tuple:
    """Lower one code's SC control sequence into its plan, a flat tuple of
    instructions.

    The SC recursion, ``_lower_subtree``, visits the code's tree depth
    first, left child before right: phase ``i`` recomputes stages
    ``ntz(i)`` (the trailing zero bits of ``i``) down to 0, every stage for
    phase 0, applying g at stage ``l`` iff bit ``l`` of ``i`` is set.  The
    plan is that visit with the pruning decided up front.  A subtree whose
    phases are all frozen is dead and left out (its steps, and the 0
    decisions that ``x`` starts with), and so is a fold whose right half is
    all frozen, since it would XOR zeros.  The g of a live right child
    whose left sibling is dead becomes ``_G0``: its partial sums are the
    zeros ``x`` starts with, so it reads none.

    With ``rate1``, each maximal rate-1 node ``[i, i + 2**L)`` (``L >= 1``,
    every phase an information bit, and not so for its parent) becomes one
    ``_RATE1`` instruction when its level-``L`` values are ready, in place
    of the node's steps, decisions and folds.  Its fallback is not in the
    plan: the frames that need it run ``_unpruned_plan(L)``, the node's
    full SC steps, on their own (see ``_run_plan``).
    """
    n = spec.n
    frozen_before = tuple(accumulate(spec.frozen_mask.tolist(), initial=0))
    ops: list = []
    if frozen_before[n] != n:  # not an all-frozen code
        _lower_subtree(ops, frozen_before, 0, spec.m, rate1)
    return tuple(ops)


def _lower_subtree(ops: list, frozen_before: tuple, lo: int, l: int, rate1: bool) -> None:
    """Append the plan of the live subtree ``[lo, lo + 2**l)``, from the point
    where its level-``l`` values are ready; ``frozen_before[i]`` counts the
    frozen phases below ``i``.  (A module-level function: a recursive
    closure would be a reference cycle.)"""
    if rate1 and l and frozen_before[lo + (1 << l)] == frozen_before[lo]:
        ops += (_RATE1, l, lo, 0)
        return
    if not l:
        ops += (_DECIDE, lo, 0, 0)
        return
    h = 1 << (l - 1)
    mid = lo + h
    left_live = frozen_before[mid] - frozen_before[lo] != h
    if left_live:
        ops += (_F, l - 1, lo, 0)
        _lower_subtree(ops, frozen_before, lo, l - 1, rate1)
    if frozen_before[mid + h] - frozen_before[mid] != h:  # the right child is live
        ops += (_G, l - 1, mid, lo) if left_live else (_G0, l - 1, mid, 0)
        _lower_subtree(ops, frozen_before, mid, l - 1, rate1)
        ops += (_FOLD, lo, mid, mid + h)  # fold it into its left sibling


# spec -> {rate1: plan}.  Weak keys free a code's plans with the code,
# without waiting for the cycle collector to reclaim a dropped module.
_plans: WeakKeyDictionary = WeakKeyDictionary()


def _plan(spec: CodeSpec, rate1: bool) -> tuple:
    """The plan ``_lower(spec, rate1)``, lowered on first use and kept for
    as long as ``spec`` (or a code equal to it) lives."""
    plans = _plans.setdefault(spec, {})
    if rate1 not in plans:
        plans[rate1] = _lower(spec, rate1)
    return plans[rate1]


def _unpruned_plan(m: int) -> tuple:
    """The plan of the rate-1 code of length ``2**m``, which prunes nothing:
    the step order every machine's schedule replays."""
    return _lower(CodeSpec(m=m, frozen=()), False)


def _sc_decode(values: np.ndarray, spec: CodeSpec, kernel: Kernel) -> tuple:
    """Run SC decoding over level ``m``, an ``(n, batch)`` array of
    kernel-domain values in bit-reversed order (see ``_kernel_frames``),
    which the decoder reads and does not change.

    Runs the code's plan through ``_run_plan``, with its rate-1 nodes where
    the kernel has ``rate1_floors``.  At the end the partial sums ``x`` are
    the butterfly transform of the decided bits in block layout: gathered
    in bit-reversed order they are the codeword, and since the transform
    is its own inverse, ``m`` more passes of every fold (``codespec._fold``)
    turn them back into the decided bits.  Returns the decided bits and
    their codewords, as ``(n, batch)`` uint8 arrays in natural order.
    """
    floors = kernel.rate1_floors
    x = _run_plan(_plan(spec, floors is not None), values, kernel)
    c_hat = x[bit_reverse_permutation(spec.m)]
    return _fold(x), c_hat


def _run_plan(plan: tuple, values: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Run a plan over its top level ``values``, an ``(n, batch)`` array,
    and return the ``(n, batch)`` uint8 partial sums ``x`` it leaves.

    An f or g at stage ``l`` computes level ``l`` from the two halves of
    level ``l + 1``, a g also from the left sibling's partial sum.  Partial
    sums live in one ``(n, batch)`` buffer ``x`` in block layout: phase
    ``i`` decides into row ``i``, and once phase ``i`` closes a level-``l``
    block ``[b, b + 2h)`` (``h = 2**l``) the fold ``x[b:b+h] ^= x[b+h:b+2h]``
    turns the block into its level-``l + 1`` partial sum, so a g at stage
    ``l`` of phase ``i`` reads the left sibling block ``x[i-h:i]``; a
    ``_G0``, whose left sibling is all frozen, runs ``kernel.g0_into`` and
    reads no partial sums.

    A ``_RATE1`` node ``[i, i + 2**L)`` writes the hard decision of level
    ``L`` into ``x[i:i + 2**L]`` for every frame: the node's partial sum in
    the level's storage order wherever every ``|value|`` exceeds the
    kernel's floor ``rate1_floors[L]`` (see ``Kernel.rate1_floors``).  The
    frames with a value at or below it are gathered, their level-``L``
    columns run through ``_unpruned_plan(L)``, the node's full SC steps,
    by this same function, and their columns of ``x`` are overwritten with
    its result.  So each frame's bits are SC's, and only the frames below
    the floor pay for the node's steps.
    """
    n, batch = values.shape
    top = n.bit_length() - 1
    soft = [np.empty((1 << l, batch)) for l in range(top)] + [values]
    scratch = np.empty((n // 2, batch))  # the stage ops' temporaries
    stages = [(soft[l + 1][:1 << l], soft[l + 1][1 << l:], soft[l], scratch[:1 << l])
              for l in range(top)]  # a stage op's inputs, output and scratch
    x = np.zeros((n, batch), dtype=np.uint8)
    bits, root, threshold = x.view(bool), soft[0][0], kernel.threshold
    f_into, g_into, g0_into = kernel.f_into, kernel.g_into, kernel.g0_into
    floors = kernel.rate1_floors

    it = iter(plan)
    for op, a, b, c in zip(it, it, it, it):
        if op == _G:
            left, right, out, tmp = stages[a]
            g_into(left, right, x[c:b], out, tmp)
        elif op == _F:
            f_into(*stages[a])
        elif op == _G0:
            g0_into(*stages[a])
        elif op == _FOLD:  # not x[a:b] ^= ..., which also copies the result back
            left = x[a:b]
            np.bitwise_xor(left, x[b:c], left)
        elif op == _DECIDE:
            np.less_equal(root, threshold, bits[a])  # Kernel.hard_decision
        else:  # _RATE1
            level, node = soft[a], slice(b, b + (1 << a))
            np.less_equal(level, threshold, bits[node])
            if floors[a] or not level.all():  # a floor of 0 fails only on a +/-0.0
                low = np.abs(level, out=scratch[:1 << a] if a < top else None).min(axis=0)
                below = np.flatnonzero(low <= floors[a])
                if below.size:
                    x[node, below] = _run_plan(_unpruned_plan(a), level[:, below], kernel)
    return x


def _genie_errors(level: np.ndarray, forced: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Per-position error counts of genie-aided SC over level ``m``, an
    ``(n, batch)`` C-contiguous array of kernel-domain values in
    bit-reversed order, whose true input blocks are the ``(n, batch)``
    uint8 message rows ``forced``.  Both arrays are used in place: the
    values are overwritten, and ``forced`` is folded and ends as it began.

    With every decision forced to its true bit, no soft value depends on a
    decision, so the decode is the fully unrolled graph, evaluated one
    stage at a time.  ``level`` and one more ``(n, batch)`` array take
    turns as input and output.  At stage ``l``, viewed as ``(n >> (l +
    1), 2, 2**l, batch)``, each block's two halves feed one f call into the
    left halves of the output and one g call into its right halves,
    covering every node of the stage.  A g reads the left half of its block
    in the partial-sum array ``x``: the true bits with the folds of stages
    below ``l`` applied (see ``_sc_decode``).  ``x`` is folded up to stage
    ``m - 1`` once, and each stage down undoes one fold, as a fold is its
    own inverse, so ``x`` ends as the true bits.  Each f and g element gets
    the operands it would get in the SC loop with every decision replaced
    by its true bit, so the counts are bit for bit those of that loop.
    """
    n, batch = level.shape
    m = n.bit_length() - 1
    other = np.empty_like(level)
    scratch = np.empty((n // 2, batch))
    x = _fold(forced, range(m - 1))
    f_into, g_into = kernel.f_into, kernel.g_into

    def halves(a: np.ndarray, l: int) -> np.ndarray:
        return a.reshape(n >> (l + 1), 2, 1 << l, batch)

    for l in range(m - 1, -1, -1):
        src, out, xs = halves(level, l), halves(other, l), halves(x, l)
        tmp = scratch.reshape(n >> (l + 1), 1 << l, batch)
        f_into(src[:, 0], src[:, 1], out[:, 0], tmp)
        g_into(src[:, 0], src[:, 1], xs[:, 0], out[:, 1], tmp)
        level, other = other, level
        if l:
            _fold(x, (l - 1,))
    missed = np.less_equal(level, kernel.threshold)  # Kernel.hard_decision
    np.not_equal(missed, x.view(bool), out=missed)
    return np.count_nonzero(missed, axis=1)


def _genie_chunk(spec: CodeSpec, sigma: float, bits: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Build the frames of drawn bits and noise (``channel._level_frames``)
    and return their genie error counts with the exact kernel."""
    u, llr = _level_frames(spec, sigma, bits, z)
    return _genie_errors(Kernel.LLR_EXACT._from_llr_in_place(llr), u, Kernel.LLR_EXACT)


def _kernel_frames(llr, spec: CodeSpec, kernel: Kernel, batch: bool = True) -> np.ndarray:
    """Check the shape of channel log-ratio input and convert it, through
    ``kernel.from_llr``, into level ``m``: an ``(n, batch)`` array of
    kernel-domain values in bit-reversed order, the decoder's input.

    Accepts one frame, shape ``(n,)``, or when ``batch`` also a batch of
    them, shape ``(batch, n)``; any other shape raises ValueError naming it.
    """
    llr = np.asarray(llr)
    n = spec.n
    if llr.shape != (n,) and (not batch or llr.ndim != 2 or llr.shape[1] != n):
        expected = f"({n},) or (batch, {n})" if batch else f"({n},)"
        raise ValueError(f"channel log-ratios must have shape {expected}, "
                         f"got shape {llr.shape}")
    level = np.atleast_2d(llr).T[bit_reverse_permutation(spec.m)]  # a fresh copy
    return kernel._from_llr_in_place(level.astype(np.float64, copy=False))


# Independent frame blocks are decoded on up to this many threads at once
# (numpy releases the interpreter lock inside the kernels' array loops): the
# CPUs this process may run on, but at most _MAX_WORKERS.  Each block in
# flight holds its own tree; at n = 1024 a campaign's peak RSS read 42, 50,
# 53, 63 and 90 MB with 1, 2, 3, 4 and 8 blocks of 256 frames at once, and
# only two CPUs were there to measure a speed-up on.
_MAX_WORKERS = 2
_WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# The fewest frames of a chunk a genie block is cut into, one campaign block.
# Measured with _genie_errors at n = 1024 on two CPUs: 512 frames as 2 x 256
# took 248-261 ms down to 123-139 ms, and 256 frames as 2 x 128 took 95-126
# ms down to 57-67 ms.  A lower floor would pay too, but only on a last block
# of 256 to 511 trials.
_MIN_CHUNK = _RNG_BLOCK
_pools: dict = {}  # pid -> the worker threads' executor, made on first use


def _run_jobs(jobs: list) -> list:
    """Run independent jobs, each a callable taking no argument, and return
    their results in order; the first job's error, in job order, is raised.

    The first job runs in the caller, the rest on a pool of ``_WORKERS - 1``
    threads made on first use, so a single job starts no thread.  Every job
    has ended when this returns.  No job may call ``_run_jobs``: jobs that
    waited on the pool could then take every thread and wait forever.
    """
    if len(jobs) == 1:
        return [jobs[0]()]
    from concurrent.futures import ThreadPoolExecutor, wait  # costs 6.8 ms on import

    pid = os.getpid()  # a forked child has none of its parent's threads
    pool = _pools.get(pid) or _pools.setdefault(pid, ThreadPoolExecutor(_WORKERS - 1))
    futures = [pool.submit(job) for job in jobs[1:]]
    try:
        results = [jobs[0]()]
    finally:
        wait(futures)
    return results + [future.result() for future in futures]


def decode_batch(llr, spec: CodeSpec, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (batch, n) array of channel log-likelihood ratios.

    A single ``(n,)`` frame counts as a batch of one; any other shape
    raises ValueError.  ``kernel.from_llr`` rejects NaN/inf and maps the
    frames into the kernel's domain.

    Returns
    -------
    (u_hat, c_hat)
        Decided input blocks and the codewords they encode, both
        ``(batch, n)`` uint8 arrays.
    """
    u_hat, c_hat = _sc_decode(_kernel_frames(llr, spec, kernel), spec, kernel)
    return u_hat.T, c_hat.T


def decode(llr, spec: CodeSpec, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Decode one ``(n,)`` frame of channel log-likelihood ratios."""
    values = _kernel_frames(llr, spec, kernel, batch=False)
    u_hat, c_hat = _sc_decode(values, spec, kernel)
    return u_hat[:, 0], c_hat[:, 0]


def genie_error_counts(n: int, noise_sigma: float, trials: int, seed: int) -> np.ndarray:
    """Per-position first-error counts under genie-corrected decoding.

    Random full-rate blocks are encoded, sent as antipodal symbols through
    Gaussian noise, and decoded with every decision corrected to the true
    bit after its error is recorded (see ``_genie_errors``).  Each block of
    ``_GENIE_BLOCK`` trials draws its bits and noise in the caller
    (``channel._draw``).  A block of at least ``2 * _MIN_CHUNK`` frames is
    cut into up to ``_WORKERS`` chunks of at least ``_MIN_CHUNK`` frames,
    run by ``_run_jobs``, each of which builds its own frames from its rows
    of the draws (``_genie_chunk``); their counts are summed.  Frames are
    independent, so the cut changes no count.
    """
    n, trials, seed = _as_int("n", n), _as_int("trials", trials), _as_seed(seed)
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of 2 >= 2, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    noise_sigma = _as_sigma("noise_sigma", noise_sigma)
    spec = CodeSpec(m=n.bit_length() - 1, frozen=())
    counts = np.zeros(n, dtype=np.int64)
    for done in range(0, trials, _GENIE_BLOCK):
        batch = min(_GENIE_BLOCK, trials - done)
        bits, z = _draw(spec, batch, seed, done)
        chunks = max(1, min(_WORKERS, batch // _MIN_CHUNK))
        cuts = [batch * i // chunks for i in range(chunks + 1)]
        for errs in _run_jobs([partial(_genie_chunk, spec, noise_sigma, bits[lo:hi], z[lo:hi])
                               for lo, hi in zip(cuts, cuts[1:])]):
            counts += errs
    return counts
