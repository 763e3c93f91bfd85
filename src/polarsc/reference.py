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
level; each stage-0 step is followed by that phase's decision, the hard
decision of a rate-1 node at level 0, and the folds that put it into the
partial sums that g reads.  As in simplified SC, the plan is pruned by the
frozen set: an activation whose phases are all frozen (a rate-0 subtree) is
left out, the g that follows one reads none of its partial sums, which are
0, and with a log-domain kernel, which has ``rate1_floors``, a subtree
whose phases all carry information (rate-1) is decided at once by the hard
decision of its soft values.  Frames with a value at or below the kernel's
floor for the node's level (for min-sum, an exact zero) are gathered and
re-decoded by the same loop one SC step down, ``_split_plan(L)``, where
each child is again a rate-1 node.  Levels are laid out ``(2**l, batch)``:
one kernel call serves every frame.

Like the paper's decoders, the loop updates O(n) memory in place and
allocates nothing per step; only a rate-1 node's re-decode allocates, a
tree of its own for its frames.  The kernels' in-place stage ops
(``Kernel.f_into``/``g_into``/``g0_into``) write into the level arrays and
share one ``(n/2, batch)`` scratch array, all of the values' dtype.  All
partial sums live in one ``(n, batch)`` uint8 array in block layout: each
decision goes into its phase's row, and each fold is an in-place XOR of a
block's right half into its left half.  A fold into a dead left half, all
frozen and so still 0, is a copy, and a chain of them, each into the
parent's dead left half, is one ``_TILE``: one ``np.copyto`` that fills the
chain's left halves with copies of its first right half.  After the last
phase that array is the codeword in bit-reversed order, and one more pass
of every fold (``codespec._fold``, the package's one butterfly) turns it
back into the decided bits; only ``decode`` and ``decode_batch`` gather
the codeword.

``_sc_decode`` and ``_genie_errors`` take level ``m`` as it is stored, an
``(n, batch)`` array in bit-reversed order, with no transpose or gather of
their input; ``_sc_decode`` returns ``(n, batch)`` rows, and
``_genie_errors`` one count per position.  Campaign and genie frames are
born in that layout (``channel._level_frames``).  The public entry points
check their spec and the shape of their ``(batch, n)`` channel log-ratios
and convert them once, in ``_kernel_frames``: gathered into level ``m``,
then mapped into the kernel's domain as ``Kernel.from_llr`` maps them.

Genie-aided decoding, which forces every decision to the true bit, depends
on no decision, so it needs no SC loop: ``_genie_errors`` evaluates the
fully unrolled graph one stage at a time, each stage's live f nodes in one
kernel call and its live g nodes in another, and compares the hard
decision of every phase's root value with its true bit.  A node whose
values clear the kernel's floor with the signs of its true codeword is
dropped, as SC decides it exactly as the genie does (the genie corollary
under "Rate-1 floors" in ``Kernel``).

Frames share nothing, so independent frame blocks are decoded at once,
up to ``_WORKERS`` of them: ``_run_jobs`` runs the first in the caller and
the others on worker threads, while numpy's array loops release the
interpreter lock.  ``channel.run_campaign`` hands it whole campaign blocks,
drawn and counted in their jobs, and ``genie_error_counts`` cuts each
block of ``_GENIE_BLOCK`` trials into chunks of at least ``_MIN_CHUNK``
(256) frames, which build their frames from the block's draws and whose
counts are summed.  The cut changes no count, as frames are independent.
``decode_batch``, ``decode`` and the machines decode their frames in one
piece, in the caller.  With one CPU, every job runs in the caller and no
thread is started.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import accumulate
from weakref import WeakKeyDictionary

import numpy as np

from .channel import _RNG_BLOCK, _as_sigma, _draw, _level_frames
from .codespec import (CodeSpec, _as_int, _as_length, _as_real, _as_seed, _as_spec, _fold,
                       bit_reverse_permutation)
from .kernels import Kernel, _signed_into

_GENIE_BLOCK = 512  # frames per random stream; part of the reproducibility contract

# Plan instructions, four ints each: (opcode, a, b, c).
_F = 0       # (_F, l, i, 0): f at stage l of phase i, level l + 1 into level l
_G = 1       # (_G, l, i, i - 2**l): g likewise, with partial sums x[i - 2**l:i]
_G0 = 5      # (_G0, l, i, 0): g whose left sibling [i - 2**l, i) is all frozen,
#              so its partial sums are 0 and it reads none
_FOLD = 3    # (_FOLD, a, b, c): x[a:b] ^= x[b:c], b - a == c - b, into a live
#              left sibling
_TILE = 2    # (_TILE, a, b, c): x[a:b] = copies of x[b:c], c - b dividing b - a:
#              a chain of folds into dead left siblings, still all 0, each the
#              parent of the one before
_RATE1 = 4   # (_RATE1, L, i, 0): decide x[i:i + 2**L] by the hard decision of
#              level L (at L = 0, phase i's decision); above level 0, send the
#              frames with a value at or below the kernel's floor one SC step
#              down (see _run_plan)


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
    zeros ``x`` starts with, so it reads none, and the fold into that
    sibling is a copy.  A chain of such folds, each node the right child
    of the next, becomes one ``_TILE``: the first node's right child
    copied into every left sibling of the chain.  The unpruned plan has no
    dead node, so it holds no ``_G0`` and no ``_TILE``.

    A live leaf, phase ``i``, is a rate-1 node at level 0, ``(_RATE1, 0, i,
    0)``: the hard decision of the root, SC's decision.  With ``rate1``, each
    maximal rate-1 node ``[i, i + 2**L)`` (``L >= 1``, every phase an
    information bit, and not so for its parent) becomes one ``_RATE1``
    instruction when its level-``L`` values are ready, in place of the node's
    steps, decisions and folds.  Its fallback is not in the plan: the frames
    that need it run ``_split_plan(L)`` on their own (see ``_run_plan``).
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
    if not l or rate1 and frozen_before[lo + (1 << l)] == frozen_before[lo]:
        ops += (_RATE1, l, lo, 0)
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
        if left_live:  # fold it into its left sibling
            ops += (_FOLD, lo, mid, mid + h)
        elif ops[-4] == _TILE and ops[-3] == mid and ops[-1] == mid + h:
            ops[-3] = lo  # the right child's own tile: x[mid:mid + h] is its copies
        else:
            ops += (_TILE, lo, mid, mid + h)


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


def _split_plan(L: int) -> tuple:
    """The fallback of a rate-1 node at level ``L >= 1``, five instructions:
    the node's f, its left child as a rate-1 node at level ``L - 1``, its
    g, its right child likewise, and the fold.  This is SC's own step down
    the node, so a frame whose children clear their floors costs the node
    two kernel calls, and the rest go down again.
    """
    l, h = L - 1, 1 << (L - 1)
    return (_F, l, 0, 0, _RATE1, l, 0, 0, _G, l, h, 0, _RATE1, l, h, 0, _FOLD, 0, h, 2 * h)


def _sc_decode(values: np.ndarray, spec: CodeSpec, kernel: Kernel,
               codewords: bool = False) -> tuple:
    """Run SC decoding over level ``m``, an ``(n, batch)`` array of
    kernel-domain values in bit-reversed order (see ``_kernel_frames``),
    which the decoder reads and does not change.

    Runs the code's plan through ``_run_plan``, with its rate-1 nodes where
    the kernel has ``rate1_floors``.  At the end the partial sums ``x`` are
    the butterfly transform of the decided bits in block layout: gathered
    in bit-reversed order they are the codeword, and since the transform
    is its own inverse, ``m`` more passes of every fold (``codespec._fold``)
    turn them back into the decided bits.  Returns the decided bits and,
    with ``codewords``, their codewords (else None), as ``(n, batch)``
    uint8 arrays in natural order; only ``decode`` and ``decode_batch``
    return codewords, so only they pay for the gather.
    """
    floors = kernel.rate1_floors
    x = _run_plan(_plan(spec, floors is not None), values, kernel)
    c_hat = x[bit_reverse_permutation(spec.m)] if codewords else None
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
    reads no partial sums, and a ``_TILE`` writes the folds of a chain of
    such siblings, which hold 0, as copies.

    A ``_RATE1`` node ``[i, i + 2**L)`` writes the hard decision of level
    ``L`` into ``x[i:i + 2**L]`` for every frame.  At ``L = 0`` that is phase
    ``i``'s decision, SC's own.  Above it, it is the node's partial sum in the
    level's storage order wherever every ``|value|`` exceeds the kernel's
    floor ``rate1_floors[L]`` (see "Rate-1 floors" in ``Kernel``).  The frames
    with a value at or below it are gathered, their level-``L`` columns run
    through ``_split_plan(L)``, the node's f, g and fold with each child a
    rate-1 node again, by this same function, and their columns of ``x`` are
    overwritten with its result.  So each frame's bits are SC's, and a frame
    pays for the steps below a node only where it fails that node's floor.
    """
    n, batch = values.shape
    top = n.bit_length() - 1
    soft = [np.empty((1 << l, batch), values.dtype) for l in range(top)] + [values]
    scratch = np.empty((n // 2, batch), values.dtype)  # the stage ops' temporaries
    stages = [(soft[l + 1][:1 << l], soft[l + 1][1 << l:], soft[l], scratch[:1 << l])
              for l in range(top)]  # a stage op's inputs, output and scratch
    x = np.zeros((n, batch), dtype=np.uint8)
    bits, threshold = x.view(bool), kernel.threshold
    f_into, g_into, g0_into = kernel.f_into, kernel.g_into, kernel.g0_into
    floors = kernel.rate1_floors

    it = iter(plan)
    for op, a, b, c in zip(it, it, it, it):  # the opcodes tested in plan frequency order
        if op == _FOLD:  # not x[a:b] ^= ..., which also copies the result back
            left = x[a:b]
            np.bitwise_xor(left, x[b:c], left)
        elif op == _G0:
            g0_into(*stages[a])
        elif op == _RATE1:
            level, node = soft[a], slice(b, b + (1 << a))
            np.less_equal(level, threshold, bits[node])  # Kernel.hard_decision
            # a floor of 0 fails only on +/-0.0; on the small levels where most
            # nodes sit, count_nonzero tests that faster than level.all()
            if a and (floors[a] or np.count_nonzero(level) < level.size):
                low = np.abs(level, out=scratch[:1 << a] if a < top else None).min(axis=0)
                below = np.flatnonzero(low <= floors[a])
                if below.size:
                    x[node, below] = _run_plan(_split_plan(a), level[:, below], kernel)
        elif op == _F:
            f_into(*stages[a])
        elif op == _G:
            left, right, out, tmp = stages[a]
            g_into(left, right, x[c:b], out, tmp)
        else:  # _TILE
            np.copyto(x[a:b].reshape((b - a) // (c - b), c - b, batch), x[b:c])
    return x


def _genie_errors(level: np.ndarray, forced: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Per-position error counts of genie-aided SC over level ``m``, an
    ``(n, batch)`` array of kernel-domain values in bit-reversed order,
    whose true input blocks are the ``(n, batch)`` uint8 message rows
    ``forced``, both C-contiguous.  Both arrays are overwritten: ``forced``
    is folded in place into the true codewords, as a copy of it would
    raise a genie block's peak memory.

    With every decision forced to its true bit, no soft value depends on a
    decision, so the decode is the fully unrolled graph, evaluated one
    stage at a time.  Stage ``l`` holds level ``l + 1`` as ``(2**(l + 1),
    cols)`` columns, one per live (node, frame) pair, each with the node's
    true codeword ``c`` (the true bits with the folds of stages ``0 ... l``
    applied; see ``_sc_decode``).  One f call over the top halves and the
    bottom halves writes every left child, and one g call, whose partial
    sums ``c[:h] ^ c[h:]`` are the left children's codewords, every right
    child.  A child's codeword is ``(c[:h] ^ c[h:], c[h:])``, so ``forced``
    is folded once, into level ``m``'s codewords, and each stage splits
    them in place.  The children are then set side by side as ``2 * cols``
    columns of level ``l``.  Each f and g element gets the operands it
    would get in the SC loop with every decision replaced by its true bit,
    so the counts are bit for bit those of that loop.

    A child at level ``l >= 1`` whose values all clear the kernel's floor
    ``t_l`` with the sign of its true codeword, ``(-1)**c * value > t_l``
    (the sign op ``kernels._signed_into``, as in g), holds no error: SC on
    it decides exactly its true bits (see "Rate-1 floors" in ``Kernel``),
    which is what the genie decides.  Its column is dropped; the live ones
    are gathered into the other level buffer, and only when some column was
    dropped.  Columns stay in runs, one run per node, whose bounds and
    first phases are kept, so each run of level 0 counts the misses of one
    phase.  ``LR_EXACT`` has no floors and drops nothing.
    """
    n, batch = level.shape
    x = _fold(forced).reshape(-1)  # the true codewords, in level m's order
    vals, spare = level.reshape(-1), np.empty(n * batch, level.dtype)
    f_into, g_into = kernel.f_into, kernel.g_into
    floors, cols = kernel.rate1_floors, batch
    bounds, phases = np.array([0, batch]), np.zeros(1, dtype=np.intp)  # the runs
    for l in range(n.bit_length() - 2, -1, -1):
        h, size = 1 << l, cols << (l + 1)
        halves, out, xs = (a[:size].reshape(2, h, cols) for a in (vals, spare, x))
        np.bitwise_xor(xs[0], xs[1], out=xs[0])  # the children's codewords
        tmp = np.empty((h, cols), vals.dtype)
        f_into(halves[0], halves[1], out[0], tmp)
        g_into(halves[0], halves[1], xs[0], out[1], tmp)
        del tmp
        bounds = np.concatenate((bounds[:-1], bounds + cols))
        phases = np.concatenate((phases, phases + h))
        if not l:
            break
        keep = None
        if floors is not None:
            # Each column's least (-1)**c * value, reduced in place into its
            # first row, with the mask of live columns in the bytes of the
            # second: arrays allocated here would sit in the freed scratch,
            # and the next stage's scratch would grow the heap.
            low = vals[:size].reshape(2, h, cols)
            _signed_into(out, xs, low)
            for rows in low:
                k = h
                while k > 1:
                    k //= 2
                    np.minimum(rows[:k], rows[k:2 * k], out=rows[:k])
            live = low[0, 1].view(bool)[:2 * cols]
            np.less_equal(low[:, 0], floors[l], out=live.reshape(2, cols))
            if not live.all():
                keep = np.flatnonzero(live)
                run = np.add.reduceat(live, bounds[:-1], dtype=np.intp)
        # The children side by side, (2, h, cols) -> (h, 2 * cols), so the
        # kernels read and write only contiguous halves: numpy buffers each
        # strided operand of a ufunc in 64 KiB of its own.
        np.copyto(vals[:size].reshape(h, 2, cols), out.transpose(1, 0, 2))
        side = spare.view(np.uint8)[:size].reshape(h, 2, cols)
        np.copyto(side, xs.transpose(1, 0, 2))
        cols *= 2
        if keep is None:
            x[:size] = side.reshape(-1)
            continue
        np.take(side.reshape(h, cols), keep, axis=1, out=x[:h * keep.size].reshape(h, -1),
                mode="clip")
        np.take(vals[:size].reshape(h, cols), keep, axis=1,
                out=spare[:h * keep.size].reshape(h, -1), mode="clip")
        vals, spare, cols = spare, vals, keep.size
        del keep  # before the next stage's scratch, for the same reason
        phases = phases[run > 0]
        bounds = np.concatenate(([0], np.cumsum(run[run > 0])))
        if not cols:
            return np.zeros(n, dtype=np.int64)
    missed = np.less_equal(spare[:size], kernel.threshold, out=vals.view(bool)[:size])
    np.not_equal(missed, x[:size].view(bool), out=missed)  # Kernel.hard_decision
    counts = np.zeros(n, dtype=np.int64)
    counts[phases] = np.add.reduceat(missed, bounds[:-1], dtype=np.int64)
    return counts


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
    them, shape ``(batch, n)``; any other shape, or a dtype other than
    bool, int or float, raises ValueError naming it.  ``spec`` is the
    caller's, already checked by ``codespec._as_spec``.
    """
    llr, n = _as_real("channel log-ratios", llr), spec.n
    if llr.shape != (n,) and (not batch or llr.ndim != 2 or llr.shape[1] != n):
        expected = f"({n},) or (batch, {n})" if batch else f"({n},)"
        raise ValueError(f"channel log-ratios must have shape {expected}, "
                         f"got shape {llr.shape}")
    level = np.atleast_2d(llr).T[bit_reverse_permutation(spec.m)]  # a fresh copy
    return kernel._from_llr_in_place(level)


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
# Measured with _genie_chunk at n = 1024 and sigma 0.794 on two CPUs
# (quartiles of 9 runs): 512 frames as 2 x 256 took 111-116 ms down to 59-72
# ms, and 256 frames as 2 x 128 took 53-56 ms down to 33-37 ms.  A lower
# floor would pay too, but only on a last block of 256 to 511 trials.
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
    raises ValueError.  ``kernel`` may be a ``Kernel`` or its value string;
    ``kernel.from_llr`` rejects NaN/inf and maps the frames into its domain.

    Returns
    -------
    (u_hat, c_hat)
        Decided input blocks and the codewords they encode, both
        ``(batch, n)`` uint8 arrays.
    """
    spec, kernel = _as_spec(spec), Kernel(kernel)
    u_hat, c_hat = _sc_decode(_kernel_frames(llr, spec, kernel), spec, kernel, True)
    return u_hat.T, c_hat.T


def decode(llr, spec: CodeSpec, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Decode one ``(n,)`` frame of channel log-likelihood ratios."""
    spec, kernel = _as_spec(spec), Kernel(kernel)
    u_hat, c_hat = _sc_decode(_kernel_frames(llr, spec, kernel, batch=False), spec, kernel,
                              True)
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
    n, trials, seed = _as_length("n", n), _as_int("trials", trials), _as_seed(seed)
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
