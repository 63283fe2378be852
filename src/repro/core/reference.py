"""Naive per-block reference implementations (the pre-vectorization seed).

The array-backed :class:`~repro.core.dbb.DBBTensor` and the vectorized
kernels in :mod:`repro.core.gemm` / :mod:`repro.arch.systolic` promise
bit-identical results with the straightforward per-block Python walk a
hardware engineer would write from Fig. 5/6 of the paper. This module
*keeps* that walk: every function here loops block by block through the
lazily-materialized :class:`~repro.core.dbb.DBBBlock` views, exactly as
the original implementation did.

These are ground truth for the bit-exactness fuzz suite
(``tests/core/test_reference_fuzz.py``) — never call them on large
tensors; they are O(M*N*K) Python loops on purpose.

The fixed-dataflow baselines (:mod:`repro.arch.sparten`,
:mod:`repro.arch.eyeriss`, :mod:`repro.arch.scnn`) count from bounded
chunks of the operands' DBB bitmasks; their references build the whole
``m x n`` match matrix (matched pairs per output) or walk every pixel
instead.

One reference is a sampling law rather than a walk:
:func:`reference_blocked_density_mask` draws a synthesized operand's
DBB pattern block by block in place, and the census-first synthesis of
:mod:`repro.workloads.from_spec` is tested against it in distribution
(``tests/workloads/test_census_law.py``), not bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.arch.events import EventCounts
from repro.arch.smt import SMTResult
from repro.core.dbb import DBBBlock, DBBSpec, DBBTensor, compress_block, \
    expand_block, pad_to_blocks
from repro.models.specs import BLOCK_SIZE
from repro.workloads.from_spec import _allocation, _mask_table

__all__ = [
    "naive_compress_blocks",
    "naive_decompress",
    "naive_dbb_gemm",
    "naive_joint_dbb_gemm",
    "naive_wdbb_fired",
    "naive_awdbb_fired",
    "naive_dap_prune",
    "reference_blocked_density_mask",
    "naive_smt_simulate",
    "naive_sparten_column_loads",
    "naive_eyeriss_mesh_loads",
    "naive_scnn_issue_slots",
]


def naive_compress_blocks(matrix: np.ndarray,
                          spec: DBBSpec) -> List[List[DBBBlock]]:
    """Per-block compression (the original object-per-block path)."""
    matrix = np.asarray(matrix)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    bz = spec.block_size
    blocks: List[List[DBBBlock]] = []
    for r in range(matrix.shape[0]):
        padded = pad_to_blocks(matrix[r], bz)
        blocks.append([
            compress_block(padded[b * bz:(b + 1) * bz], spec)
            for b in range(padded.shape[0] // bz)
        ])
    return blocks


def naive_decompress(blocks: List[List[DBBBlock]], cols: int,
                     dtype=np.float64) -> np.ndarray:
    """Per-block expansion of a list-of-lists of :class:`DBBBlock`."""
    rows = len(blocks)
    blocks_per_row = len(blocks[0]) if rows else 0
    if not blocks_per_row:
        return np.zeros((rows, cols), dtype=dtype)
    bz = blocks[0][0].spec.block_size
    out = np.zeros((rows, blocks_per_row * bz), dtype=dtype)
    for r, row in enumerate(blocks):
        for b, block in enumerate(row):
            out[r, b * bz:(b + 1) * bz] = expand_block(block, dtype=dtype)
    return out[:, :cols]


def naive_dbb_gemm(a: np.ndarray, w_dbb: DBBTensor,
                   accumulate_dtype=np.int64) -> np.ndarray:
    """Per-block walk of the DP4M8 weight stream (S2TA-W mode)."""
    a = np.asarray(a)
    m, k = a.shape
    n = w_dbb.num_rows
    bz = w_dbb.spec.block_size
    out = np.zeros((m, n), dtype=accumulate_dtype)
    a_wide = a.astype(accumulate_dtype)
    for col in range(n):
        for b, block in enumerate(w_dbb.row_blocks(col)):
            base = b * bz
            for pos, val in block.nonzero_pairs():
                idx = base + pos
                if idx >= k:
                    continue  # zero padding of the last block
                out[:, col] += a_wide[:, idx] * accumulate_dtype(val)
    return out


def naive_joint_dbb_gemm(
    a_dbb: DBBTensor, w_dbb: DBBTensor, accumulate_dtype=np.int64
) -> np.ndarray:
    """Per-block mask-intersection walk of the DP1M4 stream (S2TA-AW)."""
    if a_dbb.spec.block_size != w_dbb.spec.block_size:
        raise ValueError("operand block sizes differ")
    if a_dbb.blocks_per_row != w_dbb.blocks_per_row:
        raise ValueError("reduction lengths differ")
    m = a_dbb.num_rows
    n = w_dbb.num_rows
    out = np.zeros((m, n), dtype=accumulate_dtype)
    for row in range(m):
        a_blocks = a_dbb.row_blocks(row)
        for col in range(n):
            w_blocks = w_dbb.row_blocks(col)
            acc = accumulate_dtype(0)
            for a_block, w_block in zip(a_blocks, w_blocks):
                match = a_block.mask & w_block.mask
                if not match:
                    continue
                a_vals = dict(a_block.nonzero_pairs())
                w_vals = dict(w_block.nonzero_pairs())
                pos = 0
                mask = match
                while mask:
                    if mask & 1:
                        acc += accumulate_dtype(a_vals[pos]) * accumulate_dtype(
                            w_vals[pos]
                        )
                    mask >>= 1
                    pos += 1
            out[row, col] = acc
    return out


def naive_wdbb_fired(a: np.ndarray, w_dbb: DBBTensor) -> int:
    """Fired-MAC count of the W-DBB array: per stored non-zero weight,
    one MAC per non-zero activation at the matching reduction index."""
    a = np.asarray(a)
    k = a.shape[1]
    bz = w_dbb.spec.block_size
    a_nz_cols = (a != 0).sum(axis=0)
    fired = 0
    for col in range(w_dbb.num_rows):
        for b, block in enumerate(w_dbb.row_blocks(col)):
            for pos, val in block.nonzero_pairs():
                idx = b * bz + pos
                if idx < k and val != 0:
                    fired += int(a_nz_cols[idx])
    return fired


def naive_awdbb_fired(a_dbb: DBBTensor, w_dbb: DBBTensor) -> int:
    """Fired-MAC count of the time-unrolled array: popcount of the
    activation/weight bitmask intersection over every (row, col, block)."""
    fired = 0
    for row in range(a_dbb.num_rows):
        a_blocks = a_dbb.row_blocks(row)
        for col in range(w_dbb.num_rows):
            for a_block, w_block in zip(a_blocks, w_dbb.row_blocks(col)):
                match = a_block.mask & w_block.mask
                fired += bin(match).count("1")
    return fired


def naive_dap_prune(activations: np.ndarray, spec: DBBSpec,
                    nnz: int) -> np.ndarray:
    """Per-block Top-``nnz`` DAP along the last axis: each block keeps its
    ``nnz`` largest magnitudes, the lowest index winning a tie and zeros
    never counting as kept (the comparator-cascade rule of Fig. 8)."""
    activations = np.asarray(activations)
    out = np.zeros(activations.shape, dtype=activations.dtype)
    flat_in = activations.reshape(-1, activations.shape[-1])
    flat_out = out.reshape(flat_in.shape)
    bz = spec.block_size
    for r in range(flat_in.shape[0]):
        for start in range(0, flat_in.shape[1], bz):
            block = flat_in[r, start:start + bz].tolist()
            by_magnitude = sorted(range(len(block)),
                                  key=lambda i: -abs(block[i]))
            for i in by_magnitude[:nnz]:
                flat_out[r, start + i] = block[i]
    return out


def _smallest(keys: np.ndarray, take: int) -> np.ndarray:
    """Indices of the ``take`` smallest ``keys``, ties toward the lowest
    index (what a stable sort on the keys would keep)."""
    kth = np.partition(keys, take - 1)[take - 1]
    below = np.flatnonzero(keys < kth)
    ties = np.flatnonzero(keys == kth)[:take - below.size]
    return np.concatenate([below, ties])


def reference_blocked_density_mask(rows: int, width: int, nnz_cap: int,
                                   density: float,
                                   rng: np.random.Generator) -> np.ndarray:
    """DBB pattern synthesis drawn block by block in place: the law
    :func:`repro.workloads.from_spec.blocked_density_census` draws
    census-first, and the distribution test's reference.

    Every block starts at ``min(floor(density * valid), cap)``; the
    deficit to ``round(rows * width * density)`` (clipped to the caps)
    is handed out in rounds, remainder classes in descending order, each
    class bumping a uniformly random subset of its blocks still below
    their cap (the smallest of one float32 key per eligible block).
    Each block's pattern is then uniform among the masks of its
    popcount inside its valid width (one float64 draw per block
    indexing its group of the popcount table).
    """
    cap, base, frac, total = _allocation(rows, width, nnz_cap, density)
    kb = cap.size
    tail = width - (kb - 1) * BLOCK_SIZE
    nnz = np.repeat(base.astype(np.int8)[None, :], rows, axis=0)
    deficit = total - rows * int(base.sum())
    while deficit > 0:
        for remainder in sorted(set(frac.tolist()), reverse=True):
            if deficit == 0:
                break
            room = (nnz < cap) & (frac == remainder)
            eligible = np.flatnonzero(room)
            take = min(deficit, eligible.size)
            if take < eligible.size:
                keys = rng.random(eligible.size, dtype=np.float32)
                eligible = eligible[_smallest(keys, take)]
            nnz.reshape(-1)[eligible] += 1
            deficit -= take
    pick = rng.random((rows, kb))
    patterns = np.empty((rows, kb), dtype=np.uint8)
    full = kb if tail == BLOCK_SIZE else kb - 1
    for cols, bits in ((slice(0, full), BLOCK_SIZE), (slice(full, kb), tail)):
        table, offsets, counts = _mask_table(bits)
        k = nnz[:, cols]
        u = pick[:, cols]
        u *= counts.take(k)
        index = u.astype(np.int16)
        index += offsets.take(k)
        patterns[:, cols] = table[index]
    return np.unpackbits(patterns, axis=1, count=width,
                         bitorder="little").view(bool)


def naive_smt_simulate(model, weight_density: float, act_density: float,
                       stream_length: int = 2048,
                       rng: Optional[np.random.Generator] = None):
    """One-point, cycle-by-cycle SA-SMT queueing walk for ``model`` (an
    :class:`~repro.arch.smt.SMTArrayModel`): what
    :meth:`~repro.arch.smt.SMTArrayModel.simulate_many` computes for
    every point of a batch at once, with the PEs of all points packed
    into the bits of Python ints. One ``binomial`` draw of ``size=pes``
    per cycle on a per-PE occupancy array; pops are counted as they
    happen.
    """
    for name, d in (("weight", weight_density), ("act", act_density)):
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"{name} density must be in [0, 1], got {d}")
    if stream_length < 1:
        raise ValueError(f"stream_length must be >= 1, got {stream_length}")
    rng = rng or np.random.default_rng(0)
    p_useful = weight_density * act_density
    occupancy = np.zeros(model.pes, dtype=np.int64)
    consumed = 0
    cycles = 0
    stall_cycles = 0
    total_pushes = 0
    total_pops = 0
    # Hard bound so adversarial parameters cannot hang the simulation.
    max_cycles = stream_length * model.threads * 4 + 64
    while consumed < stream_length and cycles < max_cycles:
        cycles += 1
        # Service: each PE's MAC pops at most one pending pair.
        served = occupancy > 0
        occupancy[served] -= 1
        total_pops += int(np.count_nonzero(served))
        # Arrivals: all threads advance one stream element in lockstep
        # unless some PE's FIFO would overflow.
        arrivals = rng.binomial(model.threads, p_useful, size=model.pes)
        if np.any(occupancy + arrivals > model.fifo_depth):
            stall_cycles += 1
            continue  # global stall: operand wavefront frozen
        occupancy += arrivals
        total_pushes += int(arrivals.sum())
        consumed += 1
    # Drain the FIFOs, then account the wavefront fill/drain skew.
    remaining = int(occupancy.max()) if occupancy.size else 0
    cycles += remaining + model.skew
    total_pops += int(occupancy.sum())
    # The dense SA pays the skew once for the same tile, not per thread.
    dense_cycles = model.threads * stream_length + model.skew
    speedup = dense_cycles / cycles if cycles else 0.0
    useful_macs = total_pushes
    events = EventCounts(
        mac_ops=useful_macs,
        gated_mac_ops=cycles * model.pes - useful_macs,
        fifo_push_ops=total_pushes,
        fifo_pop_ops=total_pops,
        cycles=cycles,
    )
    utilization = useful_macs / (cycles * model.pes) if cycles else 0.0
    return SMTResult(
        cycles=cycles,
        stall_cycles=stall_cycles,
        speedup=speedup,
        mac_utilization=utilization,
        events=events,
    )


def _match_matrix(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Matched non-zero pairs of every output ``(i, j)``:
    ``popcount(nz(a[i]) & nz(w[:, j]))``, as ``int64``."""
    return (np.asarray(a) != 0).astype(np.int64) \
        @ (np.asarray(w) != 0).astype(np.int64)


def naive_sparten_column_loads(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Matched pairs per output column (filter) of ``A @ W`` — the jobs
    SparTen's greedy balance schedules — summed from the match matrix."""
    return _match_matrix(a, w).sum(axis=0)


def naive_eyeriss_mesh_loads(a: np.ndarray, w: np.ndarray, clusters: int,
                             pes: int) -> np.ndarray:
    """Per-(cluster, PE) matched-pair loads of Eyeriss v2's
    row-stationary mapping, flattened cluster-major: output ``(i, j)``
    runs on cluster ``j mod clusters``, PE ``(i + (j // clusters)) mod
    pes``; every output's pairs are added to its slot."""
    match = _match_matrix(a, w)
    m, n = match.shape
    loads = np.zeros((clusters, pes), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            loads[j % clusters, (i + j // clusters) % pes] += match[i, j]
    return loads.reshape(-1)


def naive_scnn_issue_slots(a: np.ndarray, w: np.ndarray, pes: int,
                           mults_i: int, mults_f: int) -> np.ndarray:
    """Multiplier issue slots per SCNN PE: pixel ``i`` lives on PE
    ``i mod pes``, and per reduction index a PE spends ``ceil(nnz_a /
    mults_i) * ceil(nnz_w / mults_f)`` slots on the Cartesian product of
    its pixels' non-zero activations with the non-zero weights."""
    a_nz = np.asarray(a) != 0
    w_nz = (np.asarray(w) != 0).sum(axis=1)
    m, k = a_nz.shape
    slots = np.zeros(pes, dtype=np.int64)
    for pe in range(pes):
        na = a_nz[pe::pes].sum(axis=0)
        for kk in range(k):
            slots[pe] += (-(-int(na[kk]) // mults_i)) \
                * (-(-int(w_nz[kk]) // mults_f))
    return slots
