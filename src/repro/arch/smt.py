"""SA-SMT staging-FIFO queueing simulator (Sec. 2.2, Fig. 3).

SMT-SA time-multiplexes ``T`` independent operand streams (threads) onto
each PE's single MAC. Zero products are skipped, so a PE only needs its
MAC when *both* operands of a thread are non-zero — probability
``d_w * d_a`` for random sparsity. Matching pairs wait in a per-PE
staging FIFO of depth ``Q``; when any PE's FIFO would overflow, the
systolic operand propagation stalls globally (streams cannot advance
selectively in a systolic array).

The paper's INT8 re-implementation measures ~1.6x (T2Q2) and ~1.8x
(T2Q4) speedup at 50%/50% weight/activation sparsity, *with* a large
energy overhead from the FIFO traffic. This Monte Carlo reproduces the
speedup mechanism (capped at T, degraded by overflow stalls that shrink
as Q grows) and counts the FIFO events that drive the energy overhead.

The engine is batched: :meth:`SMTArrayModel.simulate_many` steps any
number of density points in lockstep on one ``(points, pes)`` occupancy
array, each point drawing its arrivals from its own generator in
chunks of 256 cycles. A chunk holds exactly the values of one
``binomial(T, p, size=(256, pes))`` call (which are those of 256 calls
of ``size=pes``) and leaves the generator in the same state, but is
drawn by inversion (:func:`_binomial_into`): one uniform per arrival,
counted against numpy's own pmf recurrence. ``binomial`` itself draws
the chunks numpy would not invert (``p`` of 0 or 1, ``T * min(p, 1 - p)
> 30``) and any chunk in which a uniform would reach numpy's rejection
branch (after rewinding the generator). A point's result therefore
does not depend on the batch it rides in, and
:meth:`SMTArrayModel.simulate` is a batch of one. A generator passed in
is advanced in whole chunks, i.e. past the point's last cycle. The
one-point cycle walk this replaces is kept as
:func:`repro.core.reference.naive_smt_simulate`, the property-test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.events import EventCounts

__all__ = ["SMTArrayModel", "SMTResult", "check_densities"]

#: Cycles of arrivals drawn per generator call.
_CHUNK = 256


def _binomial_into(rng: np.random.Generator, trials: int, p: float,
                   out: np.ndarray, u: np.ndarray, mask: np.ndarray) -> None:
    """Fill ``out`` with ``rng.binomial(trials, p, size=out.shape)``.

    Bit-equal to that call in the values and in the state it leaves
    ``rng`` in. For ``trials * min(p, 1 - p) <= 30`` numpy inverts one
    ``next_double`` per draw, the same doubles ``rng.random`` yields: a
    draw is the number of pmf steps its uniform outlasts, with the pmf
    recurrence and the running subtraction done in numpy's order (for
    ``p > 0.5`` it counts the failures at ``1 - p``). ``u`` (float64)
    and ``mask`` (bool) are scratch buffers of ``out``'s shape. Every
    other case is drawn by ``rng.binomial``: no trials, ``p`` of 0
    (which draws nothing) or 1, the parameters numpy samples by BTPE,
    and a chunk in which some uniform outlasts ``bound`` steps, i.e.
    would hit numpy's rejection branch; the generator is rewound first.
    """
    flip = p > 0.5
    p_min = 1.0 - p if flip else p
    if trials == 0 or not 0.0 < p < 1.0 or p_min * trials > 30.0:
        out[...] = rng.binomial(trials, p, size=out.shape)
        return
    q = 1.0 - p_min
    mean = trials * p_min
    bound = int(min(trials, mean + 10.0 * math.sqrt(mean * q + 1)))
    state = rng.bit_generator.state
    rng.random(out=u)
    px = math.exp(trials * math.log(q))
    # A uniform that stops at step x (u <= px) is <= 0 after the next
    # subtraction and passes no later step, so counting every step it
    # passes gives numpy's X without a running mask.
    np.greater(u, px, out=out)
    for x in range(1, bound + 1):
        u -= px
        px = ((trials - x + 1) * p_min * px) / (x * q)
        if x < bound:
            np.greater(u, px, out=mask)
            out += mask
    if u.size and u.max() > px:
        rng.bit_generator.state = state
        out[...] = rng.binomial(trials, p, size=out.shape)
    elif flip:
        np.subtract(trials, out, out=out)


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; a bool or a non-integer type is an error."""
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_densities(weight_density: float, act_density: float) -> None:
    """Reject a density outside [0, 1], NaN included."""
    for name, d in (("weight", weight_density), ("act", act_density)):
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"{name} density must be in [0, 1], got {d}")


@dataclass
class SMTResult:
    """Outcome of one SMT array simulation."""

    cycles: int
    stall_cycles: int
    speedup: float          # vs a dense SA running the same T tiles
    mac_utilization: float
    events: EventCounts


class SMTArrayModel:
    """Monte Carlo queueing model of an SMT systolic array.

    Parameters
    ----------
    threads:
        ``T`` — streams multiplexed per PE (paper evaluates T2).
    fifo_depth:
        ``Q`` — staging FIFO depth per PE (paper evaluates Q2 and Q4).
    pes:
        Number of PEs sharing the globally-coupled stall signal. More PEs
        means more frequent worst-case overflow, i.e. lower speedup. The
        default of 48 (with the 32x64 array's skew of 94) calibrates the
        model to the paper's measured 1.6x (T2Q2) / 1.8x (T2Q4) at
        50%/50% sparsity; physically it reflects stall elasticity — a
        FIFO overflow backpressures a neighbourhood, not all 2048 PEs.
    skew:
        Wavefront fill/drain steps charged once per tile.
    """

    def __init__(self, threads: int = 2, fifo_depth: int = 2, pes: int = 48,
                 skew: int = 94):
        threads = _integer("threads", threads)
        fifo_depth = _integer("fifo_depth", fifo_depth)
        pes = _integer("pes", pes)
        skew = _integer("skew", skew)
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if fifo_depth < 1:
            raise ValueError(f"fifo_depth must be >= 1, got {fifo_depth}")
        if pes < 1:
            raise ValueError(f"pes must be >= 1, got {pes}")
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        self.threads = threads
        self.fifo_depth = fifo_depth
        self.pes = pes
        # Wavefront fill/drain of the output-stationary schedule; the
        # paper's 32x64 array has rows+cols-2 = 94 skew steps per tile.
        self.skew = skew

    def simulate(
        self,
        weight_density: float,
        act_density: float,
        stream_length: int = 2048,
        rng: Optional[np.random.Generator] = None,
    ) -> SMTResult:
        """Run the queueing simulation for one synthetic GEMM.

        ``stream_length`` is the per-thread operand stream length (the
        reduction dimension of the tile). A dense SA processes the same
        ``T`` tiles in ``T * stream_length`` cycles, which defines the
        speedup denominator. A batch of one of :meth:`simulate_many`.
        """
        rng = rng or np.random.default_rng(0)
        return self.simulate_many([(weight_density, act_density)],
                                  stream_length, [rng])[0]

    def simulate_many(
        self,
        points: Sequence[Tuple[float, float]],
        stream_length: int,
        rngs: Sequence[np.random.Generator],
    ) -> List[SMTResult]:
        """Simulate every ``(weight, act)`` density point in lockstep.

        Point ``i`` draws its arrivals from ``rngs[i]`` alone, in the
        same order as a one-point run, so each result is independent of
        the batch it rides in (bit-equal to
        :func:`repro.core.reference.naive_smt_simulate`). Arrivals are
        drawn ``_CHUNK`` cycles at a time, so each generator ends
        advanced to a whole chunk past the point's last cycle.
        """
        if len(rngs) != len(points):
            raise ValueError(
                f"need one rng per point, got {len(rngs)} for "
                f"{len(points)} points")
        for w, a in points:
            check_densities(w, a)
        if stream_length < 1:
            raise ValueError(
                f"stream_length must be >= 1, got {stream_length}")
        T, Q, pes = self.threads, self.fifo_depth, self.pes
        n_points = len(points)
        p_useful = [w * a for w, a in points]
        # A FIFO never holds more than Q, and a trial push adds at most
        # T, so the narrowest unsigned type holding Q + T suffices.
        dtype = np.min_scalar_type(Q + T)
        # Draw scratch, reused by every point and chunk.
        uniforms = np.empty((_CHUNK, pes))
        passed = np.empty((_CHUNK, pes), dtype=bool)
        occupancy = np.zeros((n_points, pes), dtype=dtype)
        consumed = np.zeros(n_points, dtype=np.int64)
        cycles = np.zeros(n_points, dtype=np.int64)
        pushes = np.zeros(n_points, dtype=np.int64)
        # Hard bound so adversarial parameters cannot hang the simulation.
        max_cycles = stream_length * T * 4 + 64
        live = np.arange(n_points)  # points still streaming
        elapsed = 0
        while live.size:
            n = min(_CHUNK, max_cycles - elapsed)
            # arrivals[k, j]: the arrivals of live point j in cycle k.
            arrivals = np.empty((n, live.size, pes), dtype=dtype)
            for j, i in enumerate(live):
                _binomial_into(rngs[i], T, p_useful[i], arrivals[:, j],
                               uniforms[:n], passed[:n])
            # state[k]: occupancy after cycle k; advanced[k]: whether the
            # wavefront moved in cycle k (no PE's FIFO would overflow).
            state = np.empty_like(arrivals)
            advanced = np.empty((n, live.size, 1), dtype=bool)
            trial = np.empty((live.size, pes), dtype=dtype)
            fits = np.empty((live.size, pes), dtype=bool)
            # Full-shape operands: numpy takes its fast path on these,
            # where a Python scalar costs ~1 us per call.
            ones = np.ones_like(trial)
            depth = np.full_like(trial, Q)
            prev = occupancy[live]
            for cur, arrived, moved in zip(state, arrivals, advanced):
                # Service: each PE's MAC pops at most one pending pair.
                np.maximum(prev, ones, out=cur)
                np.subtract(cur, ones, out=cur)
                np.add(cur, arrived, out=trial)
                # A global stall freezes the whole operand wavefront.
                np.less_equal(trial, depth, out=fits)
                np.logical_and.reduce(fits, axis=1, keepdims=True,
                                      out=moved)
                np.copyto(cur, trial, where=moved)
                prev = cur
            # Each point ends at the cycle its stream is consumed, or at
            # the end of the chunk; later cycles in the chunk are unused.
            advanced = advanced[:, :, 0]
            streamed = consumed[live] + np.cumsum(advanced, axis=0)
            finished = streamed[-1] >= stream_length
            end = np.where(finished,
                           np.argmax(streamed >= stream_length, axis=0),
                           n - 1)
            cols = np.arange(live.size)
            pushed = np.cumsum(
                arrivals.sum(axis=2, dtype=np.int64) * advanced, axis=0)
            cycles[live] += end + 1
            pushes[live] += pushed[end, cols]
            consumed[live] = streamed[end, cols]
            occupancy[live] = state[end, cols]
            elapsed += n
            live = live[~finished] if elapsed < max_cycles else live[:0]
        # Every cycle so far either advanced the stream or stalled it.
        stalls = cycles - consumed
        # Drain the FIFOs, then account the wavefront fill/drain skew
        # (every point ran >= 1 cycle, so no total below is zero).
        # Every pair pushed is eventually popped, so pops equal pushes.
        cycles += occupancy.max(axis=1) + self.skew
        # The dense SA pays the skew once for the same tile, not per thread.
        dense_cycles = T * stream_length + self.skew
        results = []
        for i in range(n_points):
            total = int(cycles[i])
            useful_macs = int(pushes[i])
            results.append(SMTResult(
                cycles=total,
                stall_cycles=int(stalls[i]),
                speedup=dense_cycles / total,
                mac_utilization=useful_macs / (total * pes),
                events=EventCounts(
                    mac_ops=useful_macs,
                    gated_mac_ops=total * pes - useful_macs,
                    fifo_push_ops=useful_macs,
                    fifo_pop_ops=useful_macs,
                    cycles=total,
                ),
            ))
        return results

    def speedup(
        self,
        weight_density: float,
        act_density: float,
        stream_length: int = 2048,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Convenience wrapper returning only the speedup factor."""
        return self.simulate(
            weight_density, act_density, stream_length, rng=rng
        ).speedup
