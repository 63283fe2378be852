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
number of density points in lockstep, each point drawing its arrivals
from its own generator in chunks of 256 cycles. A chunk holds exactly
the values of one ``binomial(T, p, size=(256, pes))`` call (which are
those of 256 calls of ``size=pes``) and leaves the generator in the same
state, but is drawn by inversion (:func:`_binomial_into`): one uniform
per arrival, counted against numpy's own pmf recurrence. ``binomial``
itself draws the chunks numpy would not invert (``p`` of 0 or 1,
``T * min(p, 1 - p) > 30``) and any chunk in which a uniform would
reach numpy's rejection branch (after rewinding the generator). A
point's result therefore does not depend on the batch it rides in, and
:meth:`SMTArrayModel.simulate` is a batch of one. A generator passed in
is advanced in whole chunks, i.e. past the point's last cycle.

The lockstep is bit-parallel. Every live point's PEs are packed into
Python ints, one bit per PE: each point owns a segment of whole 64-bit
words holding its ``pes`` bits and, above them, a guard bit. The FIFO
occupancy is held as Q thermometer planes (``occupancy >= j``) and each
cycle's arrivals as planes ``arrivals >= l``, packed from the chunk's
draws. One cycle is then a fixed handful of big-int operations for the
whole batch: service shifts the planes down one level, the trial push
is an OR of ANDs of carry and arrival planes, a point stalls when its
segment of the overflow plane ``trial >= Q + 1`` is non-zero (adding
``pes`` ones carries into its guard bit), and the guard bits, widened
back into segment masks, pick the trial or the serviced state per
point. The cycle loop is straight-line code for the model's ``(T, Q)``,
generated and compiled on first use (:func:`_chunk_stepper`). The
one-point cycle walk is kept as
:func:`repro.core.reference.naive_smt_simulate`, the property-test
oracle.
"""

from __future__ import annotations

import functools
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


def _step_source(threads: int, fifo_depth: int) -> str:
    """Source of the chunk loop :func:`_chunk_stepper` compiles.

    Names: ``s{j}`` is the state plane ``occupancy >= j`` (j = 1..Q),
    ``a{l}`` the arrival plane ``arrivals >= l``. After service,
    ``occupancy >= k`` is the old ``s{k + 1}`` (nothing for k >= Q),
    and the trial push holds ``>= j`` where an arrival plane alone
    reaches j, the carry alone does, or ``carry >= k`` meets
    ``arrivals >= j - k``. Only terms that can be non-zero are written:
    no plane above ``a{Q + 1}`` is read, and ``trial >= Q + 1`` (the
    overflow) is empty at T = 1.
    """
    Q = fifo_depth
    levels = min(threads, Q + 1)

    def carry(k: int) -> Optional[str]:
        return f"s{k + 1}" if k < Q else None

    def rise(j: int) -> str:
        """``trial >= j`` beyond the carry, as one operand; empty
        where it is always zero."""
        terms = [f"a{j}"] if j <= levels else []
        terms += [f"{carry(k)} & a{j - k}"
                  for k in range(1, min(j, Q)) if j - k <= levels]
        joined = " | ".join(terms)
        return joined if joined.isidentifier() or not joined else \
            f"({joined})"

    def tuple_of(items: List[str]) -> str:
        return ", ".join(items) + ("," if len(items) == 1 else "")

    state = tuple_of([f"s{j}" for j in range(1, Q + 1)])
    # Where the push fits, trial >= j is a superset of carry >= j.
    update = tuple_of([
        f"{carry(j)} | {rise(j)} & moved" if carry(j)
        else f"{rise(j)} & moved" for j in range(1, Q + 1)])
    overflow = rise(Q + 1)
    lines = [
        "def step(state, arrivals, stride, pes, ALL, GUARD):",
        f"    {state} = state",
        f"    {tuple_of([f'b{l}' for l in range(1, levels + 1)])} = arrivals",
        "    from_bytes = int.from_bytes",
        "    moves = []",
        "    history = []",
    ]
    if not overflow:
        lines += ["    m = GUARD", "    moved = ALL"]
    lines += ["    for o in range(0, len(b1), stride):",
              "        e = o + stride"]
    lines += [f"        a{l} = from_bytes(b{l}[o:e], 'little')"
              for l in range(1, levels + 1)]
    if overflow:
        # A point whose overflow segment is non-zero carries into its
        # guard bit; m keeps the guard bits of the points that move,
        # and m - (m >> pes) widens each into its segment's pes bits.
        lines += [f"        m = GUARD ^ (({overflow} + ALL) & GUARD)",
                  "        moved = m - (m >> pes)"]
    lines += [f"        {state} = {update}",
              "        moves.append(m)",
              f"        history.append(({state}))",
              "    return moves, history"]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _chunk_stepper(threads: int, fifo_depth: int):
    """The chunk loop of a ``(T, Q)`` model, compiled on first use.

    ``step(state, arrivals, stride, pes, ALL, GUARD)`` runs one chunk:
    ``state`` holds the Q occupancy planes of the live points, and
    ``arrivals`` the ``min(T, Q + 1)`` arrival planes as bytes, one
    little-endian run of ``stride`` bytes per cycle. ``ALL`` has every
    segment's pes bits set and ``GUARD`` every guard bit. It returns
    each cycle's moved guard bits and each cycle's state. Straight-line
    code keeps a cycle to a fixed handful of
    big-int operations for the whole batch; a loop over the planes
    costs several times that.
    """
    namespace: dict = {}
    exec(_step_source(threads, fifo_depth), namespace)
    return namespace["step"]


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
        step = _chunk_stepper(T, Q)
        # Each live point is one segment of the packed planes: its pes
        # bits, a guard bit at bit pes, zero padding to whole words.
        words = pes // 64 + 1
        width = 64 * words
        low = (1 << pes) - 1
        dtype = np.min_scalar_type(T)  # holds any arrival count
        # Draw scratch, reused by every point and chunk. Draws only fill
        # the first pes of every width entries of the arrivals buffer,
        # so its padding stays zero for any number of live points.
        uniforms = np.empty((_CHUNK, pes))
        passed = np.empty((_CHUNK, pes), dtype=bool)
        drawn = np.zeros(_CHUNK * n_points * width, dtype=dtype)
        consumed = np.zeros(n_points, dtype=np.int64)
        cycles = np.zeros(n_points, dtype=np.int64)
        pushes = np.zeros(n_points, dtype=np.int64)
        depth = np.zeros(n_points, dtype=np.int64)  # fullest FIFO at the end
        # Hard bound so adversarial parameters cannot hang the simulation.
        max_cycles = stream_length * T * 4 + 64
        live = np.arange(n_points)  # points still streaming
        state = (0,) * Q  # occupancy >= j (j = 1..Q) of the live points
        elapsed = 0
        while live.size:
            n = min(_CHUNK, max_cycles - elapsed)
            count = live.size
            stride = count * width // 8  # bytes of one cycle's plane
            # arrivals[k, j, :pes]: the arrivals of live point j in cycle k.
            arrivals = drawn[:n * count * width].reshape(n, count, width)
            for j, i in enumerate(live):
                _binomial_into(rngs[i], T, p_useful[i], arrivals[:, j, :pes],
                               uniforms[:n], passed[:n])
            # Plane l - 1 holds arrivals >= l: the non-zero bits after
            # l - 1 saturating decrements in place. No push that fits
            # holds more than Q, so planes above Q + 1 (the overflow) are
            # never read, and in a cycle that advances, a point's pushes
            # are the set bits of its segments, summed over the planes.
            flat = arrivals.reshape(-1)
            planes = []
            arrived = np.zeros((n, count), dtype=np.int64)
            for level in range(min(T, Q + 1)):
                if level:
                    np.maximum(flat, 1, out=flat)
                    flat -= 1
                plane = np.packbits(flat, bitorder="little")
                planes.append(plane.tobytes())
                ones = np.bitwise_count(plane.view("<u8"))
                arrived += ones.reshape(n, count, words).sum(axis=2,
                                                             dtype=np.int64)
            unit = int.from_bytes(b"\x01".ljust(width // 8, b"\x00") * count,
                                  "little")
            moves, history = step(state, planes, stride, pes, unit * low,
                                  unit << pes)
            state = history[-1]
            # advanced[k, j]: whether live point j's wavefront moved in
            # cycle k (its guard bit in moves[k]).
            guards = np.frombuffer(
                b"".join([m.to_bytes(stride, "little") for m in moves]),
                dtype="<u8").reshape(n, count, words)[:, :, pes // 64]
            advanced = (guards >> np.uint64(pes % 64)).astype(bool)
            # Each point ends at the cycle its stream is consumed, or at
            # the end of the chunk; later cycles in the chunk are unused.
            streamed = consumed[live] + np.cumsum(advanced, axis=0)
            finished = streamed[-1] >= stream_length
            end = np.where(finished,
                           np.argmax(streamed >= stream_length, axis=0),
                           n - 1)
            cols = np.arange(count)
            pushed = np.cumsum(arrived * advanced, axis=0)
            cycles[live] += end + 1
            pushes[live] += pushed[end, cols]
            consumed[live] = streamed[end, cols]
            elapsed += n
            retired = (finished if elapsed < max_cycles
                       else np.ones(count, dtype=bool))
            if retired.any():
                for j in np.flatnonzero(retired).tolist():
                    depth[live[j]] = sum(1 for plane in history[end[j]]
                                         if plane >> (j * width) & low)
                kept = ~retired
                state = tuple(
                    int.from_bytes(np.frombuffer(
                        plane.to_bytes(stride, "little"), dtype=np.uint8
                    ).reshape(count, width // 8)[kept].tobytes(), "little")
                    for plane in state)
                live = live[kept]
            del moves, history  # freed before the next chunk builds its own
        # Every cycle so far either advanced the stream or stalled it.
        stalls = cycles - consumed
        # Drain the FIFOs, then account the wavefront fill/drain skew
        # (every point ran >= 1 cycle, so no total below is zero).
        # Every pair pushed is eventually popped, so pops equal pushes.
        cycles += depth + self.skew
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
