"""SA-SMT: unstructured sparsity on a systolic array via staging FIFOs.

The paper's INT8 re-implementation of SMT-SA [38]. Throughput comes from
the queueing simulation in :mod:`repro.arch.smt`; the energy cost adds
two FIFO events per useful MAC — the overhead that makes SMT *less*
energy-efficient than SA-ZVCG despite its speedup (Fig. 3, Fig. 10).

Speedups are memoized per instance on a 1% density grid. Each grid
point is simulated once, with the raw densities of the *first* layer
that asks for it (two raw pairs can share a grid point, e.g. ResNet-50's
``a=0.225`` and VGG-16's ``a=0.22``) and its own seed
(:func:`_point_seed`). :meth:`SmtSA.prefetch` fills the memo for a
whole sequence of raw ``(w, a)`` pairs from one batched
:meth:`~repro.arch.smt.SMTArrayModel.simulate_many` call under the same
first-asked rule. Both tiers batch: the analytic
:meth:`~repro.accel.base.AcceleratorModel.run_model` prefetches its
layers' spec densities, and the functional layer runner
(:mod:`repro.eval.runner`) prefetches, before any task runs, the exact
densities the synthesized operands will have
(:func:`~repro.workloads.from_spec.operand_densities`), in serial
execution order. :meth:`SmtSA.speedup_at` simulates a point nobody
prefetched as a batch of one (a direct :meth:`run_gemm_functional`
call). The memo is deliberately not shared across instances: under
the first-asked rule, an earlier run's raw densities would then decide
a later run's speedups.

A batch steps all of its points together, bit-parallel (one bit per
PE of every point in each big-int operation), until its slowest point
is done, so its time follows that point's cycle count more than the
number of points. Each batch's ``smt`` trace span ends with args
``longest`` (that cycle count) and ``stalls`` (the batch's total
global-stall cycles). A process's first batch is preceded by an
``import`` span for ``numpy.random``, which numpy loads on first use.

Memory side: the staging FIFOs reorder work *inside* the array — the
operand streams are the dense ZVCG ones, so the DRAM traffic profile is
inherited unchanged from :class:`~repro.accel.sa.ZvcgSA`. The speedup
does lower the compute side of the roofline, which is why SMT hits the
memory wall at a higher DRAM bandwidth than the dense baseline.
"""

from __future__ import annotations

import importlib
import math
import sys
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.accel.sa import ZvcgSA
from repro.arch.events import EventCounts
from repro.arch.smt import SMTArrayModel, check_densities
from repro.models.specs import LayerSpec
from repro.obs import trace as obs_trace

__all__ = ["SmtSA", "SMT_STREAM_LENGTH"]

#: Per-thread operand stream length of every simulated density point
#: (the reduction depth of the Sec. 8.2 microbenchmark tile).
SMT_STREAM_LENGTH = 1152

GridKey = Tuple[int, int]


def _grid_key(w_density: float, a_density: float) -> GridKey:
    """The 1% density grid point a raw ``(w, a)`` pair is memoized on.
    Densities outside [0, 1] (or NaN) are rejected here, before they
    reach the key or the point's seed."""
    check_densities(w_density, a_density)
    return round(w_density * 100), round(a_density * 100)


def _point_seed(key: GridKey) -> int:
    """Seed of a grid point's own arrival stream."""
    return key[0] * 101 + key[1]


class SmtSA(ZvcgSA):
    """SA-SMT with T threads and depth-Q staging FIFOs (default T2Q2)."""

    buffer_bytes_per_mac = 20.0  # Table 1: SA-SMT (T2Q2, INT8)

    def __init__(self, tech: str = "16nm", threads: int = 2,
                 fifo_depth: int = 2, **kwargs):
        super().__init__(tech=tech, **kwargs)
        self.threads = threads
        self.fifo_depth = fifo_depth
        self.name = f"SA-SMT-T{threads}Q{fifo_depth}"
        self._queue_model = SMTArrayModel(threads=threads,
                                          fifo_depth=fifo_depth)
        self._speedup_cache: Dict[GridKey, float] = {}

    def prefetch(self, densities: Iterable[Tuple[float, float]]) -> None:
        """Simulate every grid point ``densities`` will ask for in one
        batch.

        Walks the raw ``(w, a)`` pairs in order and keeps the *first*
        pair seen per uncached grid key, so the memo ends up exactly as
        a :meth:`speedup_at` loop over the same pairs would leave it.
        """
        pending: Dict[GridKey, Tuple[float, float]] = {}
        for w_density, a_density in densities:
            key = _grid_key(w_density, a_density)
            if key not in self._speedup_cache:
                pending.setdefault(key, (w_density, a_density))
        self._simulate(pending)

    def speedup_at(self, w_density: float, a_density: float) -> float:
        """Queueing-simulated speedup, cached on a 1% density grid."""
        key = _grid_key(w_density, a_density)
        if key not in self._speedup_cache:
            self._simulate({key: (w_density, a_density)})
        return self._speedup_cache[key]

    def _simulate(self, points: Dict[GridKey, Tuple[float, float]]) -> None:
        """Fill the memo for ``points`` (grid key -> raw densities)."""
        if not points:
            return
        if "numpy.random" not in sys.modules:
            # numpy loads its random module on first use (~9 ms); time
            # that apart from the process's first batch.
            with obs_trace.span("numpy.random", "import"):
                importlib.import_module("numpy.random")
        with obs_trace.span(self.name, "smt", points=len(points),
                            cycles=SMT_STREAM_LENGTH) as batch:
            results = self._queue_model.simulate_many(
                list(points.values()), SMT_STREAM_LENGTH,
                [np.random.default_rng(_point_seed(key)) for key in points])
            batch.annotate(longest=max(r.cycles for r in results),
                           stalls=sum(r.stall_cycles for r in results))
        for key, result in zip(points, results):
            self._speedup_cache[key] = max(1.0, result.speedup)

    def _smt_postpass(self, zvcg_cycles: int, events: EventCounts,
                      w_density: float, a_density: float) -> int:
        """Rescale ZVCG events by the queueing-simulated speedup.

        Shared by both fidelity tiers (the staging-FIFO microarchitecture
        has no systolic-schedule equivalent, so the functional tier also
        post-processes a ZVCG execution): fewer cycles mean fewer gated
        (idle) MAC/acc slots while the operand streams still carry every
        element, and every useful pair goes through the staging FIFO
        once. Mutates ``events`` and returns the rescaled cycle count.
        """
        speedup = self.speedup_at(w_density, a_density)
        compute_cycles = math.ceil(zvcg_cycles / speedup)
        slots = compute_cycles * self.rows * self.cols
        fired = events.mac_ops
        events.gated_mac_ops = max(0, slots - fired)
        events.gated_acc_reg_ops = max(0, slots - fired)
        events.fifo_push_ops = fired
        events.fifo_pop_ops = fired
        return compute_cycles

    def _layer_events(self, layer: LayerSpec) -> Tuple[int, EventCounts]:
        zvcg_cycles, events = super()._layer_events(layer)
        compute_cycles = self._smt_postpass(
            zvcg_cycles, events, layer.w_density, layer.a_density)
        return compute_cycles, events

    # -------------------------------------------------------------- #
    # Functional cross-check bridge
    # -------------------------------------------------------------- #

    def run_gemm_functional(self, operands, **kwargs):
        """ZVCG functional execution plus the SMT queueing post-pass.

        Exactly like the analytic model, the concrete GEMM executes on
        the ZVCG simulator and ``_smt_postpass`` rescales the result —
        here at the operands' *measured* densities, read from the same
        census the ZVCG run counted.
        """
        result = super().run_gemm_functional(operands, **kwargs)
        cycles = self._smt_postpass(
            result.cycles, result.events, operands.w_density,
            operands.a_density)
        result.events.cycles = cycles
        result.cycles = cycles
        return result
