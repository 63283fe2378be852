"""Memory-hierarchy model: DRAM channel + double-buffered SRAM staging.

The paper's energy and cycle headlines depend on off-chip traffic as
much as on MAC activity; this module is the memory side of the cost
models. It replaces the old flat DMA cap (``ceil(stream_bytes / 32)``,
applied only to FC/depthwise layers) with a first-class hierarchy:

- :class:`DRAMConfig` — one DRAM channel: sustained bandwidth in bytes
  per accelerator cycle and the minimum burst granule.
- :class:`SRAMStaging` — the software-managed on-chip staging buffers
  (512 KB weight buffer + 2 MB activation buffer on S2TA, Sec. 6.3),
  double-buffered: one half computes while the other fills, so only
  half of each buffer is usable for residency.
- :class:`MemorySystem` — prices one layer: residency against the
  staging buffers decides re-stream multiplicities, per-operand-class
  DRAM bytes are counted exactly (weights, activations, DBB metadata,
  outputs), and a vectorized tile-schedule walker turns the layer's
  tiling into a per-tile DMA timeline overlapped with compute.

No dataflow modelled here spills partial sums: the systolic family
accumulates output-stationary in the PE accumulators (S2TA, like STA)
while operands stream through the staging halves, and the
fixed-dataflow comparison points keep theirs on chip. The reduction
never splits along K, and the only DRAM write is the result write-back.

Two cycle numbers come out of a :class:`LayerMemoryProfile`:

- ``memory_cycles`` — the steady-state fill-bandwidth bound:
  ``ceil(operand-fill bus time)``. This is the roofline cap the
  accelerator models compare against compute cycles
  (``cycles = max(compute, memory)``); result write-back is posted
  through the activation-buffer write port and overlaps, so it is
  *reported and priced* but not part of the cap — exactly the
  convention of the old DMA cap, which the default configuration
  reproduces as a special case (32 B/cycle).
- ``overlapped_cycles`` — the double-buffered tile timeline: the first
  tile's fill cannot overlap anything, after that tile ``t+1``'s DMA
  (next fill + posted write-back of ``t``) hides under tile ``t``'s
  compute. This is the finer-grained number the roofline artifact
  reports; it converges to ``max(compute, memory)`` plus the fill skew.

DRAM energy is priced per byte through :class:`repro.energy.costs`
(``dram_pj_per_byte``); it is reported as a separate off-chip component
next to — not folded into — the paper-calibrated on-chip totals (the
paper scopes its energy comparisons to the accelerator die).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.arch.events import _where
from repro.models.specs import LayerKind, LayerSpec
from repro.obs import trace as obs_trace

__all__ = [
    "DRAMConfig",
    "SRAMStaging",
    "OperandStream",
    "LayerTraffic",
    "LayerMemoryProfile",
    "MemorySystem",
    "window_duplication",
    "compressed_stream_traffic_from_events",
]


def window_duplication(layer: LayerSpec) -> int:
    """Im2col duplication factor (KH*KW) between the compact feature map
    in DRAM and the GEMM view, recovered from the largest square-kernel
    divisor of K — exact for the model zoo's 11x11, 7x7, 5x5, 3x3 and
    1x1 conv layers.

    Only standard conv layers get the on-the-fly expansion. FC layers
    have no spatial window (their K is a plain channel axis, even when
    it happens to divide by a square); depthwise layers stream
    channel-serial, which defeats the im2col address generators — their
    windows re-stream expanded (the Sec. 8.3 convention that makes
    depthwise layers DMA bound at batch 1).

    Specs that state ``LayerSpec.window`` explicitly bypass the divisor
    inference — e.g. a 1x1 conv whose channel count happens to divide by
    9 would otherwise be mis-detected as a 3x3.
    """
    if layer.kind is not LayerKind.CONV:
        return 1
    if layer.window is not None:
        return layer.window
    for window in (121, 49, 25, 9):
        if layer.k % window == 0 and layer.k // window >= 1:
            return window
    return 1


def compressed_stream_traffic_from_events(
    layer: LayerSpec,
    events,
    *,
    group_cols: int,
    pass_cap: int,
    coordinate_meta: bool = False,
) -> "LayerTraffic":
    """:class:`LayerTraffic` of the fixed-dataflow comparison points,
    derived from their *counted* SRAM traffic instead of the closed-form
    density estimate.

    The fixed-dataflow models (SCNN / SparTen / Eyeriss v2) count the
    stored bytes of their sparsity-compressed operands in
    ``EventCounts.sram_*_read_bytes`` — the analytic tier from the
    density closed forms, the functional tier from the actual non-zeros
    of the simulated operands. This derivation inverts those counters
    back into single-pass stored footprints (the activation counter
    carries ``passes`` refills; bitmask sideband is ``elements / 8``
    bytes, CSR-style coordinate sideband one byte per stored non-zero)
    and emits the DRAM streams from them. Because BOTH tiers route
    through this one function, bit-equal SRAM counters give bit-equal
    per-operand-class DRAM bytes — the same cross-validation mechanism
    the systolic family uses. The DRAM-side activation stream divides
    by the im2col window duplication (DRAM holds the compact feature
    map; the address generators expand it on the fly). Activations
    refill once per output-channel group (``n / group_cols`` passes,
    capped at ``pass_cap``); weights stream once. The refill pattern is
    baked into the published designs, so the traffic is marked
    ``fixed_schedule``.
    """
    dup = window_duplication(layer)
    passes = min(max(1, math.ceil(layer.n / group_cols)), pass_cap)
    a_stored = events.sram_a_read_bytes // passes
    w_stored = events.sram_w_read_bytes
    if coordinate_meta:
        # payload + one coordinate byte per stored non-zero
        a_payload = a_stored // 2
        w_payload = w_stored // 2
    else:
        a_payload = max(0, a_stored - layer.m * layer.k // 8)
        w_payload = max(0, w_stored - layer.k * layer.n // 8)
    a_nnz = max(1, round(a_payload / dup))
    w_nnz = max(1, w_payload)
    if coordinate_meta:
        a_meta, w_meta = a_nnz, w_nnz
    else:
        a_meta = max(1, layer.m * layer.k // dup // 8)
        w_meta = max(1, layer.k * layer.n // 8)
    return LayerTraffic(
        weights=OperandStream(w_nnz, w_meta, passes=1),
        acts=OperandStream(a_nnz, a_meta, passes=passes),
        out_bytes=layer.m * layer.n,
        tiles_m=1,
        tiles_n=passes,
        fixed_schedule=True,
    )


@dataclass(frozen=True)
class DRAMConfig:
    """One DRAM channel, clock-synchronous with the accelerator.

    ``bytes_per_cycle`` is the sustained bus bandwidth per *accelerator*
    cycle (the legacy DMA fill constant was 32 B/cycle); use
    :meth:`from_bandwidth` to spec an absolute bandwidth in GB/s at a
    given accelerator clock. ``burst_bytes`` is the minimum transfer
    granule (bus bytes round up per stream).

    ``cap_streaming_only`` selects the paper's evaluation semantics
    (the default): the fill-bandwidth *cap* is enforced only on the
    zero-reuse streams of Sec. 8.3 — FC weights and depthwise windows —
    while conv layers are assumed staged ahead of compute, exactly the
    assumption behind the paper's published conv speedups (and the old
    flat DMA cap this subsystem subsumes). Per-layer DRAM traffic and
    honest fill times are computed and reported for *every* layer
    regardless; set ``cap_streaming_only=False`` (what
    :meth:`from_bandwidth` does, i.e. any explicit ``--dram-bw`` spec)
    to enforce the roofline wall everywhere.
    """

    bytes_per_cycle: float = 32.0
    burst_bytes: int = 32
    cap_streaming_only: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bytes_per_cycle)
                and self.bytes_per_cycle > 0):
            raise ValueError("bytes_per_cycle must be finite and positive, "
                             f"got {self.bytes_per_cycle}")
        if self.burst_bytes < 1:
            raise ValueError("burst_bytes must be >= 1")

    @staticmethod
    def check_bandwidth(gb_per_s: float) -> float:
        """``gb_per_s`` if it is a finite positive bandwidth, else
        ``ValueError``."""
        if not (math.isfinite(gb_per_s) and gb_per_s > 0):
            raise ValueError(f"bandwidth must be positive, got {gb_per_s}")
        return gb_per_s

    @classmethod
    def from_bandwidth(cls, gb_per_s: float, clock_ghz: float = 1.0,
                       **kwargs) -> "DRAMConfig":
        """Channel with an absolute bandwidth at a given accelerator
        clock. An explicit bandwidth spec means the caller is sweeping
        the memory wall, so the cap defaults to honest roofline
        semantics on every layer (override via ``cap_streaming_only``).
        """
        kwargs.setdefault("cap_streaming_only", False)
        return cls(bytes_per_cycle=cls.check_bandwidth(gb_per_s) / clock_ghz,
                   **kwargs)

    def transfer_cycles_array(self, logical_bytes: np.ndarray) -> np.ndarray:
        """Bus time per transfer, vectorized (one transfer per element),
        for the per-tile DMA timeline walker. Same formula as the scalar
        :meth:`_stream_time` (both call :meth:`_transfer_time`)."""
        return self._transfer_time(
            np.asarray(logical_bytes, dtype=np.float64))

    def _transfer_time(self, logical_bytes):
        """Bus time of one transfer: its burst-rounded bytes over the
        bandwidth. The single source of the channel's per-transfer
        timing formula, for an int, a float or a numpy column: the
        ceiling is ``-(-q // 1)``, which equals ``math.ceil`` and
        ``np.ceil`` bit for bit."""
        return (-(-(logical_bytes / self.burst_bytes) // 1)
                * self.burst_bytes / self.bytes_per_cycle)

    def _stream_time(self, logical_bytes: int, streams: int) -> float:
        """Bus time of ``streams >= 1`` contiguous transfers of
        ``logical_bytes`` total, each stream carrying the rounded-up
        even share: equal to ``streams *
        transfer_cycles_array(per_stream)``, on Python ints (a float
        result) or numpy columns alike. Zero bytes price to 0.0."""
        per_stream = -(-logical_bytes // streams)
        return streams * self._transfer_time(per_stream)


@dataclass(frozen=True)
class SRAMStaging:
    """Double-buffered on-chip staging (S2TA: 512 KB WB + 2 MB AB)."""

    wb_bytes: int = 512 * 1024
    ab_bytes: int = 2 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.wb_bytes < 1 or self.ab_bytes < 1:
            raise ValueError("buffer capacities must be >= 1 byte")

    @classmethod
    def split(cls, sram_mb: float, wb_fraction: float) -> "SRAMStaging":
        """``sram_mb`` of staging, ``wb_fraction`` of it (at least one
        byte) the weight buffer and the rest the activation buffer."""
        sram_bytes = int(sram_mb * 1024 * 1024)
        wb = max(1, int(sram_bytes * wb_fraction))
        return cls(wb_bytes=wb, ab_bytes=sram_bytes - wb)

    @property
    def usable_wb(self) -> int:
        """Weight-buffer bytes available for residency: half, since one
        half computes while the other fills."""
        return self.wb_bytes // 2

    @property
    def usable_ab(self) -> int:
        return self.ab_bytes // 2


@dataclass(frozen=True)
class OperandStream:
    """One operand class's single-pass DRAM stream.

    ``payload_bytes`` are the data bytes (compressed non-zeros for DBB
    operands), ``meta_bytes`` the sideband encoding (DBB positional
    masks, CSR/CSC indices, bitmasks). ``passes`` is the re-stream
    multiplicity the tiling imposes when the operand does *not* fit the
    staging buffer (resident operands stream once regardless).
    """

    payload_bytes: int
    meta_bytes: int = 0
    passes: int = 1

    def __post_init__(self) -> None:
        if self.payload_bytes < 0 or self.meta_bytes < 0:
            raise ValueError("stream byte counts must be >= 0")
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")

    @property
    def stored_bytes(self) -> int:
        """On-chip footprint of one pass (payload + metadata)."""
        return self.payload_bytes + self.meta_bytes


@dataclass(frozen=True)
class LayerTraffic:
    """What an accelerator hands the memory system for one layer.

    ``weights``/``acts`` are single-pass streams with their tiling
    re-stream multiplicities (output-stationary: weights re-stream per
    output-row tile pass, activations per output-column tile pass).
    ``out_bytes`` is the result write-back.

    ``fixed_schedule`` marks dataflows whose refill pattern is baked
    into the published design (SCNN / SparTen / Eyeriss v2): every
    non-resident operand applies its declared ``passes`` — consistent
    with those models' own SRAM counters. Leave it False for the
    software-scheduled systolic tiling, where the loop order is free
    and only a both-operands-overflow situation forces re-streaming.
    """

    weights: OperandStream
    acts: OperandStream
    out_bytes: int
    tiles_m: int = 1
    tiles_n: int = 1
    fixed_schedule: bool = False

    def __post_init__(self) -> None:
        if self.out_bytes < 0:
            raise ValueError("out_bytes must be >= 0")
        if self.tiles_m < 1 or self.tiles_n < 1:
            raise ValueError("tile counts must be >= 1")


@dataclass
class LayerMemoryProfile:
    """Exact per-operand-class DRAM traffic and timing of one layer."""

    name: str
    # DRAM bytes per operand class (payload vs DBB/index metadata).
    weight_bytes: int
    weight_meta_bytes: int
    act_bytes: int
    act_meta_bytes: int
    out_bytes: int
    # Residency decisions.
    weights_resident: bool
    acts_resident: bool
    # Timing.
    fill_cycles: float        # operand-fill bus time (reads), fractional
    memory_cycles: int        # ceil(fill_cycles): the roofline cap
    compute_cycles: int
    # Lazy per-tile timeline: walking the tile schedule costs numpy work
    # per layer, and only the roofline artifact reads the result — so
    # the walker runs on first access, not inside every run_layer.
    _timeline: Optional[Callable[[], int]] = dataclasses.field(
        default=None, repr=False, compare=False)
    _overlapped: Optional[int] = dataclasses.field(
        default=None, repr=False, compare=False)

    @property
    def overlapped_cycles(self) -> int:
        """Double-buffered per-tile DMA timeline (computed on demand)."""
        if self._overlapped is None:
            self._overlapped = (self._timeline() if self._timeline
                                else max(self.compute_cycles,
                                         self.memory_cycles))
        return self._overlapped

    @property
    def dram_read_bytes(self) -> int:
        return (self.weight_bytes + self.weight_meta_bytes
                + self.act_bytes + self.act_meta_bytes)

    @property
    def dram_write_bytes(self) -> int:
        return self.out_bytes

    @property
    def total_dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def meta_bytes(self) -> int:
        """All DBB/index sideband traffic."""
        return self.weight_meta_bytes + self.act_meta_bytes

    @property
    def memory_bound(self) -> bool:
        return self.memory_cycles > self.compute_cycles

    def intensity(self, ops: float) -> float:
        """Operational intensity: ops per DRAM byte (roofline x-axis)."""
        total = self.total_dram_bytes
        return ops / total if total else float("inf")

    def by_class(self) -> Dict[str, int]:
        """DRAM bytes per operand class (the Sec. 8.3 traffic split)."""
        return {
            "weights": self.weight_bytes,
            "activations": self.act_bytes,
            "dbb_metadata": self.meta_bytes,
            "outputs": self.out_bytes,
        }


def _split_even(total: int, parts: int) -> np.ndarray:
    """Split ``total`` into ``parts`` integers that sum exactly."""
    base, rem = divmod(int(total), int(parts))
    out = np.full(parts, base, dtype=np.int64)
    out[:rem] += 1
    return out


def _tile_dma_bytes(
    traffic: LayerTraffic,
    w_total: int,
    a_total: int,
    weights_once: bool,
    acts_once: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-tile (read, write) DRAM bytes in schedule order, vectorized.

    The output-stationary schedule walks column-tile passes outermost
    (``j = 0..tiles_n-1``) with row tiles innermost. Single-stream
    weights fetch each column strip once at its first tile; single-
    stream activations fetch each row strip during the first pass;
    a re-streaming operand re-fetches at every tile that uses it.
    Result write-back drains per tile as outputs retire.
    """
    tm, tn = traffic.tiles_m, traffic.tiles_n
    tiles = tm * tn
    reads = np.zeros(tiles, dtype=np.float64)
    # Weight strips: strip j serves all row tiles of pass j.
    w_strips = _split_even(w_total, tn)
    if weights_once:
        # Fetched once, at tile (i=0, pass j) -> schedule index j * tm.
        reads[np.arange(tn) * tm] += w_strips
    else:
        # Every tile of pass j re-fetches its strip share.
        reads += np.repeat(w_strips / tm, tm)
    # Activation strips: strip i serves tile (i, j) in every pass.
    a_strips = _split_even(a_total, tn * tm).reshape(tn, tm)
    if acts_once:
        reads[:tm] += a_strips.sum(axis=0)  # all during the first pass
    else:
        reads += a_strips.reshape(-1)
    writes = _split_even(traffic.out_bytes, tiles).astype(np.float64)
    return reads, writes


def _overlapped_cycles(
    dram: DRAMConfig,
    reads: np.ndarray,
    writes: np.ndarray,
    compute_cycles: int,
) -> int:
    """Double-buffered tile timeline: fill 0, then DMA hides under compute.

    Tile ``t``'s compute overlaps the fill of ``t+1`` plus the posted
    write-back of ``t-1`` (a tile's own outputs cannot drain before its
    compute produces them); whichever side is longer paces the
    pipeline. The first fill and the last drain are exposed — the
    fill/drain skew the analytic models pipeline away between tiles of
    one layer but pay once per layer.
    """
    tiles = len(reads)
    per_tile_compute = compute_cycles / tiles
    # Per-tile bus time; burst rounding applies per tile transfer.
    fill = dram.transfer_cycles_array(reads)
    drain = dram.transfer_cycles_array(writes)
    during_compute = np.zeros(tiles, dtype=np.float64)
    during_compute[:-1] += fill[1:]
    during_compute[1:] += drain[:-1]
    total = (fill[0]
             + float(np.maximum(per_tile_compute, during_compute).sum())
             + float(drain[-1]))
    return int(math.ceil(total))


class MemorySystem:
    """Prices one layer's tiling against a DRAM channel + staging SRAM."""

    def __init__(self, dram: DRAMConfig = DRAMConfig(),
                 sram: SRAMStaging = SRAMStaging()):
        self.dram = dram
        self.sram = sram

    def profile(self, traffic: LayerTraffic, compute_cycles: int,
                name: str = "") -> LayerMemoryProfile:
        """Walk one layer's tile schedule into a DMA profile.

        Residency against the double-buffered staging capacities decides
        each operand's re-stream multiplicity; per-class DRAM bytes are
        exact; ``memory_cycles`` is the operand-fill bound and
        ``overlapped_cycles`` the per-tile double-buffered timeline.
        """
        with obs_trace.span(name or "memory-walk", "memory"):
            return self._profile_body(traffic, compute_cycles, name)

    def _restreams(self, w_stored, w_passes, a_stored, a_passes):
        """``(weight, activation)`` stream counts of the software-
        scheduled systolic tiling, on Python ints or numpy columns.

        The tiling is free to pick its loop order: as long as one
        operand stays resident in its staging half, the order that
        holds it fetches the other exactly once (strips stream through
        the staging half); only when both overflow must one side
        re-stream, and the scheduler picks whichever loop order moves
        fewer bytes.
        """
        both_overflow = ((w_stored > self.sram.usable_wb)
                         & (a_stored > self.sram.usable_ab))
        w_first = (w_stored * w_passes + a_stored
                   <= a_stored * a_passes + w_stored)
        return (_where(both_overflow, _where(w_first, w_passes, 1), 1),
                _where(both_overflow, _where(w_first, 1, a_passes), 1))

    def _profile_body(self, traffic: LayerTraffic, compute_cycles: int,
                      name: str) -> LayerMemoryProfile:
        w, a = traffic.weights, traffic.acts
        weights_resident = w.stored_bytes <= self.sram.usable_wb
        acts_resident = a.stored_bytes <= self.sram.usable_ab
        # Re-stream multiplicity. Fixed dataflows (SCNN/SparTen/Eyeriss)
        # refill every non-resident operand at its declared pass count —
        # matching their own SRAM accounting; the systolic tiling picks
        # its loop order (:meth:`_restreams`).
        if traffic.fixed_schedule:
            w_streams = 1 if weights_resident else w.passes
            a_streams = 1 if acts_resident else a.passes
        else:
            w_streams, a_streams = self._restreams(
                w.stored_bytes, w.passes, a.stored_bytes, a.passes)
        w_payload = w.payload_bytes * w_streams
        w_meta = w.meta_bytes * w_streams
        a_payload = a.payload_bytes * a_streams
        a_meta = a.meta_bytes * a_streams
        w_total = w_payload + w_meta
        a_total = a_payload + a_meta
        fill_cycles = (self.dram._stream_time(w_total, w_streams)
                       + self.dram._stream_time(a_total, a_streams))

        def walk_timeline(dram=self.dram, w_once=w_streams == 1,
                          a_once=a_streams == 1) -> int:
            reads, writes = _tile_dma_bytes(
                traffic, w_total, a_total,
                weights_once=w_once, acts_once=a_once)
            return _overlapped_cycles(dram, reads, writes, compute_cycles)

        return LayerMemoryProfile(
            name=name,
            weight_bytes=w_payload,
            weight_meta_bytes=w_meta,
            act_bytes=a_payload,
            act_meta_bytes=a_meta,
            out_bytes=traffic.out_bytes,
            weights_resident=weights_resident,
            acts_resident=acts_resident,
            fill_cycles=fill_cycles,
            memory_cycles=int(math.ceil(fill_cycles)),
            compute_cycles=int(compute_cycles),
            _timeline=walk_timeline,
        )
