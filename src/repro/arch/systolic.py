"""Output-stationary systolic array simulator (scalar PE and tensor PE).

Simulates one GEMM on a systolic array in any of the paper's four
execution modes, producing the cycle count of the output-stationary
schedule and the hardware event counts that drive the energy model. The
bit-exact result matrix is computed only when a caller reads
:attr:`SystolicResult.output`: the full-model pipeline prices events
alone and never pays for the GEMM itself. Tiles of one layer pipeline
back to back, so the wavefront fill/drain skew is paid once per GEMM —
the same convention as the analytic accelerator models, making the two
cycle models bit-equal on matched geometries (the cross-validation
suite asserts exact agreement):

- ``DENSE`` — classic scalar-PE SA (Fig. 6a / TPU-style baseline).
- ``ZVCG`` — scalar-PE SA with zero-value clock gating (Fig. 6b): same
  cycles, gated events on zero operands.
- ``WDBB`` — S2TA-W: a TPE array with DP4M8 datapaths (Fig. 6c)
  consuming 4/8-compressed weights and dense activations; ``BZ/NNZ_w``
  throughput gain.
- ``AWDBB`` — S2TA-AW: the time-unrolled TPE array with DP1M4 datapaths
  (Fig. 6e); activations are DAP-pruned and serialized, so each weight
  block costs ``a_nnz`` cycles and per-layer density is a pure cycle
  knob (speedup ``BZ/a_nnz``).

Both DBB modes also model the hardware's dense-weight fallback (Sec. 4)
for unpruned layers via ``run_gemm(..., w_dense=True)``: ``WDBB`` takes
``ceil(BZ/NNZ)`` passes per uncompressed block, ``AWDBB`` streams
uncompressed weight blocks. Event accounting (operand-register reuse,
accumulator gating, compressed block bytes) matches the analytic
accelerator models in :mod:`repro.accel` term for term, which is what the
functional full-model pipeline cross-validates.

The TPE organization (Sec. 6.1) is parameterized by ``tpe_a`` x ``tpe_c``
(activation blocks x weight blocks per TPE, the outer-product dims); the
scalar-PE baselines are the degenerate 1x1 case. TPE data reuse shows up
as fewer operand-register and accumulator events per MAC — the effect
behind Table 1's buffer-per-MAC comparison.

All event counting is vectorized: the data-dependent fired-MAC counts
reduce to dot products of per-reduction-index non-zero counts (the
bitmask-intersection popcount sum separates per index — see
:mod:`repro.core.reference` for the retained per-block walk they are
fuzz-tested against). Every mode reads those counts, and the DBB block
maxima behind the W-DBB compliance check and DAP's no-op test, from
the operands' :class:`~repro.core.sparsity.GemmOperands` census:
:meth:`SystolicArray.run` takes a census, so the layer runner counts
each operand group once for every mode it runs, while
:meth:`SystolicArray.run_gemm` builds a fresh one per call. A
compliant activation tensor runs as-is: DAP is called only when some
block exceeds the layer's ``a_nnz``. Counting needs no operand
compression in any mode; reading a ``WDBB`` output compresses weights
through the shared :func:`repro.core.gemm.compress_cached` memo, so a
workload swept across modes/density points compresses its weights at
most once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from repro.arch.events import EventCounts
from repro.core.dap import dap_prune
from repro.core.dbb import DBBSpec
from repro.core.gemm import compress_cached, dbb_gemm, dense_gemm
from repro.core.sparsity import GemmOperands, column_nnz

__all__ = ["Mode", "SystolicConfig", "SystolicResult", "SystolicArray"]


class Mode(enum.Enum):
    DENSE = "dense"
    ZVCG = "zvcg"
    WDBB = "wdbb"
    AWDBB = "awdbb"


@dataclass(frozen=True)
class SystolicConfig:
    """Array geometry and execution mode.

    ``rows`` x ``cols`` is the PE/TPE grid (paper: 32x64 scalar baseline,
    8x8 TPEs for S2TA-AW). ``tpe_a``/``tpe_c`` are the per-TPE outer
    product dims (8x4 for the paper's 8x4x4_8x8 design point; must be 1
    for the scalar modes).
    """

    rows: int = 4
    cols: int = 4
    mode: Mode = Mode.DENSE
    w_spec: DBBSpec = DBBSpec(8, 4)
    a_spec: DBBSpec = DBBSpec(8, 4)
    tpe_a: int = 1
    tpe_c: int = 1

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"array dims must be >= 1, got {self.rows}x{self.cols}")
        if self.tpe_a < 1 or self.tpe_c < 1:
            raise ValueError("TPE dims must be >= 1")
        if self.mode in (Mode.DENSE, Mode.ZVCG) and (self.tpe_a, self.tpe_c) != (1, 1):
            raise ValueError(f"{self.mode.value} mode uses scalar PEs (tpe 1x1)")
        if self.mode is Mode.AWDBB and self.w_spec.block_size != self.a_spec.block_size:
            raise ValueError("AWDBB requires matching weight/activation BZ")

    @property
    def eff_rows(self) -> int:
        """Output rows covered per tile (TPE A-dim widens the tile)."""
        return self.rows * self.tpe_a

    @property
    def eff_cols(self) -> int:
        return self.cols * self.tpe_c

    @property
    def hardware_macs(self) -> int:
        """Physical MAC count (Table 4's "Hardware MACs" row)."""
        per_tpe = self.tpe_a * self.tpe_c
        if self.mode is Mode.WDBB:
            per_tpe *= self.w_spec.max_nnz  # DP4M8: NNZ MACs per DP unit
        return self.rows * self.cols * per_tpe


@dataclass
class SystolicResult:
    """Result of one simulated GEMM.

    ``output`` is computed on first read from the operands the array
    executed: ``a`` (``pruned_a`` after DAP in ``AWDBB`` mode, else
    ``operands.a``) and ``w``, both read lazily from the census, so a
    result whose operands were never materialized costs no mask.
    ``w_spec`` is set when the weights run compressed (``WDBB``), whose
    output goes through the DP4M8 kernel on the memoized compressed
    weights.
    """

    cycles: int
    events: EventCounts
    mode: Mode
    operands: GemmOperands = field(repr=False, compare=False)
    w_spec: Optional[DBBSpec] = field(default=None, repr=False,
                                      compare=False)
    pruned_a: Optional[np.ndarray] = field(default=None, repr=False,
                                           compare=False)

    @property
    def a(self) -> np.ndarray:
        """The executed ``A`` (after DAP when it pruned)."""
        return self.operands.a if self.pruned_a is None else self.pruned_a

    @property
    def w(self) -> np.ndarray:
        """The executed ``W``."""
        return self.operands.w

    @cached_property
    def output(self) -> np.ndarray:
        """The bit-exact ``A @ W`` result (int64 accumulation)."""
        if self.w_spec is None:
            return dense_gemm(self.a, self.w)
        # The weight compression memo is shared across the mode/density
        # sweep: every variant of a workload compresses the same W once.
        return dbb_gemm(self.a, compress_cached(self.w.T, self.w_spec))

    @property
    def mac_utilization(self) -> float:
        return self.events.mac_utilization


class SystolicArray:
    """Functional/cycle simulator for one array configuration."""

    def __init__(self, config: SystolicConfig):
        self.config = config

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run_gemm(
        self,
        a: np.ndarray,
        w: np.ndarray,
        a_nnz: Optional[int] = None,
        w_dense: bool = False,
    ) -> SystolicResult:
        """Execute ``C = A @ W`` on the configured array.

        ``a_nnz`` selects the per-layer A-DBB density in ``AWDBB`` mode
        (default: the configured activation spec's bound); the simulator
        applies DAP itself, as the hardware does at the activation-buffer
        write port. In ``WDBB``/``AWDBB`` modes the weights must already
        satisfy the weight spec (statically pruned offline) unless
        ``w_dense`` requests the hardware's dense-weight fallback (Sec. 4,
        used for unpruned layers such as the first conv): ``WDBB`` then
        runs ``ceil(BZ/NNZ)`` passes per block over uncompressed weight
        blocks, and ``AWDBB`` streams uncompressed weight blocks while the
        activation serialization is unchanged.
        """
        return self.run(GemmOperands(a, w), a_nnz=a_nnz, w_dense=w_dense)

    def run(
        self,
        operands: GemmOperands,
        a_nnz: Optional[int] = None,
        w_dense: bool = False,
    ) -> SystolicResult:
        """:meth:`run_gemm` on operands whose non-zero census may
        already be filled by earlier runs (the census is read, never
        reset, so every run on one census sees the same counts)."""
        mode = self.config.mode
        if mode is Mode.DENSE:
            return self._run_scalar(operands, zvcg=False)
        if mode is Mode.ZVCG:
            return self._run_scalar(operands, zvcg=True)
        if mode is Mode.WDBB:
            return self._run_wdbb(operands, w_dense=w_dense)
        return self._run_awdbb(operands, a_nnz, w_dense=w_dense)

    # ------------------------------------------------------------------ #
    # scalar-PE baselines
    # ------------------------------------------------------------------ #

    def _tile_counts(self, m: int, n: int) -> tuple:
        cfg = self.config
        tiles_m = math.ceil(m / cfg.eff_rows)
        tiles_n = math.ceil(n / cfg.eff_cols)
        return tiles_m, tiles_n

    def _skew(self) -> int:
        """Wavefront fill of the output-stationary schedule, in steps."""
        return self.config.rows + self.config.cols - 2

    def _run_scalar(self, operands: GemmOperands, zvcg: bool
                    ) -> SystolicResult:
        cfg = self.config
        m, k, n = operands.m, operands.k, operands.n
        tiles_m, tiles_n = self._tile_counts(m, n)
        tiles = tiles_m * tiles_n
        # Tiles pipeline back to back; the wavefront skew is paid once.
        cycles = tiles * k + self._skew()
        slots = tiles * cfg.rows * cfg.cols * k  # issued MAC slots (padded)
        # useful = sum_{i,j,k} a_nz[i,k] * w_nz[k,j] separates per
        # reduction index into one dot product of non-zero counts — the
        # same collapse the DBB modes use (bit-identical with the m*k*n
        # matmul it replaces, at O(mk + kn) instead of O(mkn)).
        useful = int(operands.a_col_nnz @ operands.w_row_nnz)
        events = EventCounts(cycles=cycles)
        if zvcg:
            events.mac_ops = useful
            events.gated_mac_ops = slots - useful
        else:
            # Dense MACs fire on every real (M, K, N) triple; tile-padding
            # slots carry zero operands and count as gated, matching the
            # analytic DenseSA model.
            dense_macs = m * k * n
            events.mac_ops = dense_macs
            events.gated_mac_ops = slots - dense_macs
        # Operand pipeline registers: one a-hop and one w-hop per slot.
        # ZVCG gates the register when its operand is zero.
        a_hops = slots  # each activation hop feeds exactly one MAC slot
        w_hops = slots
        a_active = operands.a_nonzeros * tiles_n * cfg.cols
        w_active = operands.w_nonzeros * tiles_m * cfg.rows
        if zvcg:
            events.operand_reg_ops = min(a_active, a_hops) + min(w_active, w_hops)
            events.gated_operand_reg_ops = (
                a_hops + w_hops - events.operand_reg_ops
            )
            events.acc_reg_ops = useful
            events.gated_acc_reg_ops = slots - useful
        else:
            events.operand_reg_ops = a_hops + w_hops
            events.acc_reg_ops = slots
        self._add_sram_events(events, m, k, n,
                              a_bytes_per_pass=m * k,
                              w_bytes_per_pass=k * n,
                              tiles_m=tiles_m, tiles_n=tiles_n)
        return SystolicResult(cycles=cycles, events=events, mode=cfg.mode,
                              operands=operands)

    # ------------------------------------------------------------------ #
    # S2TA-W: DP4M8 TPE array, compressed weights, dense activations
    # ------------------------------------------------------------------ #

    def _check_weights(self, operands: GemmOperands) -> None:
        spec = self.config.w_spec
        if operands.w_block_max(spec.block_size) > spec.max_nnz:
            raise ValueError(
                f"weights violate the {spec.ratio} W-DBB bound; run "
                f"prune_weights_dbb first (static offline pruning)"
            )

    def _run_wdbb(self, operands: GemmOperands,
                  w_dense: bool = False) -> SystolicResult:
        cfg = self.config
        spec = cfg.w_spec
        m, k, n = operands.m, operands.k, operands.n
        bz = spec.block_size
        k_blocks = math.ceil(k / bz)
        # Dense-weight fallback (Sec. 4): uncompressed blocks take
        # ceil(BZ/NNZ) passes through the NNZ-wide DP units.
        passes = math.ceil(bz / spec.max_nnz) if w_dense else 1
        if w_dense:
            # Uncompressed block, no positional mask.
            w_hop_block_bytes = w_sram_block_bytes = bz
        else:
            self._check_weights(operands)
            w_hop_block_bytes = spec.max_nnz + int(spec.mask_bytes())
            w_sram_block_bytes = math.ceil(spec.compressed_block_bytes(1))
        tiles_m, tiles_n = self._tile_counts(m, n)
        tiles = tiles_m * tiles_n
        cycles = tiles * k_blocks * passes + self._skew()
        events = EventCounts(cycles=cycles)
        # MAC slots: NNZ per (output, block, pass); padded tiles gate.
        slots = (tiles * cfg.eff_rows * cfg.eff_cols
                 * k_blocks * passes * spec.max_nnz)
        # A MAC fires per (stored non-zero weight, non-zero activation at
        # the matching reduction index). Stored non-zeros of a compressed
        # compliant tensor are exactly the non-zeros of W (and the dense
        # fallback stores every element), so the triple loop over blocks
        # collapses to one dot product of per-index non-zero counts
        # (bit-identical with the per-block walk, see
        # repro.core.reference.naive_wdbb_fired).
        fired = int(operands.a_col_nnz @ operands.w_row_nnz)
        mux = n * k_blocks * passes * spec.max_nnz * m
        events.mac_ops = fired
        events.gated_mac_ops = slots - fired
        events.mux_ops = mux
        # Operand registers with intra-TPE reuse. The dot-product TPE
        # reuses activations less than the time-unrolled one (Sec. 6.1):
        # the dense 8-wide activation block broadcast to the DP4M8 muxes
        # recovers only half of the C-way reuse — mirroring the analytic
        # S2TA-W model.
        a_hops_bytes = tiles_n * cfg.cols * m * k  # dense activations
        w_hops_bytes = tiles_m * cfg.rows * n * k_blocks * w_hop_block_bytes
        events.operand_reg_ops = (a_hops_bytes // max(1, cfg.tpe_c // 2)
                                  + w_hops_bytes // cfg.tpe_a)
        # DP4M8: NNZ MACs reduce through an adder tree into one accumulator
        # update per (output, block pass), gated when no product fired.
        acc_slots = m * n * k_blocks * passes
        events.acc_reg_ops = min(acc_slots, fired)
        events.gated_acc_reg_ops = acc_slots - events.acc_reg_ops
        w_bytes_per_pass = n * k_blocks * w_sram_block_bytes
        self._add_sram_events(events, m, k, n,
                              a_bytes_per_pass=m * k,
                              w_bytes_per_pass=w_bytes_per_pass,
                              tiles_m=tiles_m, tiles_n=tiles_n)
        return SystolicResult(cycles=cycles, events=events, mode=cfg.mode,
                              operands=operands,
                              w_spec=None if w_dense else spec)

    # ------------------------------------------------------------------ #
    # S2TA-AW: time-unrolled DP1M4 TPE array, both operands compressed
    # ------------------------------------------------------------------ #

    def _run_awdbb(self, operands: GemmOperands,
                   a_nnz: Optional[int],
                   w_dense: bool = False) -> SystolicResult:
        cfg = self.config
        w_spec = cfg.w_spec
        if not w_dense:
            self._check_weights(operands)
        a_spec = cfg.a_spec
        nnz_a = a_spec.max_nnz if a_nnz is None else a_nnz
        if not 1 <= nnz_a <= a_spec.block_size:
            raise ValueError(
                f"a_nnz must be in [1, {a_spec.block_size}], got {nnz_a}"
            )
        m, k, n = operands.m, operands.k, operands.n
        bz = a_spec.block_size
        k_blocks = math.ceil(k / bz)
        # DAP at the activation-buffer write port (dense bypass when the
        # layer is tuned to full density). Top-NNZ keeps every non-zero
        # of a block holding at most NNZ, so a compliant A runs as-is.
        if nnz_a < bz and operands.a_block_max(bz) > nnz_a:
            a_pruned = dap_prune(operands.a, a_spec, nnz=nnz_a).pruned
            a_nz_cols = column_nnz(a_pruned)
        else:
            a_pruned = None
            a_nz_cols = operands.a_col_nnz
        tiles_m, tiles_n = self._tile_counts(m, n)
        tiles = tiles_m * tiles_n
        steps_per_block = nnz_a if nnz_a < bz else bz
        cycles = (tiles * k_blocks + self._skew()) * steps_per_block
        events = EventCounts(cycles=cycles)
        # Every DP1M4 issues one MAC slot per cycle of every block.
        slots = tiles * cfg.eff_rows * cfg.eff_cols * k_blocks * steps_per_block
        # Fired when the weight bitmask matches the streamed activation:
        # summing popcount(a_mask & w_mask) over every (row, col, block)
        # triple. Bitmask bit i of block b is exactly "element b*BZ+i is
        # non-zero", so the triple sum separates per reduction index into
        # one dot product of non-zero counts — no compression needed and
        # bit-identical with the per-block mask walk (see
        # repro.core.reference.naive_awdbb_fired). The dense bypass
        # (nnz_a == BZ) reduces to the same formula.
        fired = int(a_nz_cols @ operands.w_row_nnz)
        events.mac_ops = fired
        events.gated_mac_ops = slots - fired
        events.mux_ops = m * n * k_blocks * steps_per_block
        # Compressed operand hops with intra-TPE reuse. Dense bypass /
        # fallback streams uncompressed blocks with no positional mask.
        if steps_per_block < bz:
            a_block_bytes = steps_per_block + int(a_spec.mask_bytes())
        else:
            a_block_bytes = bz
        if w_dense:
            w_block_bytes = bz
        else:
            w_block_bytes = w_spec.max_nnz + int(w_spec.mask_bytes())
        a_hops_bytes = tiles_n * cfg.cols * m * k_blocks * a_block_bytes
        w_hops_bytes = tiles_m * cfg.rows * n * k_blocks * w_block_bytes
        # The serialized activation element broadcasts across the TPE's C
        # weight columns; beyond the DP1M4 mux width the broadcast needs
        # repeater stages, capping the free reuse at the mux width
        # (mirroring the analytic S2TA-AW model).
        a_reuse = max(1, min(cfg.tpe_c, w_spec.max_nnz))
        events.operand_reg_ops = (
            a_hops_bytes // a_reuse + w_hops_bytes // cfg.tpe_a
        )
        # DP1M4: one accumulator RMW per streamed cycle, gated on miss.
        acc_slots = m * n * k_blocks * steps_per_block
        events.acc_reg_ops = min(acc_slots, fired)
        events.gated_acc_reg_ops = acc_slots - events.acc_reg_ops
        # DAP array cost: once per unique activation block written to AB.
        if nnz_a < bz:
            unique_blocks = m * k_blocks
            events.dap_compare_ops = unique_blocks * (bz - 1) * nnz_a
        a_bytes_per_pass = m * k_blocks * a_block_bytes
        w_bytes_per_pass = n * k_blocks * w_block_bytes
        self._add_sram_events(events, m, k, n,
                              a_bytes_per_pass=a_bytes_per_pass,
                              w_bytes_per_pass=w_bytes_per_pass,
                              tiles_m=tiles_m, tiles_n=tiles_n,
                              # Activations land in the AB through the DAP
                              # write port in compressed block form.
                              a_write_bytes=a_bytes_per_pass)
        return SystolicResult(cycles=cycles, events=events, mode=cfg.mode,
                              operands=operands, pruned_a=a_pruned)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _add_sram_events(events: EventCounts, m: int, k: int, n: int,
                         a_bytes_per_pass: int, w_bytes_per_pass: int,
                         tiles_m: int, tiles_n: int,
                         a_write_bytes: Optional[int] = None) -> None:
        """Output-stationary SRAM traffic: operands re-read per tile pass,
        results written once (``a_write_bytes`` overrides the dense INT8
        default for compressed activation-buffer write ports), one MCU
        post-op per output element."""
        events.sram_a_read_bytes += a_bytes_per_pass * tiles_n
        events.sram_w_read_bytes += w_bytes_per_pass * tiles_m
        events.sram_a_write_bytes += (m * n if a_write_bytes is None
                                      else a_write_bytes)
        events.mcu_elementwise_ops += m * n
