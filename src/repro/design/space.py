"""AxBxC_MxN design-space enumeration (Sec. 7).

A design point fixes the TPE outer-product dims (A, C), the array grid
(M, N) and the datapath style (time-unrolled DP1M4 vs dot-product
DP4M8, i.e. B=4 weight NNZ in both cases). The paper constrains the
space to 4 TOPS peak dense throughput (2048 MACs at 1 GHz in 16 nm),
sweeps, keeps the area-vs-power frontier, and picks the lowest-power
point: the time-unrolled 8x4x4_8x8. The sweep itself is a slice of the
DSE keyspace (:mod:`repro.design.dse`), priced and ranked there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.accel.s2ta import S2TAAW, S2TAW

__all__ = ["DesignPoint", "enumerate_design_space", "TARGET_MACS"]

# 4 TOPS peak dense at 1 GHz (2 ops/MAC) = 2048 MACs.
TARGET_MACS = 2048

_GRID_DIMS = (1, 2, 4, 8, 16, 32, 64, 128)
_TPE_DIMS = (1, 2, 4, 8, 16)
# Bound on the array and TPE aspect ratios: extremely skewed arrays
# would not close timing (the paper notes larger TPEs marginally reduce
# clock frequency).
_MAX_ASPECT = 4.0


@dataclass(frozen=True)
class DesignPoint:
    """One AxBxC_MxN configuration."""

    tpe_a: int
    tpe_c: int
    rows: int
    cols: int
    time_unrolled: bool = True  # DP1M4 (else dot-product DP4M8)
    weight_nnz: int = 4         # B

    @property
    def notation(self) -> str:
        """The paper's AxBxC_MxN notation."""
        return (f"{self.tpe_a}x{self.weight_nnz}x{self.tpe_c}"
                f"_{self.rows}x{self.cols}")

    @property
    def hardware_macs(self) -> int:
        per_tpe = self.tpe_a * self.tpe_c
        if not self.time_unrolled:
            per_tpe *= self.weight_nnz
        return self.rows * self.cols * per_tpe

    @property
    def clock_ghz(self) -> float:
        """Achievable clock: larger TPEs lengthen the operand broadcast
        and reduction paths, "marginally reducing clock frequency"
        (Sec. 6.1). ~4% derate per TPE dim step beyond the paper's
        8+4 design point."""
        excess = max(0, self.tpe_a + self.tpe_c - 12)
        return 1.0 / (1.0 + 0.04 * excess)

    @property
    def peak_tops(self) -> float:
        """Peak dense throughput at the achievable clock."""
        return 2.0 * self.hardware_macs * self.clock_ghz / 1e3

    @property
    def meets_throughput(self) -> bool:
        """The paper's hard constraint: 4 TOPS peak dense (Sec. 7)."""
        return self.peak_tops >= 4.0 - 1e-9

    def build(self, tech: str = "16nm", **kwargs):
        """Instantiate the accelerator model for this point.

        Extra keyword arguments (``costs``, ``dram_gbps``, ...) pass
        through to the accelerator constructor — the DSE engine uses
        this to sweep the memory-system axes around a design point.
        """
        if self.time_unrolled:
            return S2TAAW(tech=tech, rows=self.rows, cols=self.cols,
                          tpe_a=self.tpe_a, tpe_c=self.tpe_c,
                          w_nnz_hw=self.weight_nnz, **kwargs)
        return S2TAW(tech=tech, rows=self.rows, cols=self.cols,
                     tpe_a=self.tpe_a, tpe_c=self.tpe_c,
                     datapath_nnz=self.weight_nnz, **kwargs)


def enumerate_design_space(time_unrolled: bool = True,
                           weight_nnz: int = 4) -> Iterator[DesignPoint]:
    """All configurations hitting the MAC budget exactly, within the
    aspect-ratio bound.

    ``weight_nnz`` is the DBB weight bound B: time-unrolled datapaths
    serialize it (one MAC per DP unit regardless of B), dot-product
    datapaths instantiate B MACs per unit (DP4M8 at the default B=4).
    """
    mac_multiplier = 1 if time_unrolled else weight_nnz
    for tpe_a in _TPE_DIMS:
        for tpe_c in _TPE_DIMS:
            per_tpe = tpe_a * tpe_c * mac_multiplier
            if TARGET_MACS % per_tpe:
                continue
            grid = TARGET_MACS // per_tpe
            for rows in _GRID_DIMS:
                if grid % rows:
                    continue
                cols = grid // rows
                if cols not in _GRID_DIMS:
                    continue
                if max(rows / cols, cols / rows) > _MAX_ASPECT:
                    continue
                if tpe_a > 1 and tpe_c > 1:
                    if max(tpe_a / tpe_c, tpe_c / tpe_a) > _MAX_ASPECT:
                        continue
                point = DesignPoint(tpe_a=tpe_a, tpe_c=tpe_c,
                                    rows=rows, cols=cols,
                                    time_unrolled=time_unrolled,
                                    weight_nnz=weight_nnz)
                if point.meets_throughput:
                    yield point
