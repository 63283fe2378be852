"""Microarchitecture models.

Cycle-level functional models of the paper's hardware building blocks:

- :mod:`repro.arch.events`: hardware event counters shared by every model
  (the energy model charges per event).
- :mod:`repro.arch.datapath`: the Fig. 6 datapath family — DP8, DP8+ZVCG,
  DP4M8 (W-DBB), DP4M4 (fixed joint DBB) and the time-unrolled DP1M4.
- :mod:`repro.arch.dap_hw`: the cascaded magnitude-maxpool DAP array
  (Fig. 8), bit-exact with the algorithmic DAP.
- :mod:`repro.arch.smt`: the SA-SMT staging-FIFO queueing simulator.
- :mod:`repro.arch.systolic`: output-stationary systolic array simulator
  for the scalar-PE baselines and the S2TA tensor-PE variants.
- :mod:`repro.arch.sparten`: SparTen's bitmask inner-join PE array with
  greedy (LPT) filter scheduling.
- :mod:`repro.arch.eyeriss`: Eyeriss v2's CSC row-stationary PE mesh
  with hierarchical cluster occupancy.
- :mod:`repro.arch.scnn`: SCNN's Cartesian-product PEs with the
  result-scatter crossbar.
- :mod:`repro.arch.memory`: the memory hierarchy — DRAM channel
  (bandwidth, burst granule), double-buffered SRAM staging, each
  layer's per-operand-class DRAM bytes and fill time, and the
  tile-schedule DMA walker behind the roofline artifacts. The dataflows
  accumulate on chip, so no partial sum spills to DRAM.
"""

from repro._lazy import lazy_exports
from repro.arch.events import EventCounts
from repro.arch.eyeriss import EyerissV2Config, EyerissV2Engine, EyerissV2Result
from repro.arch.memory import (
    DRAMConfig,
    LayerMemoryProfile,
    LayerTraffic,
    MemorySystem,
    OperandStream,
    SRAMStaging,
)
from repro.arch.scnn import SCNNConfig, SCNNEngine, SCNNResult
from repro.arch.smt import SMTArrayModel, SMTResult
from repro.arch.sparten import SparTenConfig, SparTenEngine, SparTenResult
from repro.arch.systolic import SystolicArray, SystolicConfig, SystolicResult

__all__ = [
    "EventCounts",
    "DRAMConfig",
    "SRAMStaging",
    "MemorySystem",
    "OperandStream",
    "LayerTraffic",
    "LayerMemoryProfile",
    "dp8_dense",
    "dp4m8_block",
    "dp4m4_block",
    "dp1m4_block",
    "DAPHardware",
    "SMTArrayModel",
    "SMTResult",
    "SystolicArray",
    "SystolicConfig",
    "SystolicResult",
    "SparTenConfig",
    "SparTenEngine",
    "SparTenResult",
    "EyerissV2Config",
    "EyerissV2Engine",
    "EyerissV2Result",
    "SCNNConfig",
    "SCNNEngine",
    "SCNNResult",
    "TensorPE",
]

# Not on an artifact run's path: each module loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "dp8_dense": "datapath",
    "dp4m8_block": "datapath",
    "dp4m4_block": "datapath",
    "dp1m4_block": "datapath",
    "DAPHardware": "dap_hw",
    "TensorPE": "tpe",
})
