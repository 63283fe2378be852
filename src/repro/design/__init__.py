"""Design-space exploration — the paper's RTL-generator methodology.

Sec. 7: "we implement a parameterized Python RTL generator to explore
the full design space, defined by five main parameters: the three TPE
dimensions (A, B, C) and the dimension of the entire SA (M, N)". This
package reproduces that flow in model form:

- :mod:`repro.design.space`: enumerate ``AxBxC_MxN`` design points under
  the 4 TOPS peak-throughput constraint, evaluate PPA for each, extract
  the area-vs-power Pareto frontier, and select the lowest-power point —
  which the paper (and this model) finds to be the time-unrolled
  8x4x4_8x8 outer-product TPE.
- :mod:`repro.design.rtlgen`: emit the structural netlist summary
  (module hierarchy with port widths) a given design point would
  generate — the artifact the paper's generator hands to the EDA flow.
- :mod:`repro.design.dse`: widen the Sec. 7 sweep to the full
  ``AxBxC_MxN`` x (A-DBB bound, SRAM size, DRAM bandwidth, tech)
  keyspace, evaluate every point (in closed form, as arrays, one pass
  per datapath style and tech node, or through the memoized runner at
  functional fidelity) and take the (energy x cycles x area) Pareto
  frontier (the ``repro dse`` CLI).
"""

from repro._lazy import lazy_exports
from repro.design.dse import (
    DSEAxes,
    DSEEvaluation,
    DSEPoint,
    DSESpace,
    pareto_frontier_3d,
    run_dse,
)
from repro.design.space import (
    DesignPoint,
    enumerate_design_space,
    evaluate_point,
    pareto_frontier,
    select_lowest_power,
)

__all__ = [
    "DesignPoint",
    "enumerate_design_space",
    "evaluate_point",
    "pareto_frontier",
    "select_lowest_power",
    "generate_structure",
    "DSEAxes",
    "DSEPoint",
    "DSEEvaluation",
    "DSESpace",
    "pareto_frontier_3d",
    "run_dse",
]

# Not on an artifact run's path: each module loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "generate_structure": "rtlgen",
})
