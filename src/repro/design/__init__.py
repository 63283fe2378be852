"""Design-space exploration — the paper's RTL-generator methodology.

Sec. 7: "we implement a parameterized Python RTL generator to explore
the full design space, defined by five main parameters: the three TPE
dimensions (A, B, C) and the dimension of the entire SA (M, N)". This
package reproduces that flow in model form:

- :mod:`repro.design.space`: enumerate ``AxBxC_MxN`` design points under
  the 4 TOPS peak-throughput constraint.
- :mod:`repro.design.rtlgen`: emit the structural netlist summary
  (module hierarchy with port widths) a given design point would
  generate — the artifact the paper's generator hands to the EDA flow.
- :mod:`repro.design.dse`: the ``AxBxC_MxN`` x (A-DBB bound, SRAM size,
  DRAM bandwidth, tech) keyspace: evaluate every point (in closed form,
  as arrays, one pass per datapath style and tech node, or through the
  memoized runner at functional fidelity) and take the (energy x cycles
  x area) Pareto frontier (the ``repro dse`` CLI). Sec. 7 is its
  one-value-per-axis slice ``SEC7_AXES``: the area-vs-power frontier of
  those points and the lowest-power pick, which the paper (and this
  model) finds to be the time-unrolled 8x4x4 outer-product TPE.
"""

from repro._lazy import lazy_exports
from repro.design.dse import (
    SEC7_AXES,
    SEC7_OBJECTIVES,
    DSEAxes,
    DSEEvaluation,
    DSEPoint,
    DSESpace,
    pareto_frontier,
    pareto_frontier_3d,
    run_dse,
    select_lowest_power,
)
from repro.design.space import DesignPoint, enumerate_design_space

__all__ = [
    "DesignPoint",
    "enumerate_design_space",
    "generate_structure",
    "DSEAxes",
    "DSEPoint",
    "DSEEvaluation",
    "DSESpace",
    "SEC7_AXES",
    "SEC7_OBJECTIVES",
    "pareto_frontier",
    "pareto_frontier_3d",
    "select_lowest_power",
    "run_dse",
]

# Not on an artifact run's path: each module loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "generate_structure": "rtlgen",
})
