"""Energy and area models.

Event-based costing: the microarchitecture models (:mod:`repro.arch`,
:mod:`repro.accel`) count hardware events; this package prices them.

- :mod:`repro.energy.tech`: technology nodes (16 nm, 65 nm, 45 nm) with
  energy/area/frequency scale factors.
- :mod:`repro.energy.costs`: per-event energy and per-structure area
  constants in 16 nm, calibrated to the paper's published breakdowns
  (Fig. 1, Table 1, Table 2; the module docstring gives the derivation).
- :mod:`repro.energy.model`: converts :class:`~repro.arch.events.EventCounts`
  into a per-component energy breakdown, and structural parameters into
  area.
"""

from repro.energy.costs import CostModel, DEFAULT_COSTS
from repro.energy.model import AreaModel, EnergyBreakdown, EnergyModel
from repro.energy.tech import TECH_NODES, TechNode, get_tech

__all__ = [
    "TechNode",
    "TECH_NODES",
    "get_tech",
    "CostModel",
    "DEFAULT_COSTS",
    "EnergyModel",
    "EnergyBreakdown",
    "AreaModel",
]
