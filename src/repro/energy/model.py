"""Event-to-energy conversion and structural area model.

:class:`EnergyModel` turns an :class:`~repro.arch.events.EventCounts`
into a per-component :class:`EnergyBreakdown` using a :class:`CostModel`
and a :class:`~repro.energy.tech.TechNode`. Components follow the
paper's figures: ``datapath`` (MAC + muxes), ``buffers`` (operand/acc
registers, FIFOs, scatter accumulators), ``sram``, ``dap`` and
``actfn`` (the MCU cluster's background power times runtime).

The ``dram`` component prices off-chip traffic from the
memory-hierarchy model (:mod:`repro.arch.memory`). The paper's energy
comparisons are die-only, so ``dram`` is reported *beside* the
calibrated on-chip totals: ``total_pj`` stays on-chip (keeping every
published ratio intact) and ``total_with_dram_pj`` adds the off-chip
interface on top. DRAM energy does not scale with the logic node.

:class:`AreaModel` prices a design's structural parameters (MAC count,
per-MAC buffer bytes, SRAM capacity, MCUs, DAP) in mm².
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.arch.events import EventCounts
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.energy.tech import TechNode, get_tech

__all__ = ["EnergyBreakdown", "EnergyModel", "AreaModel"]

COMPONENTS = ("datapath", "buffers", "sram", "dap", "actfn")


@dataclass
class EnergyBreakdown:
    """Energy per component, in picojoules."""

    datapath: float = 0.0
    buffers: float = 0.0
    sram: float = 0.0
    dap: float = 0.0
    actfn: float = 0.0
    # Off-chip DRAM interface — reported beside the on-chip total, not
    # inside it (the paper's comparisons are die-only).
    dram: float = 0.0

    @property
    def total_pj(self) -> float:
        """On-chip (die) total — the paper-calibrated quantity."""
        return self.datapath + self.buffers + self.sram + self.dap + self.actfn

    @property
    def total_with_dram_pj(self) -> float:
        """On-chip total plus the off-chip DRAM interface."""
        return self.total_pj + self.dram

    @property
    def total_uj(self) -> float:
        return self.total_pj * 1e-6

    def fractions(self) -> Dict[str, float]:
        """Per-component share of the total (Fig. 1-style breakdown)."""
        total = self.total_pj
        if total <= 0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: getattr(self, name) / total for name in COMPONENTS}

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        if not isinstance(other, EnergyBreakdown):
            return NotImplemented
        return EnergyBreakdown(
            datapath=self.datapath + other.datapath,
            buffers=self.buffers + other.buffers,
            sram=self.sram + other.sram,
            dap=self.dap + other.dap,
            actfn=self.actfn + other.actfn,
            dram=self.dram + other.dram,
        )


class EnergyModel:
    """Prices event counts at a technology node."""

    def __init__(self, tech: str = "16nm", costs: CostModel = DEFAULT_COSTS):
        self.tech: TechNode = get_tech(tech) if isinstance(tech, str) else tech
        self.costs = costs

    def breakdown(self, events: EventCounts) -> EnergyBreakdown:
        """Convert events into a per-component energy breakdown (pJ)."""
        c = self.costs
        datapath = (
            events.mac_ops * c.mac_pj
            + events.gated_mac_ops * c.gated_mac_pj
            + events.mux_ops * c.mux_pj
        )
        buffers = (
            events.operand_reg_ops * c.operand_reg_pj
            + events.gated_operand_reg_ops * c.gated_operand_reg_pj
            + events.acc_reg_ops * c.acc_reg_pj
            + events.gated_acc_reg_ops * c.gated_acc_reg_pj
            + (events.fifo_push_ops + events.fifo_pop_ops) * c.fifo_op_pj
            + events.gather_ops * c.gather_op_pj
            + events.scatter_acc_ops * c.scatter_acc_pj
        )
        sram = (
            events.sram_a_read_bytes * c.sram_ab_read_pj
            + events.sram_w_read_bytes * c.sram_wb_read_pj
            + events.sram_a_write_bytes * c.sram_ab_write_pj
        )
        dap = events.dap_compare_ops * c.dap_compare_pj
        # Off-chip traffic: per byte over the channel; the DRAM interface
        # is its own process, so no logic-node scaling.
        dram = (events.dram_read_bytes
                + events.dram_write_bytes) * c.dram_pj_per_byte
        # The MCU cluster runs for the whole layer (activation functions,
        # pooling, requant, DMA control): background power x runtime, so
        # speedup directly shrinks this component.
        actfn = events.cycles * c.mcu_cluster_pj_per_cycle
        scale = self.tech.energy_scale
        return EnergyBreakdown(
            datapath=datapath * scale,
            buffers=buffers * scale,
            sram=sram * scale,
            dap=dap * scale,
            actfn=actfn * scale,
            dram=dram,
        )

    def total_pj(self, events: EventCounts) -> float:
        return self.breakdown(events).total_pj

    def energy_per_mac_pj(self, events: EventCounts) -> float:
        """Effective energy per issued MAC slot (the paper's per-MAC metric)."""
        slots = events.total_mac_slots
        return self.breakdown(events).total_pj / slots if slots else 0.0

    def runtime_s(self, cycles: int) -> float:
        return cycles * self.tech.cycle_time_ns * 1e-9

    def average_power_w(self, events: EventCounts) -> float:
        """Average power over the run (energy / runtime)."""
        if events.cycles <= 0:
            return 0.0
        return self.total_pj(events) * 1e-12 / self.runtime_s(events.cycles)


@dataclass
class AreaModel:
    """Structural area model (fitted to Table 4 via Table 1, 16 nm).

    ``buffer_bytes_per_mac`` is the Table 1 metric: total PE-array buffer
    storage (operands + accumulators + FIFOs) per hardware MAC.
    """

    macs: int
    buffer_bytes_per_mac: float
    sram_mb: float = 2.5
    mcus: int = 4
    has_dap: bool = False
    tech: str = "16nm"
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    def __post_init__(self) -> None:
        if self.macs < 1:
            raise ValueError(f"macs must be >= 1, got {self.macs}")
        if self.buffer_bytes_per_mac < 0 or self.sram_mb < 0:
            raise ValueError("storage parameters must be non-negative")

    @property
    def pe_array_mm2(self) -> float:
        c = self.costs
        per_mac = c.mac_area_um2 + self.buffer_bytes_per_mac * c.buffer_area_um2_per_byte
        return self.macs * per_mac * 1e-6

    @property
    def sram_mm2(self) -> float:
        return self.sram_mb * self.costs.sram_area_mm2_per_mb

    @property
    def mcu_mm2(self) -> float:
        return self.mcus * self.costs.mcu_area_mm2

    @property
    def dap_mm2(self) -> float:
        return self.costs.dap_area_mm2 if self.has_dap else 0.0

    @property
    def total_mm2(self) -> float:
        node = get_tech(self.tech)
        base = self.pe_array_mm2 + self.sram_mm2 + self.mcu_mm2 + self.dap_mm2
        return base * node.area_scale

    def breakdown_mm2(self) -> Dict[str, float]:
        node = get_tech(self.tech)
        return {
            "pe_array": self.pe_array_mm2 * node.area_scale,
            "sram": self.sram_mm2 * node.area_scale,
            "mcu": self.mcu_mm2 * node.area_scale,
            "dap": self.dap_mm2 * node.area_scale,
        }
