"""Hardware event counters.

Every microarchitecture model in :mod:`repro.arch` produces an
:class:`EventCounts`; the energy model (:mod:`repro.energy`) converts
events into joules with per-event costs. Keeping events and costs separate
is what lets one functional simulation be re-priced across technology
nodes (16 nm vs 65 nm) and across calibrations.

Units: ``*_ops`` are operation counts, ``*_bytes`` are byte counts,
``cycles`` are clock cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["EventCounts"]


@dataclass
class EventCounts:
    """Counter bundle for one simulated execution."""

    # Datapath
    mac_ops: int = 0            # INT8 multiply-accumulates that fired
    gated_mac_ops: int = 0      # MAC slots clock-gated (zero operand / mask miss)
    mux_ops: int = 0            # DBB steering-mux selections (Fig. 6c/e)
    # PE-array buffers (the Fig. 1 "buffers" component)
    operand_reg_ops: int = 0    # 8-bit operand pipeline register read+write
    gated_operand_reg_ops: int = 0  # operand register events gated by ZVCG
    acc_reg_ops: int = 0        # 32-bit accumulator read-modify-write
    gated_acc_reg_ops: int = 0  # accumulator slots gated (no product)
    fifo_push_ops: int = 0      # SMT staging FIFO pushes
    fifo_pop_ops: int = 0       # SMT staging FIFO pops
    gather_ops: int = 0         # non-zero matching / operand gather steps
    scatter_acc_ops: int = 0    # outer-product distributed accumulator RMW
    # SRAM traffic
    sram_w_read_bytes: int = 0
    sram_a_read_bytes: int = 0
    sram_a_write_bytes: int = 0
    # Off-chip (DRAM) traffic, from the memory-hierarchy model
    # (:mod:`repro.arch.memory`): operand fills and result write-back.
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    # DAP array
    dap_compare_ops: int = 0    # magnitude comparators in the maxpool cascade
    # Non-GEMM work delegated to the MCU cluster (per output element)
    mcu_elementwise_ops: int = 0
    # Time
    cycles: int = 0

    def __add__(self, other: "EventCounts") -> "EventCounts":
        if not isinstance(other, EventCounts):
            return NotImplemented
        merged = {}
        for f in fields(self):
            merged[f.name] = getattr(self, f.name) + getattr(other, f.name)
        return EventCounts(**merged)

    def __iadd__(self, other: "EventCounts") -> "EventCounts":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def total_mac_slots(self) -> int:
        """Fired plus gated MAC issue slots (utilization denominator)."""
        return self.mac_ops + self.gated_mac_ops

    @property
    def mac_utilization(self) -> float:
        """Fraction of issued MAC slots that did useful work."""
        total = self.total_mac_slots
        return self.mac_ops / total if total else 0.0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
