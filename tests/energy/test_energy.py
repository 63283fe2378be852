"""Tests for technology scaling, cost constants and the energy/area model."""

import pytest

from repro.arch.events import EventCounts
from repro.energy import (
    DEFAULT_COSTS,
    AreaModel,
    CostModel,
    EnergyModel,
    get_tech,
)
from repro.energy.model import EnergyBreakdown


class TestTech:
    def test_nodes_present(self):
        assert get_tech("16nm").energy_scale == 1.0
        assert get_tech("65nm").energy_scale > 1.0
        assert get_tech("45nm").energy_scale > 1.0

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            get_tech("7nm")

    def test_clock_ordering(self):
        # Older nodes clock slower.
        assert get_tech("16nm").clock_ghz > get_tech("65nm").clock_ghz

    def test_cycle_time(self):
        assert get_tech("65nm").cycle_time_ns == pytest.approx(2.0)


class TestCostModel:
    def test_default_valid(self):
        assert DEFAULT_COSTS.mac_pj > 0

    def test_gated_must_be_cheaper(self):
        with pytest.raises(ValueError):
            CostModel(mac_pj=0.05, gated_mac_pj=0.06)
        with pytest.raises(ValueError):
            CostModel(operand_reg_pj=0.03, gated_operand_reg_pj=0.04)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            CostModel(mac_pj=0.0, gated_mac_pj=0.0)


class TestEnergyBreakdown:
    def test_total_and_fractions(self):
        b = EnergyBreakdown(datapath=20, buffers=49, sram=21, actfn=10)
        assert b.total_pj == 100
        fracs = b.fractions()
        assert fracs["buffers"] == pytest.approx(0.49)
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_empty_fractions(self):
        assert EnergyBreakdown().fractions()["sram"] == 0.0

    def test_add_and_scale(self):
        a = EnergyBreakdown(datapath=1, sram=2)
        b = EnergyBreakdown(datapath=3, dap=1)
        c = a + b
        assert c.datapath == 4
        assert c.sram == 2
        assert c.dap == 1


class TestEnergyModel:
    def test_tech_scaling_multiplies_everything(self):
        events = EventCounts(mac_ops=1000, operand_reg_ops=2000,
                             sram_a_read_bytes=500, cycles=100)
        e16 = EnergyModel("16nm").total_pj(events)
        e65 = EnergyModel("65nm").total_pj(events)
        assert e65 == pytest.approx(e16 * get_tech("65nm").energy_scale)

    def test_gated_events_cheaper(self):
        model = EnergyModel()
        active = EventCounts(mac_ops=1000)
        gated = EventCounts(gated_mac_ops=1000)
        assert model.total_pj(gated) < model.total_pj(active)

    def test_actfn_charged_per_cycle(self):
        model = EnergyModel()
        short = model.breakdown(EventCounts(cycles=100))
        long = model.breakdown(EventCounts(cycles=200))
        assert long.actfn == pytest.approx(2 * short.actfn)
        assert short.datapath == 0.0

    def test_energy_per_mac(self):
        model = EnergyModel()
        events = EventCounts(mac_ops=50, gated_mac_ops=50)
        per_mac = model.energy_per_mac_pj(events)
        assert per_mac == pytest.approx(
            (50 * DEFAULT_COSTS.mac_pj + 50 * DEFAULT_COSTS.gated_mac_pj) / 100
        )

    def test_average_power(self):
        model = EnergyModel("16nm")
        events = EventCounts(mac_ops=1_000_000, cycles=1000)
        # 1000 cycles @ 1 GHz = 1 us
        expected_w = model.total_pj(events) * 1e-12 / 1e-6
        assert model.average_power_w(events) == pytest.approx(expected_w)

    def test_zero_cycles_power(self):
        assert EnergyModel().average_power_w(EventCounts()) == 0.0


class TestAreaModel:
    def test_table4_sa_zvcg_area(self):
        # 2048 MACs, 6 B/MAC buffers, 2.5 MB SRAM, 4 MCUs -> ~3.7 mm^2.
        area = AreaModel(macs=2048, buffer_bytes_per_mac=6.0)
        assert area.total_mm2 == pytest.approx(3.7, abs=0.15)

    def test_table4_s2ta_aw_area(self):
        area = AreaModel(macs=2048, buffer_bytes_per_mac=4.75, has_dap=True)
        assert area.total_mm2 == pytest.approx(3.8, abs=0.25)

    def test_smt_buffers_cost_area(self):
        sa = AreaModel(macs=2048, buffer_bytes_per_mac=6.0)
        smt = AreaModel(macs=2048, buffer_bytes_per_mac=20.0)
        assert smt.total_mm2 > sa.total_mm2 + 0.3

    def test_tech_scaling(self):
        a16 = AreaModel(macs=2048, buffer_bytes_per_mac=6.0, tech="16nm")
        a65 = AreaModel(macs=2048, buffer_bytes_per_mac=6.0, tech="65nm")
        assert a65.total_mm2 == pytest.approx(a16.total_mm2 * 9.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AreaModel(macs=0, buffer_bytes_per_mac=1.0)
        with pytest.raises(ValueError):
            AreaModel(macs=1, buffer_bytes_per_mac=-1.0)

    def test_breakdown_sums_to_total(self):
        area = AreaModel(macs=2048, buffer_bytes_per_mac=4.75, has_dap=True)
        assert sum(area.breakdown_mm2().values()) == pytest.approx(area.total_mm2)
