"""Tests for the hardware event counter bundle."""

import pytest

from repro.arch.events import EventCounts


class TestEventCounts:
    def test_add(self):
        a = EventCounts(mac_ops=3, cycles=10)
        b = EventCounts(mac_ops=4, sram_w_read_bytes=8)
        c = a + b
        assert c.mac_ops == 7
        assert c.cycles == 10
        assert c.sram_w_read_bytes == 8

    def test_iadd(self):
        a = EventCounts(mac_ops=1)
        a += EventCounts(mac_ops=2, gated_mac_ops=5)
        assert a.mac_ops == 3
        assert a.gated_mac_ops == 5

    def test_add_type_error(self):
        with pytest.raises(TypeError):
            EventCounts() + 3

    def test_utilization(self):
        e = EventCounts(mac_ops=3, gated_mac_ops=1)
        assert e.total_mac_slots == 4
        assert e.mac_utilization == 0.75
        assert EventCounts().mac_utilization == 0.0

    def test_as_dict_roundtrip(self):
        e = EventCounts(mac_ops=2, fifo_push_ops=7)
        d = e.as_dict()
        assert d["mac_ops"] == 2
        assert EventCounts(**d) == e
