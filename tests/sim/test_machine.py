"""Unit tests for machine cost parameters."""

import pytest

from repro.sim import IPSC_D7, UNIT_COST, ZERO_STARTUP, MachineParams


class TestSendCost:
    def test_linear_model(self):
        m = MachineParams(tau=2.0, t_c=0.5)
        assert m.send_cost(10) == 2.0 + 5.0
        assert m.send_cost(0) == 2.0  # a header still pays a start-up

    def test_internal_packet_splitting(self):
        m = MachineParams(tau=1.0, t_c=0.0, internal_packet_elems=1024)
        assert m.send_cost(1) == 1.0
        assert m.send_cost(1024) == 1.0
        assert m.send_cost(1025) == 2.0
        assert m.send_cost(4096) == 4.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MachineParams().send_cost(-1)


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            MachineParams(tau=-1)
        with pytest.raises(ValueError):
            MachineParams(t_c=-1)
        for bad in ({"tau": True}, {"t_c": False}):
            with pytest.raises(ValueError):
                MachineParams(**bad)
        for elems in (0, 2.5, float("nan"), True):
            with pytest.raises(ValueError):
                MachineParams(internal_packet_elems=elems)
        with pytest.raises(ValueError):
            MachineParams(overlap=1.0)
        with pytest.raises(ValueError):
            MachineParams(overlap=-0.1)

    @pytest.mark.parametrize("field", ["tau", "t_c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            MachineParams(**{field: value})

    def test_with_overlap(self):
        m = IPSC_D7.with_overlap(0.0)
        assert m.overlap == 0.0
        assert m.tau == IPSC_D7.tau

    def test_ideal(self):
        m = IPSC_D7.ideal()
        assert m.internal_packet_elems is None
        assert m.overlap == 0.0


class TestFromBandwidth:
    def test_ipsc_like_numbers(self):
        m = MachineParams.from_bandwidth(1000.0, 0.4, 1024, overlap=0.2)
        assert m.tau == pytest.approx(1e-3)
        assert m.t_c == pytest.approx(2.5e-6)
        assert m.internal_packet_elems == 1024
        # matches the shipped preset
        assert m.tau == IPSC_D7.tau and m.t_c == IPSC_D7.t_c

    def test_bad_numbers_rejected(self):
        with pytest.raises(ValueError):
            MachineParams.from_bandwidth(0, 1)
        with pytest.raises(ValueError):
            MachineParams.from_bandwidth(1, -2)


class TestPresets:
    def test_ipsc_calibration(self):
        assert IPSC_D7.internal_packet_elems == 1024
        assert IPSC_D7.overlap == pytest.approx(0.20)
        assert IPSC_D7.tau > 100 * IPSC_D7.t_c  # start-up dominated hardware

    def test_unit_and_zero(self):
        assert UNIT_COST.send_cost(3) == 4.0
        assert ZERO_STARTUP.send_cost(3) == 3.0
