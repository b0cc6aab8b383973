"""Cross-cutting invariants that must hold across the whole system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SensorKind, SensorReading, WiLEDevice, WiLEReceiver
from repro.dot11.airtime import frame_airtime_us
from repro.dot11.rates import ALL_RATES, OFDM_24
from repro.sim import Position, Simulator, WirelessMedium


class TestMediumConservation:
    def run_fleet(self, device_count, interval_s=2.0, horizon_s=12.0):
        sim = Simulator()
        medium = WirelessMedium(sim)
        receiver = WiLEReceiver(sim, medium, position=Position(5, 5))
        devices = []
        for index in range(device_count):
            device = WiLEDevice(sim, medium, device_id=index + 1,
                                position=Position(index % 3, index // 3))
            device.start(interval_s, lambda: (
                SensorReading(SensorKind.COUNTER, 1),),
                first_wake_s=0.3 * (index + 1))
            devices.append(device)
        sim.run(until_s=horizon_s)
        return medium, devices, receiver

    @pytest.mark.parametrize("device_count", [1, 3, 6])
    def test_outcomes_bounded_by_transmissions(self, device_count):
        medium, devices, _receiver = self.run_fleet(device_count)
        transmitted = medium.frames_transmitted
        outcomes = (medium.frames_delivered + medium.frames_lost_collision
                    + medium.frames_lost_snr)
        # Each frame is judged at most once per listening radio; there
        # are (device_count + 1 sniffer) radios, and the sender never
        # hears itself.
        assert transmitted == sum(len(device.transmissions)
                                  for device in devices)
        assert outcomes <= transmitted * device_count  # sniffer + others - 1

    def test_receiver_never_decodes_more_than_sent(self):
        medium, devices, receiver = self.run_fleet(4)
        sent = sum(len(device.transmissions) for device in devices)
        assert receiver.stats.decoded + receiver.stats.duplicates <= sent


class TestEnergyIdentities:
    def test_energy_is_voltage_times_charge(self):
        from repro.scenarios import run_all_scenarios
        for name, result in run_all_scenarios().items():
            if result.trace is None:
                continue
            assert result.trace.energy_j(result.supply_voltage_v) == \
                pytest.approx(result.trace.charge_c() * result.supply_voltage_v), name

    def test_scenario_energy_within_trace_total(self):
        """Per-packet energy can never exceed what the whole trace drew."""
        from repro.scenarios import run_wifi_dc, run_wifi_ps
        for result in (run_wifi_dc(), run_wifi_ps()):
            total = result.trace.energy_j(result.supply_voltage_v)
            assert result.energy_per_packet_j <= total * (1 + 1e-9)

    def test_profile_average_bounded_by_extremes(self):
        from repro.scenarios import run_wile
        profile = run_wile().profile()
        for interval in (1.0, 10.0, 100.0):
            power = profile.average_power_w(interval)
            assert profile.p_idle_w <= power <= profile.p_tx_w


class TestAirtimeIdentities:
    @given(st.integers(0, 1500), st.integers(0, 1500))
    @settings(max_examples=50)
    def test_airtime_superadditive_due_to_preamble(self, first, second):
        """Two frames always cost at least one merged frame's airtime:
        every transmission pays the preamble again."""
        merged = frame_airtime_us(first + second, OFDM_24)
        split = (frame_airtime_us(first, OFDM_24)
                 + frame_airtime_us(second, OFDM_24))
        assert split >= merged - 1e-9

    def test_rate_table_internally_consistent(self):
        for rate in ALL_RATES:
            assert rate.data_rate_bps == pytest.approx(
                rate.data_rate_mbps * 1e6)
            if rate.bits_per_symbol:
                implied_mbps = rate.bits_per_symbol / rate.symbol_us
                assert implied_mbps == pytest.approx(rate.data_rate_mbps,
                                                     rel=0.02)


class TestSequenceNumberWrap:
    def test_device_sequence_wraps_cleanly(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        device = WiLEDevice(sim, medium, device_id=1)
        device.sequence = 0xFFFE
        message = device.build_message(())
        assert message.sequence == 0xFFFF
        message = device.build_message(())
        assert message.sequence == 0x0000
        # And the message still encodes/decodes.
        from repro.core.payload import WileMessage
        assert WileMessage.decode(message.encode()).sequence == 0

    def test_gateway_handles_wrap_without_false_loss(self):
        from repro.core.payload import sequence_gap
        assert sequence_gap(0xFFFF, 0) == 0
        assert sequence_gap(0xFFFE, 0) == 1
