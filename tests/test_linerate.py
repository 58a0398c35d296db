"""Line-rate / input-queue analysis (system.linerate)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.system.linerate import (
    QueueResult,
    loss_curve,
    simulate_queue,
    sustainable_cycles_per_packet,
)


class TestSustainableRate:
    def test_mean_service_time(self):
        assert sustainable_cycles_per_packet([100.0, 200.0]) == 150.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sustainable_cycles_per_packet([])
        with pytest.raises(ValueError):
            sustainable_cycles_per_packet([10.0, 0.0])


class TestQueueSimulation:
    def test_underload_never_drops(self):
        # Constant 100-cycle service, arrivals every 200 cycles: the
        # server always idles before the next arrival.
        result = simulate_queue([100.0] * 50, arrival_interval_cycles=200.0)
        assert result.dropped_packets == 0
        assert result.peak_occupancy == 0
        assert result.goodput_fraction == 1.0

    def test_exact_saturation_keeps_up(self):
        result = simulate_queue([100.0] * 50, arrival_interval_cycles=100.0)
        assert result.dropped_packets == 0

    def test_overload_fills_buffer_then_drops(self):
        # Service 200, arrivals every 100: queue grows by one every two
        # arrivals; a 4-slot buffer eventually overflows.
        result = simulate_queue([200.0] * 60,
                                arrival_interval_cycles=100.0,
                                buffer_packets=4)
        assert result.dropped_packets > 0
        assert result.peak_occupancy == 5  # 4 waiting + 1 in service
        assert result.loss_rate == pytest.approx(
            result.dropped_packets / 60)

    def test_burst_absorbed_by_buffer(self):
        # One slow packet followed by fast ones: the backlog drains.
        services = [1000.0] + [10.0] * 30
        result = simulate_queue(services, arrival_interval_cycles=50.0,
                                buffer_packets=32)
        assert result.dropped_packets == 0
        assert result.peak_occupancy > 0

    def test_loss_grows_with_load(self):
        services = [100.0 + (index % 7) * 30 for index in range(200)]
        curve = loss_curve(services, [0.5, 1.0, 1.5, 2.0],
                           buffer_packets=8)
        losses = [loss for _, loss in curve]
        assert losses[0] == 0.0
        assert losses == sorted(losses)
        assert losses[-1] > 0.2

    @pytest.mark.parametrize("call", [
        lambda: simulate_queue([], 10.0),
        lambda: simulate_queue([1.0], 0.0),
        lambda: simulate_queue([1.0], 10.0, buffer_packets=0),
        lambda: loss_curve([1.0], []),
        lambda: loss_curve([1.0], [0.0]),
    ])
    def test_validation(self, call):
        with pytest.raises(ValueError):
            call()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=500.0),
                    min_size=1, max_size=80),
           st.floats(min_value=1.0, max_value=500.0))
    def test_conservation_property(self, services, interval):
        result = simulate_queue(services, interval, buffer_packets=4)
        assert (result.served_packets + result.dropped_packets
                == result.offered_packets)
        assert 0 <= result.mean_occupancy <= result.peak_occupancy <= 5


class TestEdgeCases:
    def test_zero_offered_result_is_well_defined(self):
        # simulate_queue never offers zero packets, but QueueResult is a
        # public value a caller may build empty; the ratios must not
        # divide by zero.
        result = QueueResult(offered_packets=0, served_packets=0,
                             dropped_packets=0, peak_occupancy=0,
                             mean_occupancy=0.0)
        assert result.loss_rate == 0.0
        assert result.goodput_fraction == 1.0

    def test_nonzero_offered_ratios_unchanged(self):
        result = QueueResult(offered_packets=10, served_packets=7,
                             dropped_packets=3, peak_occupancy=4,
                             mean_occupancy=1.5)
        assert result.loss_rate == pytest.approx(0.3)
        assert result.goodput_fraction == pytest.approx(0.7)

    @pytest.mark.parametrize("call", [
        lambda: sustainable_cycles_per_packet([]),
        lambda: simulate_queue([], 10.0),
        lambda: loss_curve([], [1.0]),
    ])
    def test_empty_service_list_rejected_everywhere(self, call):
        """All three entry points refuse an empty service-time list."""
        with pytest.raises(ValueError):
            call()

    def test_buffer_of_one_drops_second_waiter(self):
        # Service 300, arrivals every 100: packet 0 serves, packet 1
        # waits in the single slot, packet 2 finds it full and drops,
        # packet 3 arrives as packet 0 completes and takes the slot.
        result = simulate_queue([300.0] * 4, arrival_interval_cycles=100.0,
                                buffer_packets=1)
        assert result.dropped_packets == 1
        assert result.served_packets == 3
        assert result.peak_occupancy == 2  # 1 waiting + 1 in service
        assert result.mean_occupancy == pytest.approx(4 / 4)

    def test_all_drops_saturation(self):
        # A service time far beyond the arrival horizon: packet 0 holds
        # the server for the whole replay, packet 1 takes the single
        # buffer slot, every later arrival is dropped.
        result = simulate_queue([1e6] * 50, arrival_interval_cycles=1.0,
                                buffer_packets=1)
        assert result.dropped_packets == 48
        assert result.served_packets == 2
        assert result.loss_rate == pytest.approx(48 / 50)
        assert result.goodput_fraction == pytest.approx(2 / 50)
        assert result.peak_occupancy == 2

    def test_loss_curve_monotone_in_arrival_rate(self):
        # A structured service mix (periodic slow packets over a fast
        # baseline): pushing the offered load up can only add drops.
        services = [80.0 + (index % 5) * 40 for index in range(300)]
        loads = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0]
        curve = loss_curve(services, loads, buffer_packets=4)
        assert [load for load, _ in curve] == loads
        losses = [loss for _, loss in curve]
        assert losses == sorted(losses)
        assert losses[0] == 0.0
        assert losses[-1] > 0.5
        # The same monotonicity read directly off the queue replay, as
        # the arrival interval shrinks through saturation.
        saturation = sustainable_cycles_per_packet(services)
        intervals = [2.0 * saturation, saturation, 0.5 * saturation,
                     0.25 * saturation]
        direct = [simulate_queue(services, interval,
                                 buffer_packets=4).loss_rate
                  for interval in intervals]
        assert direct == sorted(direct)


class TestEndToEnd:
    def test_overclocking_raises_sustainable_rate(self):
        nominal = run_experiment(ExperimentConfig(
            app="route", packet_count=120, cycle_time=1.0, fault_scale=0.0))
        clumsy = run_experiment(ExperimentConfig(
            app="route", packet_count=120, cycle_time=0.5, fault_scale=0.0))
        assert (sustainable_cycles_per_packet(list(clumsy.packet_cycles))
                < sustainable_cycles_per_packet(list(nominal.packet_cycles)))

    def test_packet_cycles_recorded(self):
        result = run_experiment(ExperimentConfig(
            app="crc", packet_count=40, fault_scale=0.0))
        assert len(result.packet_cycles) == 40
        assert all(cycles > 0 for cycles in result.packet_cycles)
        # Excludes the control plane: much less than total cycles.
        assert sum(result.packet_cycles) < result.cycles
