"""Extension: sustainable line rate vs cache clock (system.linerate)."""

from repro.core.recovery import TWO_STRIKE
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.util.text import render_table
from repro.system.linerate import (
    loss_curve,
    sustainable_cycles_per_packet,
)

PACKETS = 300
SCALE = 20.0


class TestLineRate:
    def test_sustainable_rate_vs_clock(self, once, emit):
        def measure():
            rows = []
            for cycle_time in (1.0, 0.75, 0.5, 0.25):
                run = run_experiment(ExperimentConfig(
                    app="route", packet_count=PACKETS,
                    cycle_time=cycle_time, policy=TWO_STRIKE,
                    fault_scale=SCALE))
                services = list(run.packet_cycles)
                saturation = sustainable_cycles_per_packet(services)
                # Loss at 90% of the *nominal* clock's saturation rate:
                # shows the headroom over-clocking buys at a fixed line.
                rows.append([cycle_time, round(saturation, 1), services])
            nominal_interval = rows[0][1] / 0.9
            table = []
            for cycle_time, saturation, services in rows:
                from repro.system.linerate import simulate_queue
                at_line = simulate_queue(services, nominal_interval,
                                         buffer_packets=16)
                table.append([cycle_time, saturation,
                              round(rows[0][1] / saturation, 2),
                              round(at_line.loss_rate, 4),
                              at_line.peak_occupancy])
            return table

        table = once(measure)
        emit("ext_line_rate", render_table(
            "Extension: sustainable line rate vs cache clock (route, "
            "two-strike; line fixed at 90% of nominal saturation)",
            ["Cr", "cycles/pkt (sat.)", "speedup", "loss at line",
             "peak queue"], table))
        by_cycle = {row[0]: row for row in table}
        # Over-clocking shortens the mean service time...
        assert by_cycle[0.5][1] < by_cycle[1.0][1]
        # ...so the same line is served with no more loss and less queue.
        assert by_cycle[0.5][3] <= by_cycle[1.0][3]
