"""Ablation benches for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they vary the knobs the paper fixed
(dynamic thresholds, epoch length, metric exponents, parity granularity,
and our fault-scale substitution) and record how the conclusions move.
"""

import pytest

from repro.core.dynamic import DynamicFrequencyController
from repro.core.metrics import MetricExponents
from repro.core.recovery import NO_DETECTION, TWO_STRIKE, RecoveryPolicy
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.util.text import render_table
from repro.mem.faults import FaultInjector

PACKETS = 300


class TestDynamicThresholdAblation:
    """Paper Section 4: X1 = 200%, X2 = 80% 'results in the best
    performance'.  Sweep the thresholds and the epoch length."""

    def drive(self, x1, x2, epoch, fault_trace):
        controller = DynamicFrequencyController(
            x1_percent=x1, x2_percent=x2, epoch_packets=epoch)
        for faults in fault_trace:
            controller.record_fault(faults)
            for _ in range(epoch):
                controller.packet_completed()
        return controller

    def test_threshold_sweep(self, once, emit):
        # Synthetic fault trace: quiet, then a mild burst, then quiet.
        # Three faults per epoch separates the thresholds: it exceeds
        # 200% of the quiet-epoch anchor but not 400%.
        trace = [0, 0, 0, 3, 3, 0, 0, 0]

        def sweep():
            rows = []
            for x1, x2 in ((150.0, 50.0), (200.0, 80.0), (400.0, 95.0)):
                controller = self.drive(x1, x2, epoch=10, fault_trace=trace)
                rows.append([f"X1={x1:.0f}% X2={x2:.0f}%",
                             controller.change_count,
                             controller.cycle_time,
                             str(controller.history)])
            return rows

        rows = once(sweep)
        emit("ablation_dynamic_thresholds", render_table(
            "Ablation: dynamic thresholds (synthetic quiet-burst-quiet "
            "fault trace, epoch=10)",
            ["thresholds", "changes", "final Cr", "history"], rows))
        by_name = {row[0]: row for row in rows}
        # The paper's setting backs off during the burst and re-climbs.
        paper = by_name["X1=200% X2=80%"]
        assert paper[1] >= 4
        assert paper[2] == 0.25
        # An insensitive X1 rides through the burst (fewer changes).
        lazy = by_name["X1=400% X2=95%"]
        assert lazy[1] < paper[1]

    def test_epoch_length_sweep(self, once, emit):
        def sweep():
            rows = []
            for epoch in (25, 100, 400):
                result = run_experiment(ExperimentConfig(
                    app="crc", packet_count=PACKETS, dynamic=True,
                    policy=TWO_STRIKE, fault_scale=20.0))
                # The controller inside run_experiment uses the paper's
                # epoch; emulate other epochs directly on the controller
                # to isolate reaction latency.
                controller = DynamicFrequencyController(epoch_packets=epoch)
                steps = 0
                while controller.cycle_time > 0.5 and steps < 10:
                    controller.record_fault(0)
                    for _ in range(epoch):
                        controller.packet_completed()
                    steps += 1
                rows.append([epoch, steps * epoch,
                             round(result.fallibility, 3)])
            return rows

        rows = once(sweep)
        emit("ablation_epoch_length", render_table(
            "Ablation: epoch length vs packets needed to reach Cr=0.5",
            ["epoch packets", "packets to reach Cr=0.5",
             "run fallibility (paper epoch)"], rows))
        # Reaction latency scales linearly with the epoch length.
        assert rows[0][1] < rows[1][1] < rows[2][1]


class TestMetricExponentAblation:
    """Paper Section 4.1: (k, m, n) = (1, 2, 2).  Compare with (1, 1, 1):
    squaring fallibility is what disqualifies the error-prone settings."""

    def test_exponent_choice_changes_winner(self, once, emit):
        flat = MetricExponents(energy=1, delay=1, fallibility=1)
        paper = MetricExponents(energy=1, delay=2, fallibility=2)

        def measure():
            rows = []
            base = run_experiment(ExperimentConfig(
                app="md5", packet_count=PACKETS, cycle_time=1.0,
                fault_scale=20.0))
            for cycle_time in (0.5, 0.25):
                run = run_experiment(ExperimentConfig(
                    app="md5", packet_count=PACKETS, cycle_time=cycle_time,
                    fault_scale=20.0))
                rows.append([
                    cycle_time,
                    round(run.product(flat) / base.product(flat), 3),
                    round(run.product(paper) / base.product(paper), 3),
                    round(run.fallibility, 3)])
            return rows

        rows = once(measure)
        emit("ablation_metric_exponents", render_table(
            "Ablation: metric exponents (md5, no detection)",
            ["Cr", "E*D*F relative", "E*D^2*F^2 relative", "fallibility"],
            rows))
        by_cycle = {row[0]: row for row in rows}
        # Squared weighting penalises the error-heavy 0.25 setting harder.
        penalty_flat = by_cycle[0.25][1] / by_cycle[0.5][1]
        penalty_paper = by_cycle[0.25][2] / by_cycle[0.5][2]
        assert penalty_paper > penalty_flat


class TestParityGranularityAblation:
    """Paper Section 5.4: one parity bit per 32-bit word.  Per-byte parity
    would catch the even-weight faults whose flips straddle bytes."""

    def test_detection_coverage(self, once, emit):
        injector = FaultInjector(seed=13, scale=1e4)

        def measure():
            word_detected = 0
            byte_detected = 0
            events = 0
            while events < 4000:
                event = injector.draw(0.25, 32)
                if event is None:
                    continue
                events += 1
                if len(event.bit_positions) % 2 == 1:
                    word_detected += 1
                by_byte = {}
                for position in event.bit_positions:
                    by_byte[position // 8] = by_byte.get(position // 8,
                                                         0) + 1
                if any(count % 2 == 1 for count in by_byte.values()):
                    byte_detected += 1
            return events, word_detected, byte_detected

        events, word, byte = once(measure)
        emit("ablation_parity_granularity", render_table(
            "Ablation: parity granularity (fault events at Cr=0.25)",
            ["granularity", "detected", "coverage"],
            [["per 32-bit word", word, round(word / events, 4)],
             ["per byte", byte, round(byte / events, 4)]]))
        assert byte >= word
        # Single-bit faults dominate, so both cover the vast majority.
        assert word / events > 0.95


class TestFaultScaleAblation:
    """Our substitution: scaled-up fault rate over scaled-down traces.
    Error probability must stay ~linear in the scale at low rates,
    validating the methodology (DESIGN.md)."""

    def test_linearity(self, once, emit):
        def measure():
            rows = []
            for scale in (10.0, 20.0, 40.0):
                errors = 0
                processed = 0
                for seed in (3, 5, 7, 11):
                    run = run_experiment(ExperimentConfig(
                        app="crc", packet_count=PACKETS, seed=seed,
                        cycle_time=0.25, fault_scale=scale))
                    errors += run.erroneous_packets
                    processed += run.processed_packets
                rows.append([scale, errors, processed,
                             round(errors / processed, 4)])
            return rows

        rows = once(measure)
        emit("ablation_fault_scale", render_table(
            "Ablation: fault-scale linearity (crc, Cr=0.25, no detection)",
            ["scale", "errors", "processed", "error rate"], rows))
        rate_low = rows[0][3]
        rate_high = rows[2][3]
        # 4x the scale gives roughly 4x the rate (within saturation slack).
        assert 2.0 < rate_high / rate_low < 6.5


class TestStrikeDepthAblation:
    """Beyond the paper: do strikes deeper than three ever help?"""

    def test_deeper_strikes(self, once, emit):
        def measure():
            rows = []
            for strikes in (1, 2, 3, 5):
                policy = RecoveryPolicy(f"{strikes}-strike", strikes)
                errors = 0
                invalidations = 0
                for seed in (3, 7):
                    run = run_experiment(ExperimentConfig(
                        app="md5", packet_count=PACKETS, seed=seed,
                        cycle_time=0.25, policy=policy, fault_scale=20.0))
                    errors += run.erroneous_packets
                rows.append([strikes, errors])
            return rows

        rows = once(measure)
        emit("ablation_strike_depth", render_table(
            "Ablation: strike depth (md5, Cr=0.25)",
            ["strikes", "erroneous packets (2 seeds)"], rows))
        by_depth = dict(rows)
        # Two strikes capture nearly all of the benefit (retry absorbs
        # transient read faults); deeper retries change little.
        assert by_depth[2] <= by_depth[1]
        assert abs(by_depth[5] - by_depth[3]) <= max(5, by_depth[3])


class TestCacheGeometryAblation:
    """Does the Cr = 0.5 conclusion survive different L1 geometries?

    The paper fixes a 4 KB direct-mapped L1 (StrongARM-110); this sweep
    varies size and associativity to check the operating-point conclusion
    is not an artifact of that choice.
    """

    def test_l1_geometry_sweep(self, once, emit):
        def measure():
            rows = []
            for size, associativity in ((2048, 1), (4096, 1), (4096, 2),
                                        (8192, 2)):
                base = run_experiment(ExperimentConfig(
                    app="route", packet_count=PACKETS, cycle_time=1.0,
                    fault_scale=20.0, l1_size_bytes=size,
                    l1_associativity=associativity))
                half = run_experiment(ExperimentConfig(
                    app="route", packet_count=PACKETS, cycle_time=0.5,
                    policy=TWO_STRIKE, fault_scale=20.0,
                    l1_size_bytes=size, l1_associativity=associativity))
                rows.append([f"{size // 1024}KB/{associativity}-way",
                             round(base.l1d_miss_rate, 4),
                             round(half.product() / base.product(), 3)])
            return rows

        rows = once(measure)
        emit("ablation_cache_geometry", render_table(
            "Ablation: L1 geometry vs the Cr=0.5 two-strike gain (route)",
            ["geometry", "L1 miss rate", "rel EDF^2 at Cr=0.5"], rows))
        # The headline gain holds across every geometry.
        assert all(row[2] < 0.9 for row in rows)
        # Bigger/more associative caches miss less.
        by_name = {row[0]: row for row in rows}
        assert by_name["2KB/1-way"][1] > by_name["8KB/2-way"][1]


class TestFaultyL2Ablation:
    """Why the paper over-clocks only the L1: L2-side corruption enters
    before the L1's check bits exist, so no L1 protection can see it."""

    def test_l2_overclocking_is_not_worth_it(self, once, emit):
        def measure():
            rows = []
            for name, l2_probability in (("L2 at spec", 0.0),
                                         ("L2 mildly clumsy", 0.002),
                                         ("L2 clumsy", 0.01)):
                errors = 0
                detected = 0
                for seed in (3, 7, 11):
                    run = run_experiment(ExperimentConfig(
                        app="route", packet_count=PACKETS, seed=seed,
                        cycle_time=0.5, policy=TWO_STRIKE,
                        fault_scale=20.0,
                        l2_fill_fault_probability=l2_probability))
                    errors += run.erroneous_packets
                    detected += run.detected_faults
                rows.append([name, l2_probability, errors, detected])
            return rows

        rows = once(measure)
        emit("ablation_faulty_l2", render_table(
            "Ablation: over-clocking the L2 as well (route, Cr=0.5, "
            "two-strike; errors over 3 seeds)",
            ["configuration", "fill fault prob", "erroneous packets",
             "parity detections"], rows))
        by_name = {row[0]: row for row in rows}
        # Errors rise with L2 fault rate while parity detections stay
        # flat: the corruption is invisible to the L1's protection.
        assert (by_name["L2 clumsy"][2]
                > by_name["L2 mildly clumsy"][2]
                >= by_name["L2 at spec"][2])


class TestErrorPersistenceAblation:
    """Volatile vs nonvolatile errors (paper Section 1), quantified as
    consecutive-error run lengths per plane of injection."""

    def test_persistence_by_plane(self, once, emit):
        def measure():
            rows = []
            for app in ("crc", "route"):
                for plane in ("data", "both"):
                    runs = []
                    for seed in (3, 7, 11, 13):
                        result = run_experiment(ExperimentConfig(
                            app=app, packet_count=PACKETS, seed=seed,
                            cycle_time=0.25, fault_scale=20.0,
                            planes=plane))
                        runs.extend(result.error_runs)
                    mean_run = (sum(runs) / len(runs)) if runs else 0.0
                    rows.append([app, plane, len(runs),
                                 round(mean_run, 2),
                                 max(runs) if runs else 0])
            return rows

        rows = once(measure)
        emit("ablation_error_persistence", render_table(
            "Ablation: error persistence (consecutive erroneous packets) "
            "at Cr=0.25, no detection",
            ["app", "planes", "error episodes", "mean run", "max run"],
            rows))
        by_key = {(row[0], row[1]): row for row in rows}
        # Data-plane faults are transient (short runs); adding
        # control-plane faults introduces the long-lived corruption the
        # paper calls nonvolatile errors.
        assert by_key[("crc", "both")][4] >= by_key[("crc", "data")][4]
