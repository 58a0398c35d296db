"""Telemetry subsystem: events, exporters, tracer, and non-perturbation."""

import json

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import clear_golden_cache, run_experiment
from repro.harness import tracecmd
from repro.core.recovery import TWO_STRIKE
from repro.telemetry import (
    NULL_TRACER,
    CounterSet,
    EpochBoundary,
    FatalError,
    FaultInjected,
    FixedHistogram,
    FrequencySwitch,
    PacketDone,
    ParityStrike,
    RecoveryFallback,
    Tracer,
    epoch_report,
    event_type_by_kind,
    from_record,
    read_jsonl,
    render_trace_report,
    timeline_summary,
    write_csv,
    write_jsonl,
)
from repro.telemetry.events import EVENT_TYPES

SAMPLE_EVENTS = [
    FrequencySwitch(cycle=10.0, engine=0, previous_cr=1.0, new_cr=0.25,
                    reason="dynamic"),
    FaultInjected(cycle=12.5, engine=0, address=0x1040, is_write=False,
                  flip_count=2, bit_positions=(3, 17), cr=0.25),
    ParityStrike(cycle=13.0, engine=0, address=0x1040, line_address=0x1040,
                 attempt=1, cr=0.25),
    RecoveryFallback(cycle=14.0, engine=0, address=0x1040,
                     line_address=0x1040, action="invalidate-line",
                     words=0, cr=0.25),
    PacketDone(cycle=400.0, engine=0, packet_index=0, packet_cycles=390.0,
               cr=0.25),
    EpochBoundary(cycle=400.0, engine=0, epoch_index=0, packets=1,
                  faults_injected=1, faults_detected=1, fallbacks=1,
                  cr=0.25),
    FatalError(cycle=401.0, engine=1, packet_index=1,
               reason="FatalExecutionError: watchdog", cr=0.25),
]


class TestEventSchema:
    def test_every_type_round_trips_through_records(self):
        for event in SAMPLE_EVENTS:
            assert from_record(event.to_record()) == event

    def test_sample_covers_every_event_type(self):
        assert {type(event) for event in SAMPLE_EVENTS} == set(EVENT_TYPES)

    def test_records_are_json_serialisable(self):
        for event in SAMPLE_EVENTS:
            rebuilt = from_record(json.loads(json.dumps(event.to_record())))
            assert rebuilt == event

    def test_bit_positions_restored_as_tuple(self):
        fault = SAMPLE_EVENTS[1]
        assert from_record(fault.to_record()).bit_positions == (3, 17)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            from_record({"type": "warp-core-breach", "cycle": 1.0})
        with pytest.raises(ValueError):
            event_type_by_kind("warp-core-breach")

    def test_events_are_immutable(self):
        with pytest.raises(AttributeError):
            SAMPLE_EVENTS[0].cycle = 99.0


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        path = write_jsonl(SAMPLE_EVENTS, tmp_path / "log" / "events.jsonl")
        assert read_jsonl(path) == SAMPLE_EVENTS

    def test_jsonl_rejects_garbage_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "packet_done", "cycle": 1.0,\nnot json\n')
        with pytest.raises(ValueError, match=":1:"):
            read_jsonl(path)

    def test_csv_has_header_and_one_row_per_event(self, tmp_path):
        path = write_csv(SAMPLE_EVENTS, tmp_path / "events.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("type,")
        assert len(lines) == 1 + len(SAMPLE_EVENTS)
        assert any("3;17" in line for line in lines)


class TestMetrics:
    def test_counter_set(self):
        counters = CounterSet()
        counters.bump("x")
        counters.bump("x", 2)
        assert counters.get("x") == 3
        assert counters.get("missing") == 0
        assert counters.snapshot() == {"x": 3}

    def test_histogram_records_and_overflows(self):
        histogram = FixedHistogram((1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            histogram.record(value)
        assert [count for _, count in histogram.buckets()] == [1, 1, 1]
        assert histogram.total == 3
        assert histogram.overflow == 1
        assert histogram.mean == pytest.approx((0.5 + 1.5 + 99.0) / 3)

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError):
            FixedHistogram((2.0, 1.0))


class TestTracer:
    def _packet(self, index, cycle):
        return PacketDone(cycle=cycle, engine=0, packet_index=index,
                          packet_cycles=100.0, cr=0.5)

    def test_epoch_boundary_every_n_packets(self):
        tracer = Tracer(epoch_packets=2)
        for index in range(5):
            tracer.emit(self._packet(index, 100.0 * (index + 1)))
        tracer.finish()
        boundaries = tracer.events_of(EpochBoundary)
        assert [b.epoch_index for b in boundaries] == [0, 1, 2]
        assert [b.packets for b in boundaries] == [2, 2, 1]

    def test_finish_is_idempotent(self):
        tracer = Tracer(epoch_packets=10)
        tracer.emit(self._packet(0, 100.0))
        tracer.finish()
        tracer.finish()
        assert tracer.count(EpochBoundary) == 1

    def test_epoch_aggregates_and_strike_map(self):
        tracer = Tracer(epoch_packets=50)
        tracer.emit(FaultInjected(cycle=1.0, engine=0, address=0x40,
                                  is_write=True, flip_count=1,
                                  bit_positions=(0,), cr=0.25))
        for attempt in (1, 2):
            tracer.emit(ParityStrike(cycle=2.0, engine=0, address=0x44,
                                     line_address=0x40, attempt=attempt,
                                     cr=0.25))
        tracer.finish()
        boundary = tracer.events_of(EpochBoundary)[-1]
        assert boundary.faults_injected == 1
        assert boundary.faults_detected == 2
        assert tracer.strikes_per_line == {0x40: 2}

    def test_fatal_flag(self):
        tracer = Tracer()
        assert not tracer.fatal
        tracer.emit(FatalError(cycle=1.0, engine=0, packet_index=0,
                               reason="boom", cr=1.0))
        assert tracer.fatal

    def test_rejects_empty_epochs(self):
        with pytest.raises(ValueError):
            Tracer(epoch_packets=0)


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(SAMPLE_EVENTS[0])
        NULL_TRACER.finish()
        assert not hasattr(NULL_TRACER, "events")

    def test_untraced_run_uses_null_path(self):
        clear_golden_cache()
        result = run_experiment(ExperimentConfig(
            app="crc", packet_count=30, seed=7, cycle_time=0.5,
            policy=TWO_STRIKE, fault_scale=20.0))
        assert result.processed_packets > 0


class TestNonPerturbation:
    CONFIG = dict(app="crc", packet_count=50, seed=7, cycle_time=0.25,
                  policy=TWO_STRIKE, fault_scale=60.0)

    def test_traced_run_matches_untraced_run_exactly(self):
        clear_golden_cache()
        untraced = run_experiment(ExperimentConfig(**self.CONFIG))
        tracer = Tracer(epoch_packets=10)
        traced = run_experiment(ExperimentConfig(**self.CONFIG),
                                tracer=tracer)
        assert repr(traced) == repr(untraced)
        assert tracer.events, "tracer should have observed the run"
        assert tracer.count(PacketDone) == traced.processed_packets

    def test_tracer_is_not_a_config_field(self):
        # A tracer attaches only as run_experiment's argument.
        with pytest.raises(TypeError, match="tracer"):
            ExperimentConfig(**self.CONFIG, tracer=Tracer())


class TestTraceCommand:
    def test_default_route_trace_covers_all_event_types(self, tmp_path):
        clear_golden_cache()
        exit_code = tracecmd.main(
            ["route", "--packets", "200", "--out", str(tmp_path)])
        assert exit_code == 0
        events = read_jsonl(tmp_path / "route.events.jsonl")
        assert {event.kind for event in events} == {
            event_type.kind for event_type in EVENT_TYPES}
        cycles = [event.cycle for event in events]
        assert cycles == sorted(cycles), "timestamps must be monotone"
        assert (tmp_path / "route.events.csv").exists()

    def test_backend_flag_is_a_usage_error(self, tmp_path, capsys):
        # A tracer observes the faithful kernel; there is no backend to
        # choose, so the flag is unknown to argparse.
        with pytest.raises(SystemExit) as exit_info:
            tracecmd.main(["route", "--backend", "replay",
                           "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_reports_render(self):
        tracer = Tracer(epoch_packets=2)
        for event in SAMPLE_EVENTS:
            tracer.emit(event)
        tracer.finish()
        report = render_trace_report(tracer, label="sample")
        assert "sample" in report
        assert "FATAL" in report
        assert epoch_report(tracer.events)
        assert "fault_injected=1" in timeline_summary(tracer.events)
