"""Figure generators, bar rendering, and the command-line interface."""

import pytest

from repro.harness import figures
from repro.harness.cli import main
from repro.harness.report import render_bar_chart

TINY = dict(packet_count=40, seeds=(3,))


class TestAnalyticFigures:
    def test_fig1b_series(self):
        points = figures.fig1b_voltage_swing(points=11)
        assert points[0] == (0.0, 0.0)
        assert points[-1][1] == pytest.approx(1.0)

    def test_fig2b_curves_keyed_by_swing(self):
        curves = figures.fig2b_noise_immunity(swings=(1.0, 0.5), points=5)
        assert set(curves) == {1.0, 0.5}
        assert all(len(curve) == 5 for curve in curves.values())

    def test_fig3_histogram_total(self):
        histogram, fit = figures.fig3_switching(lines=6)
        assert sum(count for _, count in histogram) == 4 ** 6
        assert fit.k2 > 0

    def test_fig4_monotone(self):
        series = figures.fig4_fault_vs_swing()
        values = [probability for _, probability in series]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_fig5_rows_and_fit(self):
        rows, fitted = figures.fig5_fault_vs_cycle(points=5)
        assert len(rows) == 5
        assert fitted.probability(0.5) > 0

    @pytest.mark.parametrize("renderer", [
        figures.render_fig1b, figures.render_fig2b, figures.render_fig3,
        figures.render_fig4, figures.render_fig5])
    def test_renderers_produce_titled_text(self, renderer):
        text = renderer()
        assert text.startswith("Figure")
        assert len(text.splitlines()) > 3


class TestSimulatedFigures:
    def test_error_behavior_structure(self):
        data = figures.error_behavior("route", planes=("data",),
                                      cycle_times=(1.0, 0.25),
                                      fault_scale=30.0, **TINY)
        assert set(data) == {"data"}
        assert set(data["data"]) == {1.0, 0.25}
        assert "fatal" in data["data"][1.0]

    def test_fig8_structure(self):
        data = figures.fig8_fatal_probabilities(
            apps=("crc",), cycle_times=(1.0,), **TINY)
        assert data["crc"][1.0] == 0.0

    def test_render_fig8_from(self):
        text = figures.render_fig8_from({"crc": {1.0: 0.0, 0.25: 0.01}})
        assert "crc" in text and "avrg" in text

    def test_edf_products_baseline_is_one(self):
        from repro.core.recovery import NO_DETECTION
        cells = figures.edf_products(
            "tl", policies=(NO_DETECTION,), settings=(1.0, 0.5),
            fault_scale=0.0, **TINY)
        index = {(cell.policy, cell.setting): cell for cell in cells}
        assert index[("no-detection", 1.0)].relative_product == (
            pytest.approx(1.0))
        assert index[("no-detection", 0.5)].relative_product < 1.0

    def test_render_edf_cells_includes_bars(self):
        from repro.core.recovery import NO_DETECTION
        cells = figures.edf_products(
            "tl", policies=(NO_DETECTION,), settings=(1.0,),
            fault_scale=0.0, **TINY)
        text = figures.render_edf_cells(cells, "tl", "Figure X")
        assert "recovery scheme" in text
        assert "|" in text  # the bar chart body

    def test_average_edf_from(self):
        from repro.harness.figures import EdfCell
        cells_by_app = {
            "a": [EdfCell("a", "no-detection", 1.0, 1.0, 1.0, 0)],
            "b": [EdfCell("b", "no-detection", 1.0, 0.5, 1.0, 0)],
        }
        data = figures.average_edf_from(cells_by_app)
        assert data[("no-detection", 1.0)] == pytest.approx(0.75)


class TestBarChart:
    def test_bar_lengths_proportional(self):
        text = render_bar_chart("T", [("a", 1.0), ("b", 0.5)], width=40)
        lines = text.splitlines()
        assert lines[1].count("#") == 40
        assert lines[2].count("#") == 20

    def test_ceiling_clips_and_marks(self):
        text = render_bar_chart("T", [("big", 3.0)], width=40, ceiling=2.0)
        assert ">" in text
        assert text.splitlines()[1].count("#") == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            render_bar_chart("T", [])
        with pytest.raises(ValueError):
            render_bar_chart("T", [("a", 1.0)], width=2)
        with pytest.raises(ValueError):
            render_bar_chart("T", [("a", -1.0)])

    def test_zero_bars_render(self):
        text = render_bar_chart("T", [("a", 0.0), ("b", 0.0)])
        assert "|" in text


class TestCli:
    def test_analytic_experiment(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_seed_and_packet_arguments(self, capsys):
        assert main(["fig1b", "--packets", "10", "--seeds", "1,2"]) == 0
        assert "Figure 1(b)" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_simulated_experiment_small(self, capsys):
        assert main(["fig8", "--packets", "30", "--seeds", "3"]) == 0
        assert "fatal error" in capsys.readouterr().out

    def test_backend_flag_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--backend {execute,replay}" in help_text
        assert "falling back to faithful execution" in help_text

    def test_backend_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6", "--backend", "interpret"])
        assert "--backend" in capsys.readouterr().err

    def test_replay_backend_runs_simulated_experiment(self, capsys):
        from repro.replay import TraceStore, set_trace_store

        previous = set_trace_store(TraceStore())
        try:
            assert main(["fig6", "--packets", "25", "--seeds", "3",
                         "--backend", "replay"]) == 0
        finally:
            set_trace_store(previous)
        assert "Figure 6" in capsys.readouterr().out

    def test_replay_fallbacks_summarised_by_reason(self, capsys):
        from repro.replay import (
            TraceStore,
            fallback_count,
            set_trace_store,
        )
        from repro.replay.backend import FALLBACK_REASONS

        previous = set_trace_store(TraceStore())
        before = fallback_count()
        try:
            # Seed 7 makes 4 fig9a configs diverge at 20 packets.
            assert main(["fig9a", "--backend", "replay", "--packets", "20",
                         "--seeds", "7"]) == 0
        finally:
            set_trace_store(previous)
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("replay fallbacks: ")]
        assert len(lines) == 1
        counts = dict(pair.split("=")
                      for pair in lines[0].split(": ", 1)[1].split())
        assert tuple(counts) == FALLBACK_REASONS
        assert sum(map(int, counts.values())) == fallback_count() - before
        assert fallback_count() > before

    def test_execute_backend_prints_no_fallback_line(self, capsys):
        assert main(["fig9a", "--backend", "execute", "--packets", "20",
                     "--seeds", "2"]) == 0
        assert "fallbacks" not in capsys.readouterr().err

    def test_replay_traces_persist_under_cache_dir(self, tmp_path,
                                                   capsys):
        from repro.replay import TraceStore, set_trace_store

        previous = set_trace_store(TraceStore())
        try:
            assert main(["fig6", "--packets", "25", "--seeds", "3",
                         "--backend", "replay",
                         "--cache-dir", str(tmp_path)]) == 0
        finally:
            set_trace_store(previous)
        capsys.readouterr()
        assert list((tmp_path / "traces").glob("trace-*.npz"))
