"""Generators for every figure in the paper's evaluation.

Each ``figN_*`` function returns plain data (series / nested dicts) plus a
``render_figN`` companion producing the ASCII artifact.  Analytic figures
(1b-5) come straight from the models; behavioural figures (6-12) run the
simulator, averaging over seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import NETBENCH_APPS, RELATIVE_CYCLE_LEVELS
from repro.core.fault_model import default_fault_model
from repro.core.metrics import MetricExponents, PAPER_EXPONENTS
from repro.core.recovery import ALL_POLICIES, NO_DETECTION, RecoveryPolicy
from repro.core.switching import amplitude_histogram, fit_exponential
from repro.core.voltage import VoltageSwingModel
from repro.harness.config import DEFAULT_FAULT_SCALE, ExperimentConfig
from repro.harness.engine import CampaignEngine, default_engine
from repro.util.text import render_bar_chart, render_series, render_table

DEFAULT_SEEDS = (7, 11, 23)


def _engine(engine: "CampaignEngine | None") -> CampaignEngine:
    """The engine to run behavioural figures through (default: uncached)."""
    return engine if engine is not None else default_engine()


def _mean(values: "list[float]") -> float:
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Figure 1(b): voltage swing vs cycle time
# ---------------------------------------------------------------------------

def fig1b_voltage_swing(points: int = 21) -> "list[tuple[float, float]]":
    """(Cr, Vsr) samples of the calibrated swing curve."""
    return VoltageSwingModel().curve(points)


def render_fig1b(points: int = 21) -> str:
    """Text artifact for Figure 1(b)."""
    return render_series(
        "Figure 1(b): relative voltage swing vs relative cycle time",
        "Cr", "Vsr", fig1b_voltage_swing(points))


# ---------------------------------------------------------------------------
# Figure 2(b): noise-immunity curves
# ---------------------------------------------------------------------------

def fig2b_noise_immunity(
    swings: "tuple[float, ...]" = (1.0, 0.8, 0.6, 0.5),
    points: int = 10,
) -> "dict[float, list[tuple[float, float]]]":
    """Per-swing (Dr, critical Ar) curves; the area above each curve fails."""
    model = default_fault_model()
    return {swing: model.immunity.immunity_curve(swing, points)
            for swing in swings}


def render_fig2b() -> str:
    """Text artifact for Figure 2(b)."""
    curves = fig2b_noise_immunity()
    rows = []
    durations = [duration for duration, _ in next(iter(curves.values()))]
    for index, duration in enumerate(durations):
        rows.append([round(duration, 3)] +
                    [round(curves[swing][index][1], 3) for swing in curves])
    return render_table(
        "Figure 2(b): noise immunity curves (critical amplitude by duration)",
        ["Dr"] + [f"Vsr={swing}" for swing in curves], rows)


# ---------------------------------------------------------------------------
# Figure 3: switching combinations vs noise amplitude
# ---------------------------------------------------------------------------

def fig3_switching(lines: int = 8):
    """Exact histogram plus the Eq.-(1) exponential fit for ``lines``."""
    histogram = amplitude_histogram(lines)
    return histogram, fit_exponential(histogram)


def render_fig3(lines: int = 8) -> str:
    """Text artifact for Figure 3."""
    histogram, fit = fig3_switching(lines)
    rows = [[round(amplitude, 3), count, round(fit.evaluate(amplitude), 1)]
            for amplitude, count in histogram]
    return render_table(
        f"Figure 3: switching combinations vs noise amplitude "
        f"(n={lines} coupled lines; fit K1={fit.k1:.3g}, K2={fit.k2:.3g})",
        ["Ar", "cases", "K1*exp(-K2*Ar)"], rows)


# ---------------------------------------------------------------------------
# Figure 4: fault probability vs voltage swing
# ---------------------------------------------------------------------------

def fig4_fault_vs_swing(points: int = 13) -> "list[tuple[float, float]]":
    """(Vsr, P_E) samples -- the Figure 4 series."""
    model = default_fault_model()
    swings = [0.4 + 0.05 * i for i in range(points)]
    return [(round(swing, 2), model.probability_at_swing(swing))
            for swing in swings]


def render_fig4() -> str:
    """Text artifact for Figure 4."""
    return render_series(
        "Figure 4: probability of a fault at various voltage swings",
        "Vsr", "P_E", fig4_fault_vs_swing())


# ---------------------------------------------------------------------------
# Figure 5: fault probability vs cycle time, with the Eq.-(4) fit
# ---------------------------------------------------------------------------

def fig5_fault_vs_cycle(points: int = 16):
    """[(Cr, model P_E, fitted P_E)] plus the fitted formula."""
    model = default_fault_model()
    fitted = model.fitted()
    cycle_times = [0.25 + 0.05 * i for i in range(points)]
    rows = [(round(cr, 2), model.single_bit_probability(cr),
             fitted.probability(cr)) for cr in cycle_times]
    return rows, fitted


def render_fig5() -> str:
    """Text artifact for Figure 5 (data + Eq.-(4) fit)."""
    rows, fitted = fig5_fault_vs_cycle()
    return render_table(
        f"Figure 5: probability of a fault at different cycle times "
        f"(fit: {fitted.coefficient:.3g} * exp({fitted.exponent:.3g} * Fr^2))",
        ["Cr", "model P_E", "fitted P_E"],
        [[cr, model_p, fit_p] for cr, model_p, fit_p in rows])


# ---------------------------------------------------------------------------
# Figures 6 and 7: per-category error probabilities by plane (route / nat)
# ---------------------------------------------------------------------------

def error_behavior(
    app: str,
    planes: "tuple[str, ...]" = ("control", "data", "both"),
    cycle_times: "tuple[float, ...]" = RELATIVE_CYCLE_LEVELS,
    packet_count: int = 300,
    seeds: "tuple[int, ...]" = DEFAULT_SEEDS,
    fault_scale: float = DEFAULT_FAULT_SCALE,
    engine: "CampaignEngine | None" = None,
    injector: str = "reference",
    backend: str = "execute",
) -> "dict[str, dict[float, dict[str, float]]]":
    """plane -> Cr -> category -> mean error probability (plus 'fatal')."""
    configs = [ExperimentConfig(
        app=app, packet_count=packet_count, seed=seed,
        cycle_time=cycle_time, policy=NO_DETECTION,
        fault_scale=fault_scale, planes=plane, injector=injector,
        backend=backend)
        for plane in planes for cycle_time in cycle_times for seed in seeds]
    outcomes = iter(_engine(engine).run(configs))
    results: "dict[str, dict[float, dict[str, float]]]" = {}
    for plane in planes:
        results[plane] = {}
        for cycle_time in cycle_times:
            runs = [next(outcomes) for _ in seeds]
            categories = sorted({category for run in runs
                                 for category in run.category_errors})
            per_category = {
                category: _mean([run.error_probability(category)
                                 for run in runs])
                for category in categories}
            per_category["fatal"] = _mean(
                [run.fatal_probability for run in runs])
            results[plane][cycle_time] = per_category
    return results


def render_error_behavior(app: str, figure_name: str, **kwargs) -> str:
    """Text artifact for a Figure 6/7-style panel set."""
    data = error_behavior(app, **kwargs)
    blocks = []
    for plane, by_cycle in data.items():
        categories = sorted({category
                             for per_category in by_cycle.values()
                             for category in per_category})
        rows = []
        for cycle_time, per_category in by_cycle.items():
            rows.append([f"{cycle_time * 100:.0f}%"] +
                        [per_category.get(category, 0.0)
                         for category in categories])
        blocks.append(render_table(
            f"{figure_name} ({app}), faults in {plane} plane(s)",
            ["rel clock cycle"] + categories, rows))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Figure 8: fatal error probability by application and clock rate
# ---------------------------------------------------------------------------

def fig8_fatal_probabilities(
    apps: "tuple[str, ...]" = NETBENCH_APPS,
    cycle_times: "tuple[float, ...]" = RELATIVE_CYCLE_LEVELS,
    packet_count: int = 300,
    seeds: "tuple[int, ...]" = DEFAULT_SEEDS,
    fault_scale: float = DEFAULT_FAULT_SCALE,
    engine: "CampaignEngine | None" = None,
    injector: str = "reference",
    backend: str = "execute",
) -> "dict[str, dict[float, float]]":
    """app -> Cr -> fatal errors per offered packet (no detection).

    A run ends at its first fatal error, so the estimator pools seeds:
    total fatal events over total packets offered before termination.
    """
    configs = [ExperimentConfig(
        app=app, packet_count=packet_count, seed=seed,
        cycle_time=cycle_time, policy=NO_DETECTION,
        fault_scale=fault_scale, injector=injector, backend=backend)
        for app in apps for cycle_time in cycle_times for seed in seeds]
    outcomes = iter(_engine(engine).run(configs))
    results: "dict[str, dict[float, float]]" = {}
    for app in apps:
        results[app] = {}
        for cycle_time in cycle_times:
            fatals = 0
            offered = 0
            for _ in seeds:
                run = next(outcomes)
                fatals += 1 if run.fatal else 0
                offered += run.processed_packets + (1 if run.fatal else 0)
            results[app][cycle_time] = fatals / offered
    return results


def render_fig8_from(data: "dict[str, dict[float, float]]") -> str:
    """Text artifact for Figure 8 from precomputed data."""
    cycle_times = sorted(next(iter(data.values())), reverse=True)
    rows = [[app] + [data[app][cycle_time] for cycle_time in cycle_times]
            for app in data]
    average = ["avrg"] + [
        _mean([data[app][cycle_time] for app in data])
        for cycle_time in cycle_times]
    return render_table(
        "Figure 8: fatal error probabilities for different clock rates "
        "(no detection)",
        ["app"] + [f"{cycle_time * 100:.0f}%" for cycle_time in cycle_times],
        rows + [average])


# ---------------------------------------------------------------------------
# Figures 9-12: relative energy-delay^2-fallibility^2 products
# ---------------------------------------------------------------------------

#: Clock settings along the x-axis of Figures 9-12 ("dynamic" is the
#: adaptation scheme of Section 4).
EDF_SETTINGS = (1.0, 0.75, 0.5, 0.25, "dynamic")


@dataclass(frozen=True)
class EdfCell:
    """One bar of Figures 9-12."""

    app: str
    policy: str
    setting: "float | str"
    relative_product: float
    fallibility: float
    fatal_runs: int


def edf_products(
    app: str,
    policies: "tuple[RecoveryPolicy, ...]" = ALL_POLICIES,
    settings: "tuple" = EDF_SETTINGS,
    packet_count: int = 300,
    seeds: "tuple[int, ...]" = DEFAULT_SEEDS,
    fault_scale: float = DEFAULT_FAULT_SCALE,
    exponents: MetricExponents = PAPER_EXPONENTS,
    engine: "CampaignEngine | None" = None,
    injector: str = "reference",
    backend: str = "execute",
) -> "list[EdfCell]":
    """Every (policy, setting) bar for one application.

    Products are normalised per seed against that seed's baseline
    (Cr = 1, no detection) and then averaged, as the figures are.  All
    runs go through one campaign, so the baseline configs (which
    coincide with the no-detection/Cr=1 cells) simulate exactly once.
    """
    def cell_config(policy, setting, seed):
        return ExperimentConfig(
            app=app, packet_count=packet_count, seed=seed,
            cycle_time=1.0 if setting == "dynamic" else setting,
            policy=policy, dynamic=setting == "dynamic",
            fault_scale=fault_scale, injector=injector, backend=backend)

    baseline_configs = [ExperimentConfig(
        app=app, packet_count=packet_count, seed=seed, cycle_time=1.0,
        policy=NO_DETECTION, fault_scale=fault_scale,
        injector=injector, backend=backend) for seed in seeds]
    cell_configs = [cell_config(policy, setting, seed)
                    for policy in policies for setting in settings
                    for seed in seeds]
    outcomes = iter(_engine(engine).run(baseline_configs + cell_configs))
    baselines = {seed: next(outcomes).product(exponents) for seed in seeds}
    cells = []
    for policy in policies:
        for setting in settings:
            ratios = []
            fatal_runs = 0
            fallibilities = []
            for seed in seeds:
                run = next(outcomes)
                ratios.append(run.product(exponents) / baselines[seed])
                fallibilities.append(run.fallibility)
                fatal_runs += 1 if run.fatal else 0
            cells.append(EdfCell(
                app=app, policy=policy.name, setting=setting,
                relative_product=_mean(ratios),
                fallibility=_mean(fallibilities),
                fatal_runs=fatal_runs))
    return cells


def render_edf(app: str, figure_name: str, **kwargs) -> str:
    """Text artifact for a Figures 9-12 panel (runs the sims)."""
    return render_edf_cells(edf_products(app, **kwargs), app, figure_name)


def render_edf_cells(cells: "list[EdfCell]", app: str,
                     figure_name: str) -> str:
    """Text artifact for a Figures 9-12 panel from cells."""
    policies = []
    for cell in cells:
        if cell.policy not in policies:
            policies.append(cell.policy)
    settings = []
    for cell in cells:
        if cell.setting not in settings:
            settings.append(cell.setting)
    index = {(cell.policy, cell.setting): cell for cell in cells}
    rows = [[policy] + [round(index[(policy, setting)].relative_product, 3)
                        for setting in settings]
            for policy in policies]
    table = render_table(
        f"{figure_name}: relative energy-delay^2-fallibility^2 ({app}), "
        "vs Cr=1/no-detection",
        ["recovery scheme"] + [str(setting) for setting in settings], rows)
    # The paper presents these as bar charts clipped at 2; mirror that.
    bars = [(f"{cell.policy}/{cell.setting}", cell.relative_product)
            for cell in cells]
    chart = render_bar_chart(f"{figure_name} ({app}) as bars (axis "
                             "clipped at 2, '>' marks overflow)",
                             bars, ceiling=2.0)
    return table + "\n\n" + chart


def average_edf_from(cells_by_app: "dict[str, list[EdfCell]]",
                     ) -> "dict[tuple[str, object], float]":
    """Figure 12(b) aggregation over already-computed per-app cells."""
    sums: "dict[tuple[str, object], list[float]]" = {}
    for cells in cells_by_app.values():
        for cell in cells:
            sums.setdefault((cell.policy, cell.setting), []).append(
                cell.relative_product)
    return {key: _mean(values) for key, values in sums.items()}


def render_average_edf(apps: "tuple[str, ...]" = NETBENCH_APPS,
                       **kwargs) -> str:
    """Figure 12(b) artifact (runs the simulations)."""
    return render_average_edf_from(average_edf_from(
        {app: edf_products(app, **kwargs) for app in apps}))


def render_average_edf_from(data: "dict[tuple[str, object], float]") -> str:
    """Figure 12(b) artifact from precomputed data."""
    policies = []
    settings = []
    for policy, setting in data:
        if policy not in policies:
            policies.append(policy)
        if setting not in settings:
            settings.append(setting)
    rows = [[policy] + [round(data[(policy, setting)], 3)
                        for setting in settings]
            for policy in policies]
    return render_table(
        "Figure 12(b): relative energy-delay^2-fallibility^2, "
        "average of all applications",
        ["recovery scheme"] + [str(setting) for setting in settings], rows)
