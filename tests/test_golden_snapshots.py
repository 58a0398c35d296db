"""Snapshot regression tests for the deterministic artifacts.

The analytic figures (1b-5) depend only on the calibrated models, never on
seeds or traces, so their rendered artifacts are frozen under
``tests/golden/`` and compared byte-for-byte.  A legitimate model change
(recalibration) must update the snapshot *and* DESIGN.md's calibration
section together; this test is the tripwire.

The ``result_<app>.txt`` snapshots freeze the full default-config
:class:`ExperimentResult` repr per application.  The default config uses
the *reference* injector for its faulty run, so these guard two
invariants at once: the simulation is seed-deterministic, and the
fault-free fast lane never leaks into a faulty reference run (an extra
RNG draw, a divergent stall or energy charge shows up as a byte diff
here).  The golden run, whose observations are all a result takes from
it, rides the fast lane on every injector.

Regenerate a snapshot intentionally with::

    python - <<'PY'
    from repro.harness import figures
    open("tests/golden/fig5.txt", "w").write(figures.render_fig5() + "\\n")
    PY
"""

import json
import pathlib

import pytest

from repro.core.constants import NETBENCH_APPS
from repro.harness import figures
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

RENDERERS = {
    "fig1b": figures.render_fig1b,
    "fig2b": figures.render_fig2b,
    "fig3": figures.render_fig3,
    "fig4": figures.render_fig4,
    "fig5": figures.render_fig5,
}


@pytest.mark.parametrize("name", sorted(RENDERERS))
def test_analytic_artifact_matches_snapshot(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert RENDERERS[name]() + "\n" == expected


def test_snapshots_exist_for_every_analytic_figure():
    expected = set(RENDERERS) | {f"result_{app}" for app in NETBENCH_APPS}
    assert {path.stem for path in GOLDEN_DIR.glob("*.txt")} == expected


def test_reference_metrics_survived_the_faultmap_refactor():
    # ``pre_faultmap_metrics.json`` freezes the metric tail of each
    # default-config run, from ``offered_packets`` through
    # ``error_runs``, as it stood before any config field was added or
    # dropped.  Every ``result_<app>.txt`` snapshot must still contain
    # its fragment byte for byte: a change to the config's fields may
    # move the repr's head, never a reference number.
    frozen = json.loads((GOLDEN_DIR / "pre_faultmap_metrics.json")
                        .read_text())
    assert set(frozen) == set(NETBENCH_APPS)
    for app, fragment in frozen.items():
        snapshot = (GOLDEN_DIR / f"result_{app}.txt").read_text()
        assert fragment in snapshot, (
            f"{app}: reference metrics drifted across the fault-map "
            f"refactor")


@pytest.mark.parametrize("app", NETBENCH_APPS)
def test_default_config_result_matches_snapshot(app):
    expected = (GOLDEN_DIR / f"result_{app}.txt").read_text()
    result = run_experiment(ExperimentConfig(app=app))
    assert repr(result) + "\n" == expected


def test_result_snapshots_pin_the_reference_injector():
    # The guard is only meaningful if the frozen configs really are
    # reference-injector runs; a regenerated snapshot that silently
    # switched injectors would otherwise weaken it.
    for app in NETBENCH_APPS:
        text = (GOLDEN_DIR / f"result_{app}.txt").read_text()
        assert "injector='reference'" in text


def test_snapshots_carry_the_calibration_anchors():
    # The frozen artifacts themselves must show the paper's anchors, so a
    # regenerated-but-wrong snapshot cannot slip through quietly.
    fig5 = (GOLDEN_DIR / "fig5.txt").read_text()
    assert "2.590e-07" in fig5          # base rate at Cr = 1
    assert "2.590e-05" in fig5          # 100x at Cr = 0.25
    fig1b = (GOLDEN_DIR / "fig1b.txt").read_text()
    assert "0.5553" in fig1b            # Vsr(0.25) -> the 45% energy anchor
