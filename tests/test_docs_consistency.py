"""Documentation consistency: DESIGN.md's experiment index stays real.

The repo's contract is that every table/figure id in DESIGN.md maps to a
bench that regenerates it and (for the paper artifacts) a CLI command.
These tests keep the docs honest as the code evolves.
"""

import pathlib
import re

import pytest

from repro.harness.cli import ARTIFACTS

ROOT = pathlib.Path(__file__).parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text()
BENCH_SOURCES = "\n".join(path.read_text()
                          for path in (ROOT / "benchmarks").glob("*.py"))

PAPER_IDS = ["table1", "fig1b", "fig2b", "fig3", "fig4", "fig5",
             "fig6", "fig7", "fig8", "fig9a", "fig9b", "fig10a",
             "fig10b", "fig11a", "fig11b", "fig12a", "fig12b"]


class TestExperimentIndex:
    @pytest.mark.parametrize("experiment_id", PAPER_IDS)
    def test_paper_artifact_listed_in_design(self, experiment_id):
        assert experiment_id in DESIGN

    @pytest.mark.parametrize("experiment_id", PAPER_IDS)
    def test_paper_artifact_has_cli_renderer(self, experiment_id):
        assert experiment_id in ARTIFACTS

    def test_cli_renders_exactly_the_paper_artifacts(self):
        assert set(ARTIFACTS) == set(PAPER_IDS)

    def test_design_bench_references_exist(self):
        # Every benchmarks/<file>.py DESIGN.md references must exist.
        for name in re.findall(r"benchmarks/(test_\w+\.py)", DESIGN):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_extension_ids_have_emitting_benches(self):
        for experiment_id in re.findall(r"\| (ext_\w+|ablation_\w+) \|",
                                        DESIGN):
            if "{" in experiment_id:
                continue
            assert (f'"{experiment_id}"' in BENCH_SOURCES
                    or f'f"{experiment_id.split("{")[0]}' in BENCH_SOURCES), (
                experiment_id)

    def test_paper_identity_check_recorded(self):
        assert "Paper identity check" in DESIGN

    def test_headline_claims_section_present(self):
        assert "Headline claims" in DESIGN


class TestReadmeClaims:
    def test_readme_mentions_all_examples(self):
        readme = (ROOT / "README.md").read_text()
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in readme, example.name

    def test_experiments_doc_covers_every_paper_artifact(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for heading in ("Table I", "Figure 1(b)", "Figure 2(b)",
                        "Figure 3", "Figure 4", "Figure 5",
                        "Figures 6 and 7", "Figure 8", "Figures 9–12"):
            assert heading in experiments, heading
