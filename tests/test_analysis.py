"""Tests for repro.analysis (reprolint).

Per-rule fixtures (one violating, one clean), suppressions, CLI
behaviour (text/JSON/GitHub formats, removed options), and meta-tests
asserting the real repository tree lints clean and every module under
``repro`` imports.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.analysis.base import RULE_REGISTRY
from repro.analysis.engine import (
    lint_paths,
    lint_source,
    make_rules,
    module_name_for,
)
from repro.analysis.cli import main as lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def findings_for(source, path="repro/core/fixture.py"):
    return lint_source(source, path, make_rules())


def rules_hit(source, path="repro/core/fixture.py"):
    return {f.rule for f in findings_for(source, path)}


# -- rule registry ------------------------------------------------------------

def test_all_five_rules_registered():
    assert set(RULE_REGISTRY) == {"determinism", "sim-memory", "layering",
                                  "private-import", "float-equality"}


def test_rules_document_rationale():
    for rule_class in RULE_REGISTRY.values():
        assert rule_class.short
        assert rule_class.rationale


# -- determinism --------------------------------------------------------------

def test_determinism_flags_module_level_random():
    assert "determinism" in rules_hit(
        "import random\nx = random.randint(0, 5)\n")


def test_determinism_flags_from_random_import():
    assert "determinism" in rules_hit("from random import shuffle\n")


def test_determinism_allows_seeded_random_instance():
    clean = ("import random\n"
             "rng = random.Random(42)\n"
             "x = rng.random()\n")
    assert rules_hit(clean) == set()


def test_determinism_flags_argless_random_instance():
    findings = findings_for("import random\nrng = random.Random()\n")
    assert [f.rule for f in findings] == ["determinism"]
    assert "OS entropy" in findings[0].message


def test_determinism_flags_wall_clock():
    assert "determinism" in rules_hit("import time\nt = time.time()\n")
    assert "determinism" in rules_hit(
        "from datetime import datetime\nd = datetime.now()\n")
    assert "determinism" in rules_hit("import os\nb = os.urandom(8)\n")


def test_determinism_flags_unseeded_numpy_random():
    assert "determinism" in rules_hit(
        "import numpy\nx = numpy.random.random()\n")
    assert "determinism" in rules_hit(
        "import numpy as np\nx = np.random.rand(4)\n")
    assert "determinism" in rules_hit(
        "import numpy as np\nrng = np.random.default_rng()\n")
    assert "determinism" in rules_hit(
        "import numpy as np\nrng = np.random.RandomState()\n")


def test_determinism_allows_seeded_numpy_generators():
    assert rules_hit(
        "import numpy as np\nrng = np.random.default_rng(42)\n") == set()
    assert rules_hit(
        "import numpy as np\nrng = np.random.default_rng(seed=42)\n") == set()
    assert rules_hit(
        "import numpy\nrng = numpy.random.RandomState(7)\n") == set()


def test_determinism_flags_profiling_clock_outside_measurement():
    assert "determinism" in rules_hit(
        "import time\nt = time.perf_counter()\n")
    assert "determinism" in rules_hit(
        "from time import process_time\n")
    assert "determinism" in rules_hit(
        "import time\nt = time.perf_counter_ns()\n",
        "repro/mem/fixture.py")


def test_determinism_allows_profiling_clock_in_measurement_context():
    source = "import time\nt = time.perf_counter()\n"
    assert rules_hit(source, "repro/harness/fixture.py") == set()
    assert rules_hit(source, "repro/telemetry/fixture.py") == set()
    assert rules_hit("from time import perf_counter\n",
                     "repro/harness/fixture.py") == set()


def test_determinism_measurement_context_keeps_wall_clock_forbidden():
    """The carve-out covers profiling clocks only, not time.time()."""
    assert "determinism" in rules_hit(
        "import time\nt = time.time()\n", "repro/harness/fixture.py")


def test_determinism_flags_environment_reads():
    assert "determinism" in rules_hit(
        "import os\nv = os.environ['KNOB']\n")
    assert "determinism" in rules_hit(
        "import os\nv = os.getenv('KNOB')\n")


def test_determinism_allows_environment_reads_in_measurement_context():
    source = "import os\nv = os.environ.get('KNOB')\n"
    assert rules_hit(source, "repro/harness/fixture.py") == set()
    assert rules_hit("import os\nv = os.getenv('KNOB')\n",
                     "repro/telemetry/fixture.py") == set()


def test_determinism_flags_set_iteration():
    assert "determinism" in rules_hit(
        "for item in {1, 2, 3}:\n    print(item)\n")
    assert "determinism" in rules_hit(
        "values = [x for x in set(range(4))]\n")
    assert "determinism" in rules_hit("items = list({1, 2})\n")


def test_determinism_allows_sorted_set_iteration():
    assert rules_hit(
        "for item in sorted({3, 1, 2}):\n    print(item)\n") == set()


# -- sim-memory ---------------------------------------------------------------

VIOLATING_APP = """\
class EvilApp(NetBenchApp):
    def __init__(self, env):
        self.cache = {}
    def process_packet(self, packet, index):
        self.cache[index] = packet
        self.last = packet
        self.history.append(index)
"""

CLEAN_APP = """\
class GoodApp(NetBenchApp):
    def __init__(self, env):
        self.buffer = env.allocator.alloc("buf", 64)
    def control_plane(self):
        self.table = 3
    def process_packet(self, packet, index):
        value = self.env.view.read_u32(self.buffer.address)
        self.env.work(4)
        return {"value": value}
"""


def test_sim_memory_flags_host_state_in_data_plane():
    findings = findings_for(VIOLATING_APP, "repro/apps/evil.py")
    assert sum(1 for f in findings if f.rule == "sim-memory") == 3


def test_sim_memory_clean_app_passes():
    assert rules_hit(CLEAN_APP, "repro/apps/good.py") == set()


def test_sim_memory_flags_hierarchy_bypass():
    source = ("def helper(env):\n"
              "    return env.hierarchy.read(0, 4)\n")
    assert "sim-memory" in rules_hit(source, "repro/apps/bad.py")
    inspect_ok = ("def helper(env):\n"
                  "    return env.hierarchy.inspect(0, 4)\n")
    assert rules_hit(inspect_ok, "repro/apps/ok.py") == set()


def test_sim_memory_scoped_to_apps():
    assert rules_hit(VIOLATING_APP, "repro/harness/evil.py") == set()


# -- layering -----------------------------------------------------------------

def test_layering_flags_upward_import():
    assert "layering" in rules_hit(
        "from repro.harness.config import ExperimentConfig\n",
        "repro/mem/fixture.py")


def test_layering_flags_lazy_upward_import():
    source = ("def render():\n"
              "    from repro.harness.report import render_table\n"
              "    return render_table\n")
    assert "layering" in rules_hit(source, "repro/telemetry/fixture.py")


def test_layering_flags_telemetry_from_non_consumer():
    findings = findings_for("import repro.telemetry.tracer\n",
                            "repro/apps/fixture.py")
    assert any(f.rule == "layering" and "non-perturbing" in f.message
               for f in findings)


def test_layering_allows_declared_edges():
    assert rules_hit("from repro.core import constants\n",
                     "repro/mem/fixture.py") == set()
    assert rules_hit("from repro.telemetry.tracer import NULL_TRACER\n",
                     "repro/mem/fixture.py") == set()
    assert rules_hit("from repro.util.text import render_table\n",
                     "repro/telemetry/fixture.py") == set()


def test_layering_resolves_relative_imports():
    assert "layering" in rules_hit("from ..harness import config\n",
                                   "repro/mem/fixture.py")


def test_one_import_by_module_name():
    # The layering rule reads import statements only, so a module
    # imported by name is a crossing it cannot see.  The harness has
    # exactly one, harness.experiment.replay_backend(); a second would
    # be a new unchecked edge.
    source_root = os.path.join(REPO_ROOT, "src", "repro")
    callers = []
    for directory, _, names in sorted(os.walk(source_root)):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            callers.extend(
                os.path.relpath(path, source_root)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Attribute, ast.Name))
                and getattr(node.func, "attr",
                            getattr(node.func, "id", None))
                == "import_module")
    assert callers == [os.path.join("harness", "experiment.py")]


# -- private-import -----------------------------------------------------------

def test_private_import_flagged():
    assert "private-import" in rules_hit(
        "from repro.mem.cache import _evict_line\n",
        "repro/harness/fixture.py")


def test_private_attribute_access_flagged():
    source = ("from repro.apps import radix\n"
              "offset = radix._FNV_PRIME\n")
    assert "private-import" in rules_hit(source, "repro/apps/fixture.py")


def test_public_import_clean():
    assert rules_hit("from repro.mem.cache import Cache\n",
                     "repro/harness/fixture.py") == set()


# -- float-equality -----------------------------------------------------------

def test_float_equality_flagged():
    assert "float-equality" in rules_hit(
        "if result.total_energy == baseline:\n    pass\n")
    assert "float-equality" in rules_hit(
        "ok = delay_per_packet != 0.0\n")


def test_float_comparison_with_tolerance_clean():
    assert rules_hit(
        "import math\nok = math.isclose(total_energy, 3.0)\n") == set()
    assert rules_hit("if packet_count == 3:\n    pass\n") == set()


# -- suppression --------------------------------------------------------------

def test_line_suppression_single_rule():
    source = ("import random\n"
              "x = random.random()  # reprolint: disable=determinism\n")
    assert rules_hit(source) == set()


def test_line_suppression_does_not_leak_to_other_rules():
    source = ("from repro.harness import config  "
              "# reprolint: disable=determinism\n")
    assert "layering" in rules_hit(source, "repro/mem/fixture.py")


def test_line_suppression_all():
    source = ("import random\n"
              "x = random.random()  # reprolint: disable=all\n")
    assert rules_hit(source) == set()


def test_unknown_suppression_id_is_a_finding():
    """A suppression naming no registered rule silences nothing."""
    source = ("import random\n"
              "x = random.random()  # reprolint: disable=determinism,gone\n"
              "y = [1]  # reprolint: disable=hot-path-alloc (deleted rule)\n")
    findings = findings_for(source)
    assert [(f.rule, f.line) for f in findings] == [
        ("unknown-suppression", 2), ("unknown-suppression", 3)]
    assert "'gone'" in findings[0].message
    assert "'hot-path-alloc'" in findings[1].message


# -- engine plumbing ----------------------------------------------------------

def test_module_name_for_real_and_fixture_trees():
    assert module_name_for("src/repro/mem/cache.py") == "repro.mem.cache"
    assert module_name_for("/tmp/x/repro/apps/evil.py") == "repro.apps.evil"
    assert module_name_for("src/repro/apps/__init__.py") == "repro.apps"
    assert module_name_for("tests/test_analysis.py") is None


def test_syntax_error_becomes_finding(tmp_path):
    bad = tmp_path / "repro" / "core"
    bad.mkdir(parents=True)
    (bad / "broken.py").write_text("def f(:\n")
    findings = lint_paths([str(tmp_path)], make_rules())
    assert [f.rule for f in findings] == ["parse-error"]


# -- CLI ----------------------------------------------------------------------

def make_fixture_tree(tmp_path):
    """A fixture tree with one violation of each shipped rule."""
    root = tmp_path / "repro"
    (root / "apps").mkdir(parents=True)
    (root / "mem").mkdir()
    (root / "core").mkdir()
    (root / "core" / "bad.py").write_text(
        "import random\n"
        "from repro.mem.cache import _evict\n"
        "x = random.random()\n"
        "ok = total_energy == 1.0\n")
    (root / "mem" / "bad.py").write_text(
        "from repro.harness.config import ExperimentConfig\n")
    (root / "apps" / "bad.py").write_text(
        "class EvilApp(NetBenchApp):\n"
        "    def process_packet(self, packet, index):\n"
        "        self.seen = packet\n")
    return tmp_path


def make_random_tree(tmp_path):
    """A fixture tree with one determinism finding on line 2."""
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    return str(tmp_path)


def test_cli_nonzero_on_fixture_with_every_rule(tmp_path, capsys):
    tree = make_fixture_tree(tmp_path)
    exit_code = lint_main([str(tree)])
    out = capsys.readouterr().out
    assert exit_code == 1
    for rule_id in ("determinism", "sim-memory", "layering",
                    "private-import", "float-equality"):
        assert rule_id in out


def test_cli_json_round_trips(tmp_path, capsys):
    tree = make_fixture_tree(tmp_path)
    exit_code = lint_main([str(tree), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["errors"] == len(payload["findings"]) > 0
    rules_seen = {f["rule"] for f in payload["findings"]}
    assert {"determinism", "sim-memory", "layering", "private-import",
            "float-equality"} <= rules_seen
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "column",
                                "message", "source_line"}


def test_cli_github_format_annotations(tmp_path, capsys):
    exit_code = lint_main([make_random_tree(tmp_path), "--format", "github"])
    out = capsys.readouterr().out
    assert exit_code == 1
    lines = out.strip().splitlines()
    annotation = lines[0]
    assert annotation.startswith("::error file=")
    assert ",line=2," in annotation
    assert "col=" in annotation
    assert "::determinism:" in annotation
    assert lines[-1].startswith("reprolint: 1 error(s)")


def test_cli_github_format_escapes_percent(tmp_path, capsys):
    """Workflow-command grammar: % in messages must arrive as %25."""
    lint_main([make_random_tree(tmp_path), "--format", "github"])
    out = capsys.readouterr().out
    assert "%" not in out.replace("%25", "").replace("%0A", "") \
        .replace("%0D", "")


@pytest.mark.parametrize("option", [
    "--project", "--profile=tests", "--disable=determinism",
    "--warning=determinism", "--baseline=reprolint-baseline.json",
    "--no-baseline", "--write-baseline", "--json"])
def test_cli_removed_options_are_usage_errors(option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        lint_main(["--list-rules", option])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_REGISTRY:
        assert rule_id in out


# -- the real tree ------------------------------------------------------------

def test_real_tree_lints_clean():
    """``python -m repro lint`` exits 0 on the repository itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 error(s) in src/repro" in result.stdout


def test_real_tree_json_output_round_trips():
    findings = lint_paths([os.path.join(REPO_ROOT, "src", "repro")],
                          make_rules())
    payload = json.dumps([f.to_dict() for f in findings])
    assert json.loads(payload) == []


def test_every_repro_module_imports():
    """A renamed or deleted import target fails here, not at first call."""
    imported = []
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name != "repro.__main__":  # runs the CLI on import
            importlib.import_module(module.name)
            imported.append(module.name)
    assert "repro.analysis.rules.determinism" in imported
    assert "repro.replay.backend" in imported
