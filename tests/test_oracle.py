"""The verification oracle: twins, invariants, fuzzer, and the check CLI.

The acceptance bar for the oracle is falsifiability: each mechanism must
demonstrably fire when a defect is seeded.  These meta-tests seed
defects three ways -- tampered result fields for the differential diff,
doctored sweep outputs for the invariant registry, and a config-shaped
defect predicate for the fuzzer -- and assert the mechanisms catch them,
alongside the clean-path checks that the real simulator passes.
"""

import importlib
import json
import pathlib
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.harness.config import ExperimentConfig
from repro.harness.engine import CampaignEngine
from repro.harness.experiment import run_experiment
from repro.oracle.check import MODES, run_check
from repro.oracle.cli import main as check_main
from repro.oracle.differential import (
    DIFFERENTIAL_PATHS,
    compare_fault_statistics,
    diff_results,
    run_differential,
)
from repro.oracle.fuzz import (
    CONFIG_SPACE,
    ConfigFuzzer,
    build_config,
    config_size,
    invariant_probe,
    replay_corpus_entry,
    run_fuzz,
    shrink_config,
)
from repro.oracle.invariants import (
    INVARIANT_REGISTRY,
    Invariant,
    check_invariants,
    per_result_invariant_ids,
    proportion_significantly_greater,
    register_invariant,
)
from repro.telemetry.metrics import CounterSet
from tests.strategies import experiment_configs, make_config


@pytest.fixture(scope="module")
def single_result():
    return run_experiment(make_config())


@pytest.fixture(scope="module")
def sweep_results():
    """A tiny crc sweep spanning cycle times and recovery policies."""
    from repro.core.recovery import NO_DETECTION, TWO_STRIKE
    configs = [
        make_config(app="crc", cycle_time=cycle_time, policy=policy)
        for cycle_time in (1.0, 0.5)
        for policy in (NO_DETECTION, TWO_STRIKE)
    ]
    return CampaignEngine().run(configs)


class TestDifferential:
    def test_identical_results_diff_clean(self, single_result):
        assert diff_results("workers", single_result, single_result) == []

    def test_tampered_field_is_caught(self, single_result):
        tampered = replace(single_result,
                           erroneous_packets=single_result.erroneous_packets
                           + 1)
        divergences = diff_results("workers", single_result, tampered)
        assert [d.field for d in divergences] == ["erroneous_packets"]
        assert divergences[0].kind == "exact"
        assert single_result.config.label in divergences[0].render()

    def test_ignore_filter_suppresses_field(self, single_result):
        tampered = replace(single_result, cycles=single_result.cycles + 1)
        assert diff_results("cache", single_result, tampered,
                            ignore=("cycles",)) == []

    def test_doctored_fault_counts_fail_statistically(self):
        config = make_config(app="crc")
        replicas = [run_experiment(replace(config, seed=seed))
                    for seed in (7, 11, 23)]
        # Seeded defect: one injector path claims faults on half of all
        # accesses -- a grossly different fault law.
        doctored = [replace(result,
                            injected_faults=result.l1d_accesses // 2)
                    for result in replicas]
        divergences = compare_fault_statistics(replicas, doctored)
        assert "fault_rate" in [d.field for d in divergences]
        assert all(d.kind == "statistical" for d in divergences
                   if d.field == "fault_rate")

    def test_equivalent_replicas_pass_statistically(self):
        config = make_config(app="crc")
        replicas = [run_experiment(replace(config, seed=seed))
                    for seed in (7, 11, 23)]
        assert compare_fault_statistics(replicas, replicas) == []

    def test_replica_lists_must_match(self, single_result):
        with pytest.raises(ValueError):
            compare_fault_statistics([single_result], [])

    def test_run_differential_clean_on_default_config(self):
        counters = CounterSet()
        divergences = run_differential(make_config(), seeds=(7, 11),
                                       counters=counters)
        assert divergences == []
        assert (counters.get("oracle.differential.paths")
                == len(DIFFERENTIAL_PATHS))
        assert counters.get("oracle.differential.divergences") == 0

    def test_run_differential_validates(self):
        with pytest.raises(ValueError):
            run_differential(make_config(), paths=("nope",))
        with pytest.raises(ValueError):
            run_differential(make_config(), seeds=())

    def test_replay_twin_is_a_differential_path(self):
        assert "replay" in DIFFERENTIAL_PATHS

    def test_replay_twin_clean_on_small_config(self):
        counters = CounterSet()
        divergences = run_differential(make_config(), seeds=(7, 11),
                                       paths=("replay",),
                                       counters=counters)
        assert divergences == []
        assert counters.get("oracle.differential.paths") == 1

    def test_replay_twin_catches_tampered_backend(self, monkeypatch):
        """Falsifiability: a replay backend that mispaints one count is
        caught by the twin's exact fault-free arm."""
        from repro.replay import backend as replay_backend

        real = replay_backend.run_replay

        def tampered(configs, counters):
            results = real(configs, counters)
            return [replace(result,
                            instructions=result.instructions + 1)
                    for result in results]

        monkeypatch.setattr(replay_backend, "run_replay", tampered)
        divergences = run_differential(make_config(), seeds=(7,),
                                       paths=("replay",))
        assert any(d.field == "instructions" for d in divergences)


class TestInvariants:
    def test_clean_sweep_passes(self, sweep_results):
        counters = CounterSet()
        assert check_invariants(sweep_results, counters=counters) == []
        assert (counters.get("oracle.invariants.checked")
                == len(INVARIANT_REGISTRY))

    def test_error_accounting_catches_overcount(self, single_result):
        doctored = replace(single_result,
                           erroneous_packets=single_result.processed_packets
                           + 1)
        violations = check_invariants([doctored],
                                      only=("error-accounting",))
        assert violations
        assert all(v.invariant == "error-accounting" for v in violations)

    def test_zero_faults_golden_catches_phantom_errors(self):
        clean = run_experiment(make_config(fault_scale=0.0))
        assert clean.injected_faults == 0
        doctored = replace(clean, erroneous_packets=1)
        violations = check_invariants([doctored],
                                      only=("zero-faults-golden",))
        assert [v.invariant for v in violations] == ["zero-faults-golden"]

    def test_dvs_catches_non_adjacent_jump(self):
        result = run_experiment(make_config(
            cycle_time=1.0, dynamic=True, packet_count=120,
            fault_scale=0.0))
        assert result.cycle_history == (1.0, 0.75)
        doctored = replace(result, cycle_history=(1.0, 0.25))
        violations = check_invariants([doctored], only=("dvs-epochs",))
        assert violations and "adjacent" in violations[0].message

    def test_recovery_monotone_catches_doctored_errors(self, sweep_results):
        weaker, stronger = sweep_results[0], sweep_results[1]
        assert weaker.config.policy.name == "no-detection"
        assert stronger.config.policy.name == "two-strike"
        doctored = replace(stronger,
                           erroneous_packets=stronger.processed_packets)
        violations = check_invariants([weaker, doctored],
                                      only=("recovery-monotone",))
        assert [v.invariant for v in violations] == ["recovery-monotone"]

    def test_fault_rate_monotone_catches_inversion(self, sweep_results):
        nominal, overclocked = sweep_results[0], sweep_results[2]
        assert nominal.config.cycle_time == 1.0
        assert overclocked.config.cycle_time == 0.5
        doctored_slow = replace(nominal,
                                injected_faults=nominal.l1d_accesses // 2)
        doctored_fast = replace(overclocked, injected_faults=0)
        violations = check_invariants([doctored_slow, doctored_fast],
                                      only=("fault-rate-monotone",))
        assert [v.invariant for v in violations] == ["fault-rate-monotone"]

    def test_register_rejects_duplicates_and_empty_ids(self):
        with pytest.raises(ValueError):
            @register_invariant
            class Duplicate(Invariant):
                id = "error-accounting"
        with pytest.raises(ValueError):
            @register_invariant
            class Anonymous(Invariant):
                id = ""
        assert "error-accounting" in INVARIANT_REGISTRY

    def test_registered_invariant_runs(self, single_result):
        @register_invariant
        class AlwaysFires(Invariant):
            id = "test-always-fires"
            per_result = True

            def check(self, results):
                for result in results:
                    yield self.violation("seeded defect",
                                         config=result.config.label)
        try:
            violations = check_invariants([single_result],
                                          only=("test-always-fires",))
            assert [v.invariant for v in violations] == ["test-always-fires"]
            assert "test-always-fires" in per_result_invariant_ids()
        finally:
            del INVARIANT_REGISTRY["test-always-fires"]

    def test_unknown_only_id_raises(self, single_result):
        with pytest.raises(ValueError):
            check_invariants([single_result], only=("no-such-invariant",))

    def test_proportion_test_never_rejects_degenerate_inputs(self):
        assert not proportion_significantly_greater(0, 0, 0, 0)
        assert not proportion_significantly_greater(5, 10, 5, 10)
        assert not proportion_significantly_greater(10, 10, 10, 10)
        assert proportion_significantly_greater(500, 1000, 10, 1000)


def _planes_defect(config: ExperimentConfig) -> "tuple[str, ...]":
    """A seeded config-shaped defect: every planes='none' config fails."""
    return ("seeded defect: planes=none",) if config.planes == "none" else ()


class TestFuzz:
    def test_every_axis_value_builds_a_valid_config(self):
        baseline = {axis: 0 for axis in CONFIG_SPACE}
        assert isinstance(build_config(baseline), ExperimentConfig)
        for axis, options in CONFIG_SPACE.items():
            for index in range(len(options)):
                choices = dict(baseline)
                choices[axis] = index
                build_config(choices)  # must not raise

    def test_build_config_validates_choices(self):
        with pytest.raises(ValueError):
            build_config({"app": 0})
        bad = {axis: 0 for axis in CONFIG_SPACE}
        bad["app"] = len(CONFIG_SPACE["app"])
        with pytest.raises(ValueError):
            build_config(bad)

    def test_sampling_is_seed_deterministic(self):
        first = ConfigFuzzer(seed=42)
        second = ConfigFuzzer(seed=42)
        assert [first.sample() for _ in range(5)] == [
            second.sample() for _ in range(5)]
        assert [ConfigFuzzer(seed=43).sample()
                for _ in range(5)] != [ConfigFuzzer(seed=42).sample()
                                       for _ in range(5)]

    def test_run_fuzz_is_deterministic(self):
        first = run_fuzz(30, seed=1, probe=_planes_defect, shrink=False)
        second = run_fuzz(30, seed=1, probe=_planes_defect, shrink=False)
        assert first == second

    def test_fuzzer_finds_seeded_defect_and_shrinks_it(self):
        counters = CounterSet()
        report = run_fuzz(40, seed=1, probe=_planes_defect,
                          counters=counters)
        assert not report.ok
        assert counters.get("oracle.fuzz.trials") == 40
        assert counters.get("oracle.fuzz.failures") == len(report.failures)
        planes_none = CONFIG_SPACE["planes"].index("none")
        for failure in report.failures:
            shrunk = dict(failure.shrunk_choices)
            # Minimal repro: only the defect-triggering axis is non-benign.
            assert shrunk["planes"] == planes_none
            assert config_size(shrunk) == planes_none
            assert (config_size(shrunk)
                    <= config_size(dict(failure.choices)))

    def test_shrink_produces_strictly_smaller_failing_config(self):
        choices = {axis: len(options) - 1
                   for axis, options in CONFIG_SPACE.items()}
        assert _planes_defect(build_config(choices))
        shrunk = shrink_config(choices, _planes_defect)
        assert config_size(shrunk) < config_size(choices)
        assert _planes_defect(build_config(shrunk))
        assert shrunk["planes"] == CONFIG_SPACE["planes"].index("none")
        assert all(index == 0 for axis, index in shrunk.items()
                   if axis != "planes")

    def test_shrink_requires_a_failing_config(self):
        passing = {axis: 0 for axis in CONFIG_SPACE}
        with pytest.raises(ValueError):
            shrink_config(passing, _planes_defect)

    def test_corpus_roundtrip(self, tmp_path):
        report = run_fuzz(40, seed=1, probe=_planes_defect,
                          corpus_dir=str(tmp_path))
        assert report.failures
        path = report.failures[0].corpus_path
        assert path is not None
        entry = json.loads((tmp_path / path.split("/")[-1]).read_text())
        assert entry["messages"] == ["seeded defect: planes=none"]
        config, messages = replay_corpus_entry(path, probe=_planes_defect)
        assert config.planes == "none"
        assert messages == ("seeded defect: planes=none",)
        # After the "fix", the filed repro no longer reproduces.
        fixed_config, fixed = replay_corpus_entry(
            path, probe=lambda config: ())
        assert fixed_config == config
        assert fixed == ()

    def test_replay_rejects_unknown_schema(self, tmp_path):
        bogus = tmp_path / "bad.json"
        bogus.write_text(json.dumps({"schema": "not-a-corpus"}))
        with pytest.raises(ValueError):
            replay_corpus_entry(str(bogus))

    def test_invariant_probe_passes_real_simulator(self):
        assert invariant_probe(make_config(app="crc")) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            run_fuzz(0)
        with pytest.raises(ValueError):
            run_fuzz(1, apps=("not-an-app",))
        with pytest.raises(ValueError):
            run_fuzz(1, apps=())


class TestConfigStrategy:
    @settings(max_examples=40, deadline=None)
    @given(experiment_configs())
    def test_generated_configs_are_valid_and_roundtrip(self, config):
        assert isinstance(config, ExperimentConfig)
        assert ExperimentConfig.from_json(config.to_json()) == config


class TestCheck:
    @pytest.fixture(scope="class")
    def quick_report(self):
        return run_check(mode="quick", apps=("crc",), fuzz_budget=3)

    def test_quick_check_passes_one_app(self, quick_report):
        assert quick_report.ok
        assert quick_report.apps == ("crc",)
        assert quick_report.divergences == ()
        assert quick_report.violations == ()
        assert quick_report.fuzz is not None and quick_report.fuzz.ok
        assert quick_report.counters["oracle.check.apps"] == 1
        assert quick_report.counters["oracle.check.passes"] == 1
        assert (quick_report.counters["oracle.invariants.checked"]
                == len(INVARIANT_REGISTRY))

    def test_report_render_and_json(self, quick_report):
        text = quick_report.render()
        assert "OK" in text and "crc" in text
        payload = quick_report.to_json()
        assert payload["ok"] is True
        assert payload["mode"] == "quick"
        json.dumps(payload)  # must be JSON-safe

    def test_fuzz_budget_zero_skips_fuzzing(self):
        report = run_check(mode="quick", apps=("crc",), fuzz_budget=0)
        assert report.fuzz is None
        assert report.ok

    def test_run_check_validates(self):
        with pytest.raises(ValueError):
            run_check(mode="nope")
        with pytest.raises(ValueError):
            run_check(apps=("not-an-app",))
        with pytest.raises(ValueError):
            run_check(apps=())

    def test_modes_cover_quick_and_deep(self):
        assert sorted(MODES) == ["deep", "quick"]
        assert MODES["deep"]["dynamic_packets"] > 100  # crosses an epoch

    def test_cli_exit_zero_and_json(self, capsys):
        code = check_main(["--quick", "--apps", "crc",
                           "--fuzz-budget", "0", "--quiet", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True

    def test_cli_rejects_negative_budget(self):
        with pytest.raises(SystemExit):
            check_main(["--fuzz-budget", "-1"])

    def test_module_dispatch_routes_check(self, capsys):
        from repro.__main__ import main as module_main
        code = module_main(["check", "--quick", "--apps", "crc",
                            "--fuzz-budget", "0", "--quiet"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_installed_script_runs_check(self, capsys):
        # The console script must reach the oracle, as python -m repro
        # does.  (tomllib is missing on Python 3.10, so read the line.)
        pyproject = (pathlib.Path(__file__).resolve().parents[1]
                     / "pyproject.toml").read_text()
        match = re.search(r'^repro = "([\w.]+):(\w+)"$', pyproject,
                          re.MULTILINE)
        assert match is not None, "pyproject.toml has no repro script"
        module, function = match.groups()
        script = getattr(importlib.import_module(module), function)
        with pytest.raises(SystemExit) as exited:
            script(["check", "--help"])
        assert exited.value.code == 0
        assert "--fuzz-budget" in capsys.readouterr().out
