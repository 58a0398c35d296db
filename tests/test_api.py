"""The public facade (repro.api): completeness, self-containment, lint."""

import repro.api as api
from repro.analysis import lint_source, make_rules


def facade_findings(source):
    return [finding for finding in
            lint_source(source, "repro/api.py", make_rules())
            if finding.rule == "private-import"]


class TestFacadeSurface:
    def test_every_export_is_bound(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_all_is_sorted_and_public(self):
        assert api.__all__ == sorted(api.__all__)
        assert not any(name.startswith("_") for name in api.__all__)

    def test_run_layers_covered(self):
        # The four documented layers of use each have their anchors.
        for name in ("ExperimentConfig", "run_experiment",      # single runs
                     "CampaignEngine", "sweep",                 # campaigns
                     "ResultStore", "config_key",               # persistence
                     "policy_by_name", "Tracer"):               # policies
            assert name in api.__all__


class TestFacadeEndToEnd:
    def test_single_run_through_facade_only(self):
        config = api.ExperimentConfig(
            app="tl", packet_count=15, seed=3, cycle_time=0.5,
            policy=api.TWO_STRIKE, fault_scale=30.0)
        result = api.run_experiment(config)
        assert result.config == config
        clone = api.ExperimentResult.from_json(result.to_json())
        assert repr(clone) == repr(result)

    def test_cached_campaign_through_facade_only(self, tmp_path):
        config = api.ExperimentConfig(
            app="crc", packet_count=15, seed=5, cycle_time=0.5,
            policy=api.ONE_STRIKE, fault_scale=30.0)
        engine = api.CampaignEngine(store=api.ResultStore(tmp_path))
        [cold] = engine.run([config])
        warm = api.CampaignEngine(store=api.ResultStore(tmp_path))
        [hit] = warm.run([config])
        assert repr(hit) == repr(cold)
        assert warm.counters.get("campaign.simulated") == 0
        key = api.config_key(config)
        assert key in api.ResultStore(tmp_path)


class TestFacadeLintRule:
    def test_real_facade_is_clean(self):
        import inspect
        assert facade_findings(inspect.getsource(api)) == []

    def test_flags_import_outside_repro(self):
        findings = facade_findings(
            "import json\n__all__ = []\n")
        assert any("bound locally" in finding.message
                   for finding in findings)

    def test_flags_from_import_outside_repro(self):
        findings = facade_findings(
            "from os.path import join\n__all__ = ['join']\n")
        assert any("outside repro/" in finding.message
                   for finding in findings)

    def test_future_import_allowed(self):
        source = ("from __future__ import annotations\n"
                  "from repro.harness.config import ExperimentConfig\n"
                  "__all__ = ['ExperimentConfig']\n")
        assert facade_findings(source) == []

    def test_flags_missing_all(self):
        findings = facade_findings(
            "from repro.harness.config import ExperimentConfig\n")
        assert any("__all__" in finding.message for finding in findings)

    def test_flags_unbound_export(self):
        findings = facade_findings(
            "from repro.harness.config import ExperimentConfig\n"
            "__all__ = ['ExperimentConfig', 'Ghost']\n")
        assert any("never binds" in finding.message
                   for finding in findings)

    def test_flags_private_export(self):
        findings = facade_findings(
            "from repro.harness.config import _secret\n"
            "__all__ = ['_secret']\n")
        assert any("private name" in finding.message
                   for finding in findings)

    def test_rule_scoped_to_facade_module(self):
        # The same source in a non-facade module is not facade-audited.
        findings = [
            finding for finding in lint_source(
                "import json\nx = json.dumps({})\n",
                "repro/harness/other.py", make_rules())
            if finding.rule == "private-import"]
        assert findings == []
