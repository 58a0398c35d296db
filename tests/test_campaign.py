"""Single-fault AVF campaigns (harness.campaign)."""

import pytest

from repro.core.recovery import NO_DETECTION, TWO_STRIKE
from repro.harness.campaign import (
    CampaignResult,
    SingleFaultInjector,
    Trial,
    render_campaign,
    run_campaign,
)
from repro.harness.experiment import run_experiment
from tests.strategies import make_config


def campaign_config(**overrides):
    """The AVF-campaign base config (ExperimentConfig defaults: seed 7,
    no detection, 10x fault scale), sized per test via overrides."""
    defaults = dict(app="crc", seed=7, packet_count=60, cycle_time=0.5,
                    policy=NO_DETECTION, fault_scale=10.0)
    defaults.update(overrides)
    return make_config(**defaults)


class TestSingleFaultInjector:
    def test_fires_exactly_once_at_target(self):
        injector = SingleFaultInjector(target_access=3)
        events = [injector.draw(0.5, 32) for _ in range(10)]
        fired = [index for index, event in enumerate(events)
                 if event is not None]
        assert fired == [3]
        assert injector.fired

    def test_single_bit_within_width(self):
        injector = SingleFaultInjector(target_access=0, bit_seed=5)
        event = injector.draw(0.5, 16)
        assert event.flip_count == 1
        assert 0 <= event.bit_positions[0] < 16

    def test_never_fires_past_range(self):
        injector = SingleFaultInjector(target_access=1 << 62)
        assert all(injector.draw(0.5, 32) is None for _ in range(100))
        assert not injector.fired
        assert injector._access_count == 100

    def test_disabled_injector_does_not_count(self):
        injector = SingleFaultInjector(target_access=0)
        injector.enabled = False
        assert injector.draw(0.5, 32) is None
        assert injector._access_count == 0

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            SingleFaultInjector(target_access=-1)

    def test_integration_with_run_experiment(self):
        injector = SingleFaultInjector(target_access=500, bit_seed=3)
        result = run_experiment(
            campaign_config(packet_count=30, cycle_time=1.0),
            injector_override=injector)
        assert injector.fired
        assert result.injected_faults == 1
        assert len(result.fault_sites) == 1


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(campaign_config(), trials=20, seed=3)

    def test_every_trial_fires(self, campaign):
        assert len(campaign.fired_trials) == 20

    def test_structures_attributed(self, campaign):
        structures = {trial.structure for trial in campaign.fired_trials}
        assert structures <= {"crc_table", "crc_packet_buffer", None}
        assert structures - {None}

    def test_conversion_bounded(self, campaign):
        assert 0.0 <= campaign.error_conversion <= 1.0

    def test_per_structure_totals(self, campaign):
        table = campaign.per_structure()
        assert sum(landed for landed, _ in table.values()) == 20
        for landed, harmful in table.values():
            assert 0 <= harmful <= landed

    def test_render(self, campaign):
        text = render_campaign(campaign)
        assert "AVF" in text
        assert "crc" in text

    def test_trial_count_validated(self):
        with pytest.raises(ValueError):
            run_campaign(campaign_config(packet_count=10, cycle_time=1.0),
                         trials=0)

    def test_replay_backend_refused(self):
        # A scripted injector needs the faithful kernel; replay would
        # silently price the config's own fault law instead.
        with pytest.raises(ValueError, match="backend='execute'"):
            run_campaign(campaign_config(packet_count=10, backend="replay"),
                         trials=1)

    def test_detection_lowers_conversion(self):
        exposed = run_campaign(campaign_config(), trials=20, seed=3)
        protected = run_campaign(campaign_config(policy=TWO_STRIKE),
                                 trials=20, seed=3)
        assert protected.error_conversion <= exposed.error_conversion
