"""L1 geometry knobs and route RFC 1812 drop semantics."""

import pytest

from repro.apps.app_route import RouteApp
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.net.packet import Packet
from repro.net.trace import RoutePrefix
from tests.test_apps import PREFIXES, run_app
from tests.conftest import build_test_environment


class TestL1GeometryKnobs:
    def test_smaller_cache_misses_more(self):
        big = run_experiment(ExperimentConfig(
            app="tl", packet_count=60, fault_scale=0.0,
            l1_size_bytes=8192))
        small = run_experiment(ExperimentConfig(
            app="tl", packet_count=60, fault_scale=0.0,
            l1_size_bytes=1024))
        assert small.l1d_miss_rate > big.l1d_miss_rate

    def test_associativity_reduces_conflicts(self):
        direct = run_experiment(ExperimentConfig(
            app="route", packet_count=60, fault_scale=0.0,
            l1_associativity=1))
        four_way = run_experiment(ExperimentConfig(
            app="route", packet_count=60, fault_scale=0.0,
            l1_associativity=4))
        assert four_way.l1d_miss_rate <= direct.l1d_miss_rate

    @pytest.mark.parametrize("kwargs", [
        dict(l1_size_bytes=100), dict(l1_size_bytes=32),
        dict(l1_associativity=0)])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(app="crc", **kwargs)


class TestRouteDropSemantics:
    def test_golden_packets_are_forwarded(self, env):
        app = RouteApp(env, PREFIXES)
        [obs] = run_app(app, [Packet(source=1, destination=0xC0A80105,
                                     ttl=64)])
        assert obs["route_entry"][0] == 43
        assert app.dropped_checksum == 0
        assert app.dropped_ttl == 0

    def test_expired_ttl_dropped(self, env):
        app = RouteApp(env, PREFIXES)
        [obs] = run_app(app, [Packet(source=1, destination=0xC0A80105,
                                     ttl=1)])
        assert obs["route_entry"] == ("drop", "ttl")
        assert obs["ttl"] == RouteApp.VERDICT_DROP_TTL
        assert app.dropped_ttl == 1

    def test_corrupted_checksum_dropped(self):
        # Corrupt a header byte architecturally between copy and
        # verification by overriding the packet image: simplest is a
        # packet whose wire bytes we damage through a subclass.
        env = build_test_environment()
        app = RouteApp(env, PREFIXES)
        app.run_control_plane()
        env.hierarchy.l1d.flush()
        packet = Packet(source=1, destination=0xC0A80105, ttl=9)
        damaged = bytearray(packet.wire_bytes[:20])
        damaged[4] ^= 0xFF  # break the identification field
        env.work(20)
        env.view.write_bytes(app.buffer.address, bytes(damaged))
        from repro.apps.checksum import checksum_region
        assert checksum_region(env, app.buffer.address, 20) != 0
        # Process a pristine packet afterwards: verdict machinery intact.
        obs = app.run_packet(packet, 0)
        assert obs["route_entry"][0] == 43


class TestDrrFairness:
    def make_app(self, scale=0.0, cycle_time=1.0, seed=5):
        from repro.apps.app_drr import DrrApp
        from repro.net.trace import flow_trace, make_prefixes
        env = build_test_environment(scale=scale, cycle_time=cycle_time,
                                     seed=seed)
        prefixes = make_prefixes(8, seed=seed)
        app = DrrApp(env, prefixes, flow_count=4)
        packets = flow_trace(160, flow_count=4, prefixes=prefixes,
                             seed=seed, payload_bytes=40)
        return app, packets

    def test_fault_free_service_is_fair(self):
        app, packets = self.make_app()
        run_app(app, packets)
        assert app.fairness_index() > 0.5  # zipf arrivals, even service

    def test_index_bounds(self):
        app, packets = self.make_app()
        run_app(app, packets)
        assert 1.0 / app.flow_count <= app.fairness_index() <= 1.0

    def test_untouched_scheduler_is_trivially_fair(self):
        app, _ = self.make_app()
        app.run_control_plane()
        assert app.fairness_index() == 1.0

    def test_served_bytes_accumulate_per_flow(self):
        app, packets = self.make_app()
        run_app(app, packets)
        total_served = sum(app.served_bytes.values())
        assert total_served > 0
        assert set(app.served_bytes) == {0, 1, 2, 3}
