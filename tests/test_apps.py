"""The seven NetBench applications: golden behaviour and observations."""

import binascii
import hashlib

import pytest

from repro.apps.app_crc import CrcApp
from repro.apps.app_drr import DrrApp
from repro.apps.app_md5 import Md5App
from repro.apps.app_nat import NatApp, PUBLIC_POOL_BASE
from repro.apps.app_route import RouteApp
from repro.apps.app_tl import TableLookupApp
from repro.apps.app_url import UrlApp
from repro.apps.base import INITIALIZATION_CATEGORY, NetBenchApp
from repro.core.constants import NETBENCH_APPS
from repro.apps.registry import make_workload
from repro.net.ip import IPV4_HEADER_BYTES, ip_to_int
from repro.net.packet import Packet
from repro.net.trace import make_prefixes, RoutePrefix
from tests.conftest import build_test_environment


PREFIXES = [RoutePrefix(0, 0, 1),
            RoutePrefix(0xC0A80000, 16, 42),
            RoutePrefix(0xC0A80100, 24, 43)]


def run_app(app, packets):
    app.run_control_plane()
    app.env.hierarchy.l1d.flush()
    return [app.run_packet(packet, index)
            for index, packet in enumerate(packets)]


class TestCrcApp:
    def test_crc_matches_binascii(self, env):
        app = CrcApp(env)
        packet = Packet(source=1, destination=2, payload=b"hello crc")
        [obs] = run_app(app, [packet])
        assert obs["crc_value"] == binascii.crc32(packet.wire_bytes)

    def test_initialization_sample_present(self, env):
        app = CrcApp(env)
        [obs] = run_app(app, [Packet(source=1, destination=2)])
        assert INITIALIZATION_CATEGORY in obs
        # all_categories() is the public enumeration of what run_packet
        # may emit: with static regions it includes the framework sample.
        assert set(obs) <= set(app.all_categories())
        assert INITIALIZATION_CATEGORY in app.all_categories()

    def test_buffers_rotate(self, env):
        app = CrcApp(env, buffer_count=2)
        packets = [Packet(source=i, destination=i, payload=bytes([i]) * 8)
                   for i in range(4)]
        run_app(app, packets)
        assert app.buffers[0].address != app.buffers[1].address


class TestMd5App:
    def test_digest_matches_hashlib(self, env):
        app = Md5App(env)
        packet = Packet(source=3, destination=4, payload=b"payload" * 9)
        [obs] = run_app(app, [packet])
        assert obs["digest"] == hashlib.md5(packet.wire_bytes).digest()

    def test_distinct_packets_distinct_digests(self, env):
        app = Md5App(env)
        packets = [Packet(source=1, destination=2, payload=b"a"),
                   Packet(source=1, destination=2, payload=b"b")]
        observations = run_app(app, packets)
        assert observations[0]["digest"] != observations[1]["digest"]


class TestTlApp:
    def test_lookup_resolves_longest_prefix(self, env):
        app = TableLookupApp(env, PREFIXES)
        packets = [Packet(source=1, destination=0xC0A80105),
                   Packet(source=1, destination=0xC0A87777),
                   Packet(source=1, destination=0x08080808)]
        observations = run_app(app, packets)
        next_hops = [obs["route_entry"][0] for obs in observations]
        assert next_hops == [43, 42, 1]

    def test_registers_static_regions(self, env):
        app = TableLookupApp(env, PREFIXES)
        app.run_control_plane()
        labels = {region.label for region in app.static_regions}
        assert labels == {"tl_nodes", "tl_entries"}

    def test_empty_table_rejected(self, env):
        with pytest.raises(ValueError):
            TableLookupApp(env, [])


class TestRouteApp:
    def test_forwarding_semantics(self, env):
        app = RouteApp(env, PREFIXES)
        packet = Packet(source=5, destination=0xC0A80105, ttl=64)
        [obs] = run_app(app, [packet])
        verify, _new_checksum = obs["checksum"]
        assert verify == 0            # incoming checksum was valid
        assert obs["ttl"] == 63       # decremented
        assert obs["route_entry"][0] == 43

    def test_rewritten_header_checksum_valid(self, env):
        from repro.apps.checksum import checksum_region
        app = RouteApp(env, PREFIXES)
        packet = Packet(source=5, destination=0xC0A80105, ttl=10)
        run_app(app, [packet])
        assert checksum_region(env, app.buffer.address,
                               IPV4_HEADER_BYTES) == 0


class TestDrrApp:
    def test_scheduler_serves_enqueued_packet(self, env):
        app = DrrApp(env, PREFIXES, flow_count=4)
        packet = Packet(source=1, destination=0xC0A80105, flow_id=2,
                        payload=b"x" * 30)
        [obs] = run_app(app, [packet])
        # The freshly enqueued packet fits one quantum: served, queue
        # empties, deficit forfeited.
        assert obs["deficit_value"] == 0
        assert obs["deficit_read"][1] == 1  # one packet dequeued

    def test_round_robin_turn_advances(self, env):
        app = DrrApp(env, PREFIXES, flow_count=2)
        packets = [Packet(source=1, destination=0xC0A80105, flow_id=0),
                   Packet(source=1, destination=0xC0A80105, flow_id=1)]
        run_app(app, packets)
        assert env.view.read_u32(app.turn.address) in (0, 1)

    def test_queue_overflow_drops(self, env):
        app = DrrApp(env, PREFIXES, flow_count=2, quantum=1)
        # Quantum 1 never serves 20-byte packets; the 8-slot ring fills.
        packets = [Packet(source=1, destination=0xC0A80105, flow_id=0)
                   for _ in range(12)]
        run_app(app, packets)
        assert app.dropped == 4

    def test_invalid_parameters_rejected(self, env):
        with pytest.raises(ValueError):
            DrrApp(env, PREFIXES, flow_count=0)
        with pytest.raises(ValueError):
            DrrApp(env, PREFIXES, flow_count=2, quantum=0)


class TestNatApp:
    def test_translation(self, env):
        source = 0x0A000005
        app = NatApp(env, PREFIXES, private_sources=[source])
        packet = Packet(source=source, destination=0xC0A80105)
        [obs] = run_app(app, [packet])
        assert obs["source_ip"] == source
        assert obs["translated"] == PUBLIC_POOL_BASE  # first pool address
        assert obs["interface"] == 1
        assert obs["destination"] == 0xC0A80105

    def test_header_rewritten_in_memory(self, env):
        source = 0x0A000005
        app = NatApp(env, PREFIXES, private_sources=[source])
        packet = Packet(source=source, destination=0xC0A80105)
        run_app(app, [packet])
        stored = int.from_bytes(
            env.hierarchy.inspect(app.buffer.address + 12, 4), "big")
        assert stored == PUBLIC_POOL_BASE

    def test_unknown_source_passes_through(self, env):
        app = NatApp(env, PREFIXES, private_sources=[0x0A000005])
        packet = Packet(source=0x0A0000FF, destination=0xC0A80105)
        [obs] = run_app(app, [packet])
        assert obs["translated"] == 0x0A0000FF
        assert obs["interface"] == 0

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            NatApp(env, PREFIXES, private_sources=list(range(1, 300)))


class TestUrlApp:
    PATTERNS = [("/images", ip_to_int("192.168.1.1")),
                ("/images/big", ip_to_int("192.168.1.2")),
                ("/api", ip_to_int("192.168.1.3"))]

    def make_packet(self, path):
        payload = f"GET {path} HTTP/1.0\r\n\r\n".encode()
        return Packet(source=1, destination=0x08080808, payload=payload,
                      protocol=6)

    def test_longest_pattern_wins(self, env):
        app = UrlApp(env, PREFIXES, self.PATTERNS)
        [obs] = run_app(app, [self.make_packet("/images/big/cat.jpg")])
        assert obs["url_match"][0] == 1
        assert obs["final_destination"] == ip_to_int("192.168.1.2")

    def test_shorter_pattern_on_partial_path(self, env):
        app = UrlApp(env, PREFIXES, self.PATTERNS)
        [obs] = run_app(app, [self.make_packet("/images/cat.jpg")])
        assert obs["final_destination"] == ip_to_int("192.168.1.1")

    def test_no_match_keeps_original_destination(self, env):
        app = UrlApp(env, PREFIXES, self.PATTERNS)
        [obs] = run_app(app, [self.make_packet("/video/x.mp4")])
        assert obs["url_match"][0] == -1
        assert obs["final_destination"] == 0x08080808

    def test_non_http_payload_is_handled(self, env):
        app = UrlApp(env, PREFIXES, self.PATTERNS)
        packet = Packet(source=1, destination=0x08080808,
                        payload=b"\x00\x01\x02nothing-here")
        [obs] = run_app(app, [packet])
        assert obs["url_match"][0] == -1

    def test_ttl_decremented_after_rewrite(self, env):
        app = UrlApp(env, PREFIXES, self.PATTERNS)
        [obs] = run_app(app, [self.make_packet("/api/v1")])
        assert obs["ttl"] == 63

    def test_pattern_length_validated(self, env):
        with pytest.raises(ValueError):
            UrlApp(env, PREFIXES, [("x" * 64, 1)])


class TestFramework:
    def test_undeclared_category_rejected(self, env):
        class BadApp(NetBenchApp):
            name = "crc"
            categories = ("a",)

            def control_plane(self):
                pass

            def process_packet(self, packet, index):
                return {"b": 1}

        app = BadApp(env)
        app.run_control_plane()
        with pytest.raises(ValueError, match="undeclared"):
            app.run_packet(Packet(source=1, destination=2), 0)

    def test_control_plane_runs_once(self, env):
        app = CrcApp(env)
        app.run_control_plane()
        with pytest.raises(RuntimeError):
            app.run_control_plane()

    def test_packets_require_control_plane(self, env):
        app = CrcApp(env)
        with pytest.raises(RuntimeError):
            app.run_packet(Packet(source=1, destination=2), 0)

    def test_name_required(self, env):
        class Anonymous(NetBenchApp):
            pass

        with pytest.raises(TypeError):
            Anonymous(env)


class TestRegistry:
    @pytest.mark.parametrize("name", NETBENCH_APPS)
    def test_every_workload_builds_and_runs(self, name):
        workload = make_workload(name, packet_count=5, seed=3)
        env = build_test_environment()
        app = workload.build(env)
        observations = run_app(app, workload.packets)
        assert len(observations) == 5
        assert all(observations)

    def test_workload_determinism(self):
        first = make_workload("route", packet_count=10, seed=4)
        second = make_workload("route", packet_count=10, seed=4)
        assert first.packets == second.packets

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            make_workload("bgp", packet_count=2)
