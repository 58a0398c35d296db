"""Config/result JSON round-trips and the content-addressed store."""

import json

import pytest

from repro.core.recovery import (
    NO_DETECTION,
    ONE_STRIKE,
    RecoveryPolicy,
    SECDED,
    TWO_STRIKE,
    TWO_STRIKE_SUB_BLOCK,
)
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.store import (
    CODE_VERSION,
    ResultStore,
    canonical_json,
    config_key,
)

#: Configs spanning every serialization axis: each app, every policy
#: family, dynamic clocking, L1 geometry, bursts, and L2-fill faults.
ROUND_TRIP_CONFIGS = [
    ExperimentConfig(app="route", packet_count=30, seed=3, cycle_time=0.5,
                     policy=TWO_STRIKE, fault_scale=20.0),
    ExperimentConfig(app="nat", packet_count=25, seed=5, cycle_time=0.25,
                     policy=NO_DETECTION, planes="control"),
    ExperimentConfig(app="crc", packet_count=20, seed=7, dynamic=True,
                     policy=ONE_STRIKE),
    ExperimentConfig(app="md5", packet_count=15, seed=11, cycle_time=0.75,
                     policy=SECDED, l2_fill_fault_probability=0.01),
    ExperimentConfig(app="tl", packet_count=20, seed=13, cycle_time=0.5,
                     policy=TWO_STRIKE_SUB_BLOCK, l1_size_bytes=8192,
                     l1_associativity=2),
    ExperimentConfig(app="drr", packet_count=20, seed=17, cycle_time=0.25,
                     burst_start_probability=0.05, burst_length=4,
                     burst_multiplier=3.0),
    ExperimentConfig(app="url", packet_count=20, seed=19, cycle_time=1.0,
                     injector="geometric", backend="replay"),
]


class TestConfigRoundTrip:
    @pytest.mark.parametrize("config", ROUND_TRIP_CONFIGS,
                             ids=lambda config: config.app)
    def test_lossless(self, config):
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config
        assert repr(clone) == repr(config)

    def test_json_text_round_trip(self):
        config = ROUND_TRIP_CONFIGS[0]
        text = json.dumps(config.to_json())
        assert ExperimentConfig.from_json(json.loads(text)) == config

    def test_registered_policy_serializes_as_name(self):
        payload = ROUND_TRIP_CONFIGS[0].to_json()
        assert payload["policy"] == "two-strike"

    def test_unregistered_policy_serializes_as_fields(self):
        custom = RecoveryPolicy("five-strike", strikes=5)
        config = ExperimentConfig(app="tl", packet_count=5, policy=custom)
        payload = config.to_json()
        assert payload["policy"]["strikes"] == 5
        assert ExperimentConfig.from_json(payload).policy == custom

    @pytest.mark.parametrize("name, value", [
        ("frequency_boost", 2.0),
        # A v6-schema cache entry: the scenario field is gone and must
        # not be dropped silently.
        ("scenario", None),
        # A v7-schema entry: the mapped injectors' fault-map parameters
        # are gone with them.
        ("fault_map_params", []),
        # v8-schema entries: per-task clocks, the fault-law anchor, the
        # memory size and workload knobs are no longer config axes.
        ("control_cycle_time", None),
        ("quarter_cycle_multiplier", 100.0),
        ("memory_size", 1 << 22),
        ("workload_kwargs", {}),
    ], ids=["frequency_boost", "v6-scenario", "v7-fault_map_params",
            "v8-control_cycle_time", "v8-quarter_cycle_multiplier",
            "v8-memory_size", "v8-workload_kwargs"])
    def test_unknown_field_rejected(self, name, value):
        payload = ExperimentConfig(app="tl", packet_count=5).to_json()
        payload[name] = value
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_json(payload)

    def test_json_names_every_field_but_the_tracer(self):
        # Every field, in field order: a tracer is run_experiment's
        # argument, not a config field.
        config = ExperimentConfig(app="tl", packet_count=5)
        fields = list(config.__dataclass_fields__)
        assert list(config.to_json()) == fields

    def test_hashable_by_identity(self):
        config = ROUND_TRIP_CONFIGS[0]
        clone = ExperimentConfig.from_json(config.to_json())
        assert hash(clone) == hash(config)
        assert {config: 1}[clone] == 1

    def test_validation_still_applies(self):
        payload = ExperimentConfig(app="tl", packet_count=5).to_json()
        payload["planes"] = "everywhere"
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(payload)

    def test_golden_keeps_workload_identity_only(self):
        config = ExperimentConfig(
            app="url", packet_count=30, seed=9, cycle_time=0.25,
            policy=TWO_STRIKE, fault_scale=50.0)
        golden = config.golden()
        assert (golden.app, golden.packet_count, golden.seed) == (
            "url", 30, 9)
        assert golden.cycle_time == 1.0
        assert golden.policy == NO_DETECTION


class TestConfigKey:
    def test_stable_across_field_order(self):
        config = ExperimentConfig(app="tl", packet_count=5)
        payload = config.to_json()
        shuffled = dict(reversed(list(payload.items())))
        assert canonical_json(payload) == canonical_json(shuffled)

    def test_key_changes_with_any_axis(self):
        base = ExperimentConfig(app="tl", packet_count=5)
        variants = [
            ExperimentConfig(app="crc", packet_count=5),
            ExperimentConfig(app="tl", packet_count=6),
            ExperimentConfig(app="tl", packet_count=5, seed=8),
            ExperimentConfig(app="tl", packet_count=5, cycle_time=0.5),
            ExperimentConfig(app="tl", packet_count=5, policy=TWO_STRIKE),
        ]
        keys = {config_key(config) for config in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_code_version_salt_invalidates(self):
        config = ExperimentConfig(app="tl", packet_count=5)
        assert config_key(config, salt=CODE_VERSION) != config_key(
            config, salt=CODE_VERSION + "-next")


class TestResultRoundTrip:
    @pytest.mark.parametrize("config", ROUND_TRIP_CONFIGS,
                             ids=lambda config: config.app)
    def test_repr_identical(self, config):
        result = run_experiment(config)
        clone = ExperimentResult.from_json(
            json.loads(json.dumps(result.to_json())))
        assert repr(clone) == repr(result)
        assert clone.product() == result.product()
        assert clone.fallibility == result.fallibility


class TestResultStore:
    def make_result(self, seed=3):
        return run_experiment(ExperimentConfig(
            app="tl", packet_count=10, seed=seed, cycle_time=0.5,
            policy=TWO_STRIKE, fault_scale=30.0))

    def test_put_then_get(self, tmp_path):
        store = ResultStore(tmp_path)
        result = self.make_result()
        store.put(result)
        fetched = store.get_config(result.config)
        assert repr(fetched) == repr(result)

    def test_persistence_across_instances(self, tmp_path):
        result = self.make_result()
        ResultStore(tmp_path).put(result)
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1
        assert repr(reopened.get_config(result.config)) == repr(result)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_many([self.make_result(seed) for seed in (1, 2)])
        assert not list(tmp_path.glob(".tmp-*"))
        assert len(list(tmp_path.glob("chunk-*.jsonl"))) == 1

    def test_idempotent_rewrite(self, tmp_path):
        store = ResultStore(tmp_path)
        results = [self.make_result(seed) for seed in (1, 2)]
        store.put_many(results)
        store.put_many(results)
        assert len(list(tmp_path.glob("chunk-*.jsonl"))) == 1
        assert len(ResultStore(tmp_path)) == 2

    def test_truncated_entry_skipped_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        results = [self.make_result(seed) for seed in (1, 2)]
        store.put_many(results)
        [chunk] = tmp_path.glob("chunk-*.jsonl")
        first, second = chunk.read_text().splitlines()
        # A torn write: the second entry is cut mid-record.
        chunk.write_text(first + "\n" + second[:len(second) // 2] + "\n")
        reopened = ResultStore(tmp_path)
        assert reopened.corrupt_entries == 1
        assert len(reopened) == 1
        # The surviving entry still decodes; the torn one reads missing.
        keys = [reopened.key_for(result.config) for result in results]
        assert sum(1 for key in keys if key in reopened) == 1

    def test_salted_store_misses_other_salt_entries(self, tmp_path):
        result = self.make_result()
        ResultStore(tmp_path).put(result)
        future = ResultStore(tmp_path, salt=CODE_VERSION + "-next")
        assert future.get_config(result.config) is None


class TestConcurrentWriters:
    """Regression: engine processes sharing one cache dir must not collide.

    The hazard: temp names derived only from the chunk digest meant two
    writers persisting the same chunk shared one temp file and could
    interleave bytes.  Temp names are now
    unique per writer (pid + process-local sequence); the final
    key-derived names keep racing rewrites idempotent.
    """

    def make_results(self, seeds=(1, 2)):
        return [run_experiment(ExperimentConfig(
            app="tl", packet_count=10, seed=seed, cycle_time=0.5,
            policy=TWO_STRIKE, fault_scale=30.0)) for seed in seeds]

    def test_temp_paths_unique_across_instances_and_calls(self, tmp_path):
        first = ResultStore(tmp_path)
        second = ResultStore(tmp_path)
        digest = "a" * 12
        paths = {first._temp_path(digest) for _ in range(5)}
        paths |= {second._temp_path(digest) for _ in range(5)}
        assert len(paths) == 10  # no writer ever shares a temp file
        for path in paths:
            assert path.parent == first.cache_dir
            assert not path.match("*.jsonl")  # invisible to refresh()

    def test_racing_writers_of_the_same_chunk_converge(self, tmp_path):
        """Interleaved put_many of one chunk from many store instances
        leaves exactly the one well-formed chunk file, zero corrupt
        entries, no temp residue."""
        results = self.make_results()
        stores = [ResultStore(tmp_path) for _ in range(4)]
        # Interleave the same chunk write across all instances; unique
        # temp names mean each serializes privately and the renames
        # race benignly (identical bytes to an identical name).
        for _ in range(3):
            for store in stores:
                store.put_many(results)
        assert len(list(tmp_path.glob("chunk-*.jsonl"))) == 1
        assert not list(tmp_path.glob(".tmp-*"))
        reopened = ResultStore(tmp_path)
        assert reopened.corrupt_entries == 0
        assert len(reopened) == len(results)
        for result in results:
            assert repr(reopened.get_config(result.config)) == repr(result)

    def test_concurrent_processes_hammering_one_store(self, tmp_path):
        """Whole-process concurrency (several engines on one
        ``--cache-dir``): N processes persist overlapping chunks into
        one directory; every entry must decode afterwards."""
        from concurrent.futures import ProcessPoolExecutor

        results = self.make_results(seeds=(1, 2, 3))
        payload = [result.to_json() for result in results]
        with ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(_hammer_store,
                          [(str(tmp_path), payload)] * 4))
        reopened = ResultStore(tmp_path)
        assert reopened.corrupt_entries == 0
        assert len(reopened) == len(results)
        assert not list(tmp_path.glob(".tmp-*"))
        # Per-result chunks plus the combined chunk: 3 + 1 names.
        assert len(list(tmp_path.glob("chunk-*.jsonl"))) == 4


def _hammer_store(args):
    """Picklable worker: rewrite the same chunks into a shared store."""
    cache_dir, payload = args
    results = [ExperimentResult.from_json(entry) for entry in payload]
    store = ResultStore(cache_dir)
    for _ in range(5):
        store.put_many(results)      # the combined chunk
        for result in results:
            store.put(result)        # per-result chunks
    return len(results)
