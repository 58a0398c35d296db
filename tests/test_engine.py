"""CampaignEngine: cache-first sweeps, resume, parallelism, and speedup."""

import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.constants import NETBENCH_APPS
from repro.core.recovery import NO_DETECTION, TWO_STRIKE
from repro.harness.campaign import SingleFaultInjector
from repro.harness.engine import CampaignEngine, default_engine
from repro.harness.figures import render_edf
from repro.harness.store import ResultStore
from repro.mem.faults import INJECTOR_NAMES
from tests.strategies import make_config


#: Repository root: ``python -m repro`` subprocesses run from here, so a
#: relative ``PYTHONPATH=src`` inherited from the test run still resolves.
REPO_ROOT = Path(__file__).resolve().parents[1]

#: Configs in one ``fig9a --seeds 7,11`` sweep: 4 schemes x 5 clock
#: settings x 2 seeds.
FIG9A_CONFIGS = 40

#: Directory poll while waiting for a sweep's first chunk: the bound is
#: an iteration count (60 s), so no wall clock is read.
POLL_SECONDS = 0.01
POLL_LIMIT = 6000


def sweep_configs(count=6):
    return [make_config(seed=seed) for seed in range(1, count + 1)]


def start_fig9a(cache_dir):
    """One ``python -m repro fig9a`` subprocess persisting to
    ``cache_dir``."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fig9a", "--packets", "20",
         "--seeds", "7,11", "--cache-dir", str(cache_dir)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish(process):
    """Wait for a sweep subprocess; return (stdout bytes, simulated=)."""
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr.decode()
    return stdout, int(re.search(rb"simulated=(\d+)", stderr).group(1))


def chunk_files(cache_dir):
    """(name, bytes) of every chunk file -- the byte-identity probe."""
    return sorted((path.name, path.read_bytes())
                  for path in Path(cache_dir).glob("chunk-*.jsonl"))


class TestColdVsWarm:
    @pytest.mark.parametrize("app", NETBENCH_APPS)
    def test_repr_identical_per_app(self, app, tmp_path):
        """Cache round-trip changes nothing, for every experiment id."""
        config = make_config(app=app, packet_count=20)
        cold = CampaignEngine(store=ResultStore(tmp_path))
        [cold_result] = cold.run([config])
        assert cold.counters.get("campaign.simulated") == 1
        warm = CampaignEngine(store=ResultStore(tmp_path))
        [warm_result] = warm.run([config])
        assert warm.counters.get("campaign.simulated") == 0
        assert warm.counters.get("campaign.cache_hits") == 1
        assert repr(warm_result) == repr(cold_result)

    @pytest.mark.parametrize("injector", sorted(INJECTOR_NAMES))
    def test_repr_identical_per_injector(self, injector, tmp_path):
        """The store round-trip is injector-agnostic (PR 3 x PR 4 seam):
        cold and warm runs are repr-identical under either sampler."""
        config = make_config(injector=injector)
        cold = CampaignEngine(store=ResultStore(tmp_path))
        [cold_result] = cold.run([config])
        assert cold.counters.get("campaign.simulated") == 1
        warm = CampaignEngine(store=ResultStore(tmp_path))
        [warm_result] = warm.run([config])
        assert warm.counters.get("campaign.simulated") == 0
        assert warm.counters.get("campaign.cache_hits") == 1
        assert warm_result.config.injector == injector
        assert repr(warm_result) == repr(cold_result)

    def test_storeless_engine_matches_cached(self, tmp_path):
        config = make_config()
        [plain] = CampaignEngine().run([config])
        cached_engine = CampaignEngine(store=ResultStore(tmp_path))
        [cold] = cached_engine.run([config])
        [warm] = cached_engine.run([config])
        assert repr(plain) == repr(cold) == repr(warm)


class TestParallel:
    def test_parallel_matches_serial(self):
        configs = sweep_configs(4)
        serial = CampaignEngine(max_workers=1).run(configs)
        parallel = CampaignEngine(max_workers=2).run(configs)
        assert [repr(result) for result in parallel] == [
            repr(result) for result in serial]

    def test_chunking_preserves_input_order(self, tmp_path):
        configs = sweep_configs(5)
        engine = CampaignEngine(store=ResultStore(tmp_path), chunk_size=2)
        results = engine.run(configs)
        assert [result.config.seed for result in results] == [1, 2, 3, 4, 5]
        assert engine.counters.get("campaign.chunks") == 3


class TestCachePartition:
    def test_duplicate_configs_simulate_once(self):
        engine = CampaignEngine()
        config = make_config()
        first, second = engine.run([config, config])
        assert engine.counters.get("campaign.simulated") == 1
        assert repr(first) == repr(second)

    def test_empty_run_returns_empty(self):
        engine = CampaignEngine()
        assert engine.run([]) == []
        assert engine.counters.get("campaign.runs") == 1

    def test_all_cached_rerun_simulates_nothing(self, tmp_path):
        configs = sweep_configs(3)
        CampaignEngine(store=ResultStore(tmp_path)).run(configs)
        warm = CampaignEngine(store=ResultStore(tmp_path))
        warm.run(configs)
        assert warm.counters.get("campaign.simulated") == 0
        assert warm.counters.get("campaign.missing") == 0
        assert warm.counters.get("campaign.chunks") == 0

    def test_resume_runs_only_missing(self, tmp_path):
        """An interrupted sweep re-runs only what the store lacks."""
        configs = sweep_configs(6)
        reference = CampaignEngine().run(configs)
        # Interrupted sweep: only the first chunk of 2 was persisted.
        interrupted = CampaignEngine(store=ResultStore(tmp_path),
                                     chunk_size=2)
        interrupted.run(configs[:2])
        resumed = CampaignEngine(store=ResultStore(tmp_path), chunk_size=2)
        results = resumed.run(configs)
        assert resumed.counters.get("campaign.cache_hits") == 2
        assert resumed.counters.get("campaign.simulated") == 4
        assert [repr(result) for result in results] == [
            repr(result) for result in reference]

    def test_refresh_resimulates_and_matches_store(self, tmp_path):
        """refresh=True skips cache reads, re-simulates, and re-persists
        results that a later warm run reads back unchanged."""
        configs = sweep_configs(3)
        CampaignEngine(store=ResultStore(tmp_path)).run(configs)
        engine = CampaignEngine(store=ResultStore(tmp_path))
        refreshed = engine.run(configs, refresh=True)
        assert engine.counters.get("campaign.cache_hits") == 0
        assert engine.counters.get("campaign.simulated") == 3
        assert engine.counters.get("campaign.refreshed") == 3
        warm = CampaignEngine(store=ResultStore(tmp_path))
        results = warm.run(configs)
        assert warm.counters.get("campaign.simulated") == 0
        assert [repr(result) for result in results] == [
            repr(result) for result in refreshed]

    def test_corrupt_entry_is_rerun(self, tmp_path):
        """A torn cache entry reads as missing and is simulated again."""
        configs = sweep_configs(2)
        CampaignEngine(store=ResultStore(tmp_path)).run(configs)
        [chunk] = tmp_path.glob("chunk-*.jsonl")
        lines = chunk.read_text().splitlines()
        lines[-1] = lines[-1][:40]
        chunk.write_text("\n".join(lines) + "\n")
        engine = CampaignEngine(store=ResultStore(tmp_path))
        results = engine.run(configs)
        assert engine.counters.get("campaign.cache_hits") == 1
        assert engine.counters.get("campaign.simulated") == 1
        reference = CampaignEngine().run(configs)
        assert [repr(result) for result in results] == [
            repr(result) for result in reference]


class TestRunOne:
    def test_injector_override_bypasses_store(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = CampaignEngine(store=store)
        config = make_config(policy=NO_DETECTION, fault_scale=0.0)
        injector = SingleFaultInjector(target_access=5, bit_seed=3)
        engine.run_one(config, injector_override=injector)
        assert engine.counters.get("campaign.uncacheable") == 1
        assert len(store) == 0

    def test_plain_run_one_matches_run(self):
        engine = CampaignEngine()
        config = make_config()
        one = engine.run_one(config)
        [batch] = engine.run([config])
        assert repr(one) == repr(batch)


class TestReporting:
    def test_progress_callback_per_chunk(self, tmp_path):
        lines = []
        engine = CampaignEngine(store=ResultStore(tmp_path), chunk_size=2,
                                progress=lines.append)
        engine.run(sweep_configs(4))
        assert len(lines) == 2
        assert lines[-1].startswith("campaign: 4/4 simulated")

    def test_summary_line(self, tmp_path):
        engine = CampaignEngine(store=ResultStore(tmp_path))
        engine.run(sweep_configs(2))
        engine.run(sweep_configs(2))
        assert engine.summary() == (
            "campaign: configs=4 cache_hits=2 simulated=2 chunks=1 "
            "uncacheable=0")

    def test_default_engine_is_shared_and_uncached(self):
        engine = default_engine()
        assert engine is default_engine()
        assert engine.store is None

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignEngine(chunk_size=0)
        with pytest.raises(ValueError):
            CampaignEngine(max_workers=0)


class TestFigureRegeneration:
    EDF_KWARGS = dict(packet_count=60, seeds=(7, 11),
                      policies=(NO_DETECTION, TWO_STRIKE),
                      settings=(1.0, 0.5, "dynamic"))

    def test_warm_edf_panel_byte_identical_and_5x_faster(self, tmp_path):
        """Figures 9-12 path: warm cache reproduces bytes at >=5x speed."""
        cold = CampaignEngine(store=ResultStore(tmp_path))
        start = time.perf_counter()  # reprolint: disable=determinism
        cold_text = render_edf("tl", "Figure 10", engine=cold,
                               **self.EDF_KWARGS)
        cold_elapsed = time.perf_counter() - start  # reprolint: disable=determinism
        assert cold.counters.get("campaign.simulated") > 0

        warm = CampaignEngine(store=ResultStore(tmp_path))
        start = time.perf_counter()  # reprolint: disable=determinism
        warm_text = render_edf("tl", "Figure 10", engine=warm,
                               **self.EDF_KWARGS)
        warm_elapsed = time.perf_counter() - start  # reprolint: disable=determinism

        assert warm.counters.get("campaign.simulated") == 0
        assert warm_text == cold_text
        assert cold_elapsed >= 5 * warm_elapsed, (
            f"warm cache too slow: cold={cold_elapsed:.3f}s "
            f"warm={warm_elapsed:.3f}s")


class TestSharedCacheDir:
    """Several engine processes over one ``--cache-dir`` (DESIGN.md §9).

    Real ``python -m repro`` subprocesses, because concurrent writers and
    SIGKILL -- no atexit, no finally, mid-write death -- only exist
    across a process boundary.
    """

    def test_two_concurrent_processes_share_one_store(self, tmp_path):
        """Both sweeps simulate everything (the store dedupes results,
        not work), agree byte for byte, and leave one clean store."""
        first, second = start_fig9a(tmp_path), start_fig9a(tmp_path)
        first_out, _ = finish(first)
        second_out, _ = finish(second)
        assert first_out == second_out
        store = ResultStore(tmp_path)
        assert store.corrupt_entries == 0
        assert len(store) == FIG9A_CONFIGS
        assert not list(tmp_path.glob(".tmp-*"))
        warm_out, warm_simulated = finish(start_fig9a(tmp_path))
        assert warm_simulated == 0
        assert warm_out == first_out

    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path):
        """Resume is re-running the same command: a sweep killed after
        its first chunk simulates only what the store lacks and ends
        with the same output and chunk files as an uninterrupted run."""
        clean_dir, killed_dir = tmp_path / "clean", tmp_path / "killed"
        clean_out, _ = finish(start_fig9a(clean_dir))
        doomed = start_fig9a(killed_dir)
        for _ in range(POLL_LIMIT):
            if list(killed_dir.glob("chunk-*.jsonl")):
                break
            assert doomed.poll() is None, "sweep exited before any chunk"
            time.sleep(POLL_SECONDS)
        doomed.send_signal(signal.SIGKILL)
        doomed.communicate(timeout=30)
        persisted = len(ResultStore(killed_dir))
        assert 0 < persisted < FIG9A_CONFIGS
        resumed_out, resumed_simulated = finish(start_fig9a(killed_dir))
        assert resumed_out == clean_out
        assert resumed_simulated == FIG9A_CONFIGS - persisted
        # A kill can leave a .tmp-* sibling; only chunk files count.
        assert chunk_files(killed_dir) == chunk_files(clean_dir)
        assert ResultStore(killed_dir).corrupt_entries == 0
