"""Content-addressed experiment result store.

Every figure and table of the reproduction is a cartesian sweep of
independent :class:`~repro.harness.config.ExperimentConfig` runs, and a
run's result is a pure function of its config -- so the result corpus can
be treated as a first-class, shareable artifact (the methodology of
hardware fault-injection campaigns, where re-simulating thousands of
configurations on every analysis pass is unaffordable).

The store is content-addressed: a result is filed under the SHA-256 of
its config's canonical JSON serialization (sorted keys, compact
separators, policies by name) concatenated with a
*code-version salt*.  Bump :data:`CODE_VERSION` whenever a change to the
simulator alters results for an unchanged config; every existing cache
entry then misses and is transparently re-simulated -- invalidation
without deletion.

On-disk layout (``cache_dir/``)::

    chunk-<digest12>.jsonl     one line per result:
                               {"key": <config key>, "result": {...}}

Chunk files are written atomically -- serialized to a ``.tmp-*``
sibling in the same directory, then ``os.replace``d into place -- so a
killed campaign never leaves a half-written entry visible.  The temp
name is unique per writer (pid + a process-local sequence number):
several engine processes sharing one ``--cache-dir`` must never
interleave bytes into a shared temp file, even when they race to
persist the *same* chunk.  A chunk's final name is derived from the
keys it contains, which keeps rewrites of the same configs idempotent:
racing writers of one chunk replace the file with identical bytes.
Corrupt lines (a torn write from a hard kill, manual truncation) are
*skipped and counted*, never fatal: the affected configs simply read as
missing and re-run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentResult

#: Bump on any simulator change that alters results for an unchanged
#: config (fault model calibration, cache geometry defaults, energy
#: accounting, ...).  Old entries then miss and re-simulate.
#: v2: the config JSON schema gained the ``injector`` field.
#: v3: the config JSON schema gained the ``scenario`` field
#: (traffic-scenario workloads).
#: v4: the config JSON schema gained the ``backend`` field
#: (trace-replay execution backend).
#: v5: the config JSON schema gained the ``fault_map_params`` field and
#: the result schema gained ``ways_disabled`` (measured-silicon fault
#: maps and way-disabling recovery).
#: v6: SEC-DED classifies the read after strike exhaustion like every
#: other read (a single-bit fault there is corrected, a double-bit one
#: counted as detected), and replay-priced configs sum ``energy.l1d``
#: and ``energy.total`` in execution order.
#: v7: the config JSON schema lost the ``scenario`` field.
#: v8: the config JSON schema lost the ``fault_map_params`` field, the
#: result schema lost ``ways_disabled``, and unregistered recovery
#: policies lost their ``way_disable`` and ``way_disable_threshold`` keys.
#: v9: the config JSON schema lost the ``control_cycle_time``,
#: ``quarter_cycle_multiplier``, ``memory_size`` and ``workload_kwargs``
#: fields, and trace identity lost the last two.
CODE_VERSION = "clumsy-repro-v9"

#: Hex digits of the chunk-key digest used in chunk file names.
_CHUNK_DIGEST_LENGTH = 12

#: Process-local sequence for temp-file uniqueness: two stores (or two
#: threads) in the same process writing the same file concurrently
#: must not share a temp path either.
_TEMP_SEQUENCE = itertools.count()


def writer_temp_path(directory: Path, name: str) -> Path:
    """A writer-unique temp sibling in ``directory`` for the file ``name``.

    Suffixing pid + a process-local counter guarantees no two writers --
    processes sharing one ``--cache-dir``, or threads of one process --
    ever open the same temp file, closing the interleaved-write and
    vanished-temp hazards a name-only temp had.  The file is written
    there and then ``os.replace``d onto its final name.
    """
    return directory / f".tmp-{name}-{os.getpid()}-{next(_TEMP_SEQUENCE)}"


def canonical_json(payload: object) -> str:
    """Deterministic JSON text: sorted keys, compact separators.

    Two equal configs always produce byte-identical text, regardless of
    dictionary insertion order -- the property the content address needs.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_key(config: ExperimentConfig, salt: str = CODE_VERSION) -> str:
    """The content address of one config's result (SHA-256 hex digest)."""
    text = salt + "\n" + canonical_json(config.to_json())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultStore:
    """Content-addressed, crash-safe persistence of experiment results.

    The store indexes every ``*.jsonl`` chunk under ``cache_dir`` at
    construction (and on :meth:`refresh`).  Lookups decode lazily, so an
    all-hit campaign pays JSON parsing only for the results it returns.
    """

    def __init__(self, cache_dir: "Path | str",
                 salt: str = CODE_VERSION) -> None:
        self.cache_dir = Path(cache_dir)
        self.salt = salt
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: Malformed JSONL lines skipped during the last scan (torn
        #: writes); the configs they held simply re-run.
        self.corrupt_entries = 0
        self._records: "dict[str, dict]" = {}
        self.refresh()

    # -- index ----------------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild the in-memory index from the chunk files on disk."""
        self._records = {}
        self.corrupt_entries = 0
        for chunk in sorted(self.cache_dir.glob("*.jsonl")):
            for line in chunk.read_text().splitlines():
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    key = entry["key"]
                    record = entry["result"]
                    if not isinstance(key, str) or \
                            not isinstance(record, dict):
                        raise ValueError("malformed entry")
                except (ValueError, KeyError, TypeError):
                    self.corrupt_entries += 1
                    continue
                self._records[key] = record

    def key_for(self, config: ExperimentConfig) -> str:
        """This store's content address for ``config`` (salt applied)."""
        return config_key(config, salt=self.salt)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> "tuple[str, ...]":
        """Every stored content address, sorted."""
        return tuple(sorted(self._records))

    # -- lookup ---------------------------------------------------------------

    def get(self, key: str) -> "ExperimentResult | None":
        """Decode and return the result stored under ``key`` (or None).

        An entry that fails to decode (schema drift without a salt bump,
        hand-edited file) is dropped from the index and counted corrupt,
        so the caller re-simulates instead of crashing.
        """
        record = self._records.get(key)
        if record is None:
            return None
        try:
            return ExperimentResult.from_json(record)
        except (KeyError, TypeError, ValueError):
            del self._records[key]
            self.corrupt_entries += 1
            return None

    def get_config(self, config: ExperimentConfig,
                   ) -> "ExperimentResult | None":
        """Shorthand for ``get(key_for(config))``."""
        return self.get(self.key_for(config))

    # -- persistence ----------------------------------------------------------

    def put_many(self, results: "list[ExperimentResult]") -> "Path | None":
        """Persist one chunk of results atomically; returns the chunk path.

        The chunk is serialized to a temporary sibling and renamed into
        place (``os.replace``), so readers -- including a resumed run of
        this same campaign -- see either none or all of the chunk.  The
        temp name is unique per writer (see :meth:`_temp_path`), so
        concurrent engines sharing this cache directory cannot
        interleave bytes; the final name derives from the chunk's keys,
        making rewrites of identical chunks idempotent.
        """
        if not results:
            return None
        entries = []
        for result in results:
            key = self.key_for(result.config)
            entries.append((key, result))
            self._records[key] = result.to_json()
        digest = hashlib.sha256(
            "\n".join(key for key, _ in entries).encode("utf-8"),
        ).hexdigest()[:_CHUNK_DIGEST_LENGTH]
        final = self.cache_dir / f"chunk-{digest}.jsonl"
        temp = self._temp_path(digest)
        text = "".join(
            json.dumps({"key": key, "result": result.to_json()}) + "\n"
            for key, result in entries)
        temp.write_text(text)
        os.replace(temp, final)
        return final

    def _temp_path(self, digest: str) -> Path:
        """A writer-unique temp sibling for the chunk named ``digest``
        (see :func:`writer_temp_path`).  Residue from a killed writer is
        invisible to :meth:`refresh` (it only globs ``*.jsonl``) and gets
        overwritten-by-rename never, reused never.
        """
        return writer_temp_path(self.cache_dir, digest)

    def put(self, result: ExperimentResult) -> "Path | None":
        """Persist a single result (one-entry chunk)."""
        return self.put_many([result])
