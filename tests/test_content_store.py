"""The content-addressed store contract, run over all three stores.

:class:`~repro.runtime.cache.ResultCache`,
:class:`~repro.evalstore.store.EvalStore` and
:class:`~repro.serving.artifacts.ArtifactStore` are codecs over one
:class:`~repro.storage.ContentStore`; every case here holds for each of
them: round-trip, counted misses, first-write-wins dedup, corruption
(garbled JSON, a non-UTF-8 byte, a directory at the entry path, an
armed fault seam) read as a warned miss, and the stranded-tmp sweep.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
import pytest

from repro.evalstore import EvalStore, TrialRecord, config_digest
from repro.experiments.results import RunRecord
from repro.faults import (
    SEAM_ARTIFACT_CORRUPT,
    SEAM_CACHE_CORRUPT,
    SEAM_STORE_CORRUPT,
    FaultInjector,
    FaultPlan,
)
from repro.runtime import ResultCache
from repro.serving import ArtifactStore

from tests.serving_stubs import StubModel

MISSING_KEY = "ff" + "0" * 62


def _run_record(**over) -> RunRecord:
    base = dict(
        system="CAML", dataset="credit-g", configured_seconds=10.0,
        seed=7, balanced_accuracy=0.7, execution_kwh=1e-5,
        actual_seconds=0.1, inference_kwh_per_instance=1e-12,
        inference_seconds_per_instance=1e-6,
    )
    return RunRecord(**{**base, **over})


def _trial(**over) -> TrialRecord:
    config = {"model": "stub", "depth": 3}
    base = dict(
        cell_key="cell0", trial_index=0, system="StubSys",
        dataset="stub-ds", budget_s=30.0, seed=0, time_scale=0.01,
        config=config, config_digest=config_digest(config),
        val_score=0.7, charged_s=0.25, kept=True, n_train=64,
        classes=[0, 1], y_val=[0, 1, 0, 1],
        oof=[[0.25, 0.75], [0.5, 0.5], [0.875, 0.125], [0.0, 1.0]],
    )
    return TrialRecord(**{**base, **over})


@dataclass(frozen=True)
class StoreCase:
    """How the contract drives one store: ``put(store, variant)``
    writes an entry and returns ``(key, value)``; ``get`` reads one
    back; ``same`` compares a read against the value written."""

    name: str
    open: Callable
    put: Callable
    get: Callable
    same: Callable
    seam: str
    #: what the corrupt-read warning names
    corrupt_match: str


def _cache_put(cache, variant=0):
    key = "ab" + "0" * 62
    record = _run_record(balanced_accuracy=0.7 + variant / 10)
    cache.put(key, record)
    return key, record


def _store_put(store, variant=0):
    record = _trial(val_score=0.7 + variant / 10)
    store.put(record)
    return record.key, record


def _artifact_put(store, variant=0):
    manifest = store.save(
        StubModel(label=variant % 2), system="Stub", variant="ensemble",
        dataset_fingerprint="cafe0123cafe0123", accuracy=0.9,
        inference_kwh_per_instance=1e-9,
    )
    return manifest.artifact_id, manifest


def _same_artifact(loaded, manifest) -> bool:
    X = np.linspace(-1, 1, 40).reshape(10, 4)
    return (loaded.manifest == manifest
            and np.array_equal(loaded.predict(X),
                               StubModel(label=0).predict(X)))


CASES = {
    "cache": StoreCase(
        "cache",
        lambda root, inj=None: ResultCache(root, fault_injector=inj),
        _cache_put, ResultCache.get, lambda got, want: got == want,
        SEAM_CACHE_CORRUPT, "corrupt cache entry",
    ),
    "evalstore": StoreCase(
        "evalstore",
        lambda root, inj=None: EvalStore(root, fault_injector=inj),
        _store_put, EvalStore.get, lambda got, want: got == want,
        SEAM_STORE_CORRUPT, "corrupt evaluation-store entry",
    ),
    "artifacts": StoreCase(
        "artifacts",
        lambda root, inj=None: ArtifactStore(root, fault_injector=inj),
        _artifact_put, ArtifactStore.load, _same_artifact,
        SEAM_ARTIFACT_CORRUPT, "digest",
    ),
}
#: the first-write-wins stores (an artifact re-save rewrites instead)
DEDUP = ("cache", "evalstore")


@pytest.fixture(params=sorted(CASES))
def case(request) -> StoreCase:
    return CASES[request.param]


def _entry(store, key):
    return store.root / key[:2] / f"{key}.json"


def _dead_pid() -> int:
    """A pid that is guaranteed not to name a live process."""
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


class TestRoundTrip:
    def test_put_get_round_trip(self, case, tmp_path):
        store = case.open(tmp_path)
        key, value = case.put(store)
        assert case.same(case.get(store, key), value)
        assert store.stats.writes == 1
        assert store.stats.hits == 1
        assert store.stats.misses == 0
        assert len(store) == 1

    def test_entry_bytes_are_the_codec_payload(self, case, tmp_path):
        # the on-disk format is the one the stores wrote before they
        # shared a primitive, so older stores read back unchanged
        store = case.open(tmp_path)
        key, value = case.put(store)
        if case.name == "artifacts":
            expected = json.dumps(value.as_dict(), sort_keys=True)
            pkl = _entry(store, key).with_suffix(".pkl").read_bytes()
            assert pkl == pickle.dumps(StubModel(label=0),
                                       protocol=pickle.HIGHEST_PROTOCOL)
        else:
            record = (asdict(value) if case.name == "cache"
                      else value.as_dict())
            expected = json.dumps({"key": key, "record": record})
        assert _entry(store, key).read_bytes() == expected.encode()

    def test_stats_share_one_vocabulary(self, case, tmp_path):
        store = case.open(tmp_path)
        case.put(store)
        stats = store.stats.as_dict()
        assert list(stats) == ["hits", "misses", "writes", "corrupt",
                               "dedup_hits", "dedup_conflicts"]
        assert stats["writes"] == 1
        prefix = store.stats.prefix
        assert store.registry.counter(f"{prefix}.writes").value == 1


class TestMisses:
    def test_missing_key_is_a_counted_miss(self, case, tmp_path):
        store = case.open(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a plain miss is not news
            assert case.get(store, MISSING_KEY) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0
        assert store.stats.hits == 0


@pytest.mark.parametrize("name", DEDUP)
class TestFirstWriteWins:
    def test_identical_second_put_is_a_silent_dedup(self, name, tmp_path):
        case = CASES[name]
        store = case.open(tmp_path)
        case.put(store)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            key, value = case.put(store)
        assert store.stats.writes == 1
        assert store.stats.dedup_hits == 1
        assert store.stats.dedup_conflicts == 0
        assert len(store) == 1
        assert case.same(case.get(store, key), value)

    def test_conflicting_put_warns_and_keeps_first(self, name, tmp_path):
        case = CASES[name]
        store = case.open(tmp_path)
        key, first = case.put(store)
        with pytest.warns(UserWarning, match="written twice"):
            case.put(store, variant=2)
        assert store.stats.dedup_conflicts == 1
        assert store.stats.writes == 1
        assert case.same(case.get(store, key), first)

    def test_corrupt_entry_is_repaired_by_the_next_put(self, name,
                                                       tmp_path):
        case = CASES[name]
        store = case.open(tmp_path)
        key, value = case.put(store)
        _entry(store, key).write_bytes(b"\xff{ not json")
        case.put(store)
        assert store.stats.writes == 2
        assert store.stats.dedup_hits == 0
        assert case.same(case.get(store, key), value)


def _garble_json(path):
    path.write_text("{not json")


def _non_utf8_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xFF
    path.write_bytes(bytes(data))


def _directory(path):
    path.unlink()
    path.mkdir()


CORRUPTIONS = {
    "garbled-json": _garble_json,
    "non-utf8-byte": _non_utf8_byte,
    "directory": _directory,
}


class TestCorruptReads:
    @pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
    def test_corrupt_entry_is_a_warned_counted_miss(self, case, corrupt,
                                                    tmp_path):
        store = case.open(tmp_path)
        key, _ = case.put(store)
        CORRUPTIONS[corrupt](_entry(store, key))
        with pytest.warns(UserWarning, match="corrupt"):
            assert case.get(store, key) is None
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1
        assert store.stats.hits == 0

    def test_armed_seam_is_detected_on_read(self, case, tmp_path):
        plan = FaultPlan.uniform(0, [case.seam], rate=1.0)
        store = case.open(tmp_path, FaultInjector(plan))
        key, _ = case.put(store)
        with pytest.warns(UserWarning, match=case.corrupt_match):
            assert case.get(store, key) is None
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1

    def test_unarmed_seam_round_trips(self, case, tmp_path):
        plan = FaultPlan.uniform(0, [case.seam], rate=0.0)
        store = case.open(tmp_path, FaultInjector(plan))
        key, value = case.put(store)
        assert case.same(case.get(store, key), value)
        assert store.stats.corrupt == 0

    @pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
    def test_store_queries_survive_a_corrupt_entry(self, corrupt,
                                                   tmp_path):
        store = EvalStore(tmp_path)
        kept, garbled = _trial(trial_index=1), _trial()
        store.put(kept)
        store.put(garbled)
        CORRUPTIONS[corrupt](_entry(store, garbled.key))
        with pytest.warns(UserWarning, match="corrupt"):
            assert store.records() == [kept]
        with pytest.warns(UserWarning, match="corrupt"):
            assert store.query(kept_only=True) == [kept]
        clean = EvalStore(tmp_path / "clean")
        clean.put(kept)
        with pytest.warns(UserWarning, match="corrupt"):
            assert store.digest() == clean.digest()


class TestArtifactPayload:
    """The artifact store's own checks, on the ``.pkl`` side file."""

    def test_payload_failing_its_digest_is_a_corrupt_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact_id, _ = _artifact_put(store)
        pkl = _entry(store, artifact_id).with_suffix(".pkl")
        pkl.write_bytes(b"garbage" + pkl.read_bytes()[7:])
        with pytest.warns(UserWarning, match="digest"):
            assert store.load(artifact_id) is None
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1

    def test_payload_that_fails_to_unpickle_is_a_corrupt_miss(self,
                                                              tmp_path):
        store = ArtifactStore(tmp_path)
        artifact_id, _ = _artifact_put(store)
        pkl = _entry(store, artifact_id).with_suffix(".pkl")
        junk = b"not a pickle stream"
        pkl.write_bytes(junk)
        manifest_path = _entry(store, artifact_id)
        manifest = json.loads(manifest_path.read_text())
        manifest["payload_digest"] = hashlib.sha256(junk).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.warns(UserWarning, match="deserialise"):
            assert store.load(artifact_id) is None
        assert store.stats.corrupt == 1

    def test_missing_payload_is_a_plain_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact_id, _ = _artifact_put(store)
        _entry(store, artifact_id).with_suffix(".pkl").unlink()
        assert store.load(artifact_id) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_resave_repairs_a_corrupted_payload(self, tmp_path):
        plan = FaultPlan.uniform(0, [SEAM_ARTIFACT_CORRUPT], rate=1.0)
        store = ArtifactStore(tmp_path, fault_injector=FaultInjector(plan))
        artifact_id, _ = _artifact_put(store)
        store.fault_injector = None
        again, manifest = _artifact_put(store)
        assert again == artifact_id
        assert _same_artifact(store.load(artifact_id), manifest)
        assert store.stats.writes == 2


class TestTmpSweep:
    def _tmp(self, store, key, pid):
        path = store.root / key[:2] / f"{key}.tmp.{pid}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("half-written payload")
        return path

    def test_dead_owner_tmp_file_is_swept_on_open(self, case, tmp_path):
        store = case.open(tmp_path)
        key, value = case.put(store)
        orphan = self._tmp(store, key, _dead_pid())
        reopened = case.open(tmp_path)
        assert not orphan.exists()
        # real entries are untouched
        assert case.same(case.get(reopened, key), value)

    def test_live_owner_tmp_file_survives_open(self, case, tmp_path):
        # a LIVE pid may be a concurrent campaign mid-write; sweeping
        # its tmp file would break that process's os.replace
        store = case.open(tmp_path)
        live = self._tmp(store, MISSING_KEY, os.getpid())
        case.open(tmp_path)
        assert live.exists()

    @pytest.mark.parametrize("name", DEDUP)
    def test_clear_wipes_entries_and_every_tmp_file(self, name, tmp_path):
        case = CASES[name]
        store = case.open(tmp_path)
        key, _ = case.put(store)
        live = self._tmp(store, key, os.getpid())
        dead = self._tmp(store, MISSING_KEY, _dead_pid())
        store.clear()
        assert not live.exists() and not dead.exists()
        assert len(store) == 0
        assert case.get(store, key) is None
