"""The content-addressed, queryable evaluation repository.

``root/<key[:2]>/<key>.json`` of :class:`TrialRecord` payloads: a codec
over :class:`~repro.storage.ContentStore`, the primitive under the
campaign result cache too, generalised from one record per cell to one
record per *trial*.  Writes are first-write-wins (trials are pure
functions of their cell spec, so a cross-shard duplicate compute
resolves by digest comparison, never a silent overwrite), which makes
populating one store from N shards — or merging two stores —
commutative, associative and idempotent.

:meth:`EvalStore.digest` is the determinism witness: a sha256 over the
sorted canonical payloads, byte-identical for any worker/shard layout
that executed the same campaign.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.evalstore.records import TrialRecord, config_digest
from repro.faults import SEAM_STORE_CORRUPT, FaultInjector
from repro.observability import MetricsRegistry
from repro.storage import ContentStore, StoreStats


def _decode(data: bytes) -> TrialRecord:
    return TrialRecord.from_dict(json.loads(data)["record"])


def _digest(data: bytes) -> str:
    canon = json.dumps(json.loads(data)["record"], sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class EvalStore:
    """Sharded on-disk repository of :class:`TrialRecord` payloads."""

    root: Path
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: chaos hook (the ``store_corrupt`` seam): when armed, ``put`` may
    #: garble the payload bytes it writes so ``get`` detection is
    #: exercised under a seeded plan
    fault_injector: FaultInjector | None = None

    def __post_init__(self):
        self._store = ContentStore(self.root, prefix="evalstore",
                                   label="evaluation-store entry",
                                   registry=self.registry)
        self.root = self._store.root

    @property
    def stats(self) -> StoreStats:
        return self._store.stats

    # -- single-record I/O -----------------------------------------------------
    def get(self, key: str) -> TrialRecord | None:
        """The stored trial, or None (a miss; a corrupt entry is a
        warned miss and the trial drops out of what-if/portfolio
        queries)."""
        return self._store.get(key, _decode)

    def put(self, record: TrialRecord) -> bool:
        """First write wins (see :meth:`ContentStore.put`); returns
        True when bytes hit the disk."""
        key = record.key
        payload = json.dumps({"key": key, "record": record.as_dict()})
        if self.fault_injector is not None:
            payload = self.fault_injector.corrupt(
                SEAM_STORE_CORRUPT, key, payload
            )
        return self._store.put(key, payload.encode(), _digest)

    # -- campaign write-through ------------------------------------------------
    def ingest(self, spec, cell_key: str, trials: list[dict]) -> int:
        """Persist one committed cell's captured trials.

        ``trials`` are the raw capture dicts a worker shipped back in
        its outcome; the parent stamps them with the cell identity here
        (system/dataset/budget/seed/time_scale and the cell cache key),
        so records carry no worker-local state and the store digest is
        independent of worker and shard layout.
        """
        written = 0
        for trial in trials:
            record = TrialRecord(
                cell_key=cell_key,
                trial_index=int(trial["trial_index"]),
                system=spec.system,
                dataset=spec.dataset,
                budget_s=float(spec.budget_s),
                seed=int(spec.seed),
                time_scale=float(spec.time_scale),
                config=trial["config"],
                config_digest=trial.get(
                    "config_digest", config_digest(trial["config"])
                ),
                val_score=float(trial["val_score"]),
                charged_s=float(trial["charged_s"]),
                kept=bool(trial["kept"]),
                n_train=int(trial["n_train"]),
                classes=list(trial["classes"]),
                y_val=list(trial["y_val"]),
                oof=[list(row) for row in trial["oof"]],
            )
            if self.put(record):
                written += 1
        return written

    # -- enumeration and queries -----------------------------------------------
    def keys(self) -> list[str]:
        return self._store.keys()

    def records(self) -> list[TrialRecord]:
        """Every valid record, in canonical order — sorted by content
        identity (dataset, system, budget, seed, cell key, trial
        index), so the listing never depends on directory enumeration
        or insertion order.  Corrupt entries are warned misses."""
        loaded = [r for r in (self.get(key) for key in self.keys())
                  if r is not None]
        return sorted(loaded, key=_record_order)

    def query(self, *, dataset: str | None = None,
              system: str | None = None,
              budget_s: float | None = None,
              seed: int | None = None,
              kept_only: bool = False) -> list[TrialRecord]:
        """Filtered canonical listing (insertion-order-invariant)."""
        out = []
        for record in self.records():
            if dataset is not None and record.dataset != dataset:
                continue
            if system is not None and record.system != system:
                continue
            if budget_s is not None \
                    and float(record.budget_s) != float(budget_s):
                continue
            if seed is not None and int(record.seed) != int(seed):
                continue
            if kept_only and not record.kept:
                continue
            out.append(record)
        return out

    # -- determinism + merge ---------------------------------------------------
    def digest(self) -> str:
        """sha256 over the sorted canonical payloads: the byte-identity
        witness the determinism matrix pins across worker and shard
        layouts (the store analogue of ``canonical_state_bytes``)."""
        h = hashlib.sha256()
        for record in self.records():
            h.update(record.key.encode())
            h.update(b"\x00")
            h.update(record.canonical_json().encode())
            h.update(b"\n")
        return h.hexdigest()

    def merge_from(self, other: "EvalStore") -> dict:
        """Fold another store in, first-write-wins per key.  Returns
        ``{"written", "dedup"}`` counts; corrupt source entries are
        skipped (warned misses on the source's read path)."""
        written = dedup = 0
        for key in other.keys():
            record = other.get(key)
            if record is None:
                continue
            if self.put(record):
                written += 1
            else:
                dedup += 1
        return {"written": written, "dedup": dedup}

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()


def _record_order(record: TrialRecord):
    return (record.dataset, record.system, float(record.budget_s),
            int(record.seed), record.cell_key, int(record.trial_index))
