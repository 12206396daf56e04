"""Content-addressed on-disk cache of cell results.

Keys come from :meth:`CellSpec.cache_key` (dataset fingerprint + system
+ budget + seed + scaling + kwargs digest), so a warm cache turns a
re-run of the same campaign into pure I/O: zero cells execute.  The
cache is a codec over :class:`~repro.storage.ContentStore`, which owns
the sharded layout, the atomic write and the corruption-to-miss read.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.experiments.results import RunRecord
from repro.faults import SEAM_CACHE_CORRUPT, FaultInjector
from repro.observability import MetricsRegistry
from repro.storage import ContentStore, StoreStats


def _decode(data: bytes) -> RunRecord:
    return RunRecord(**json.loads(data)["record"])


def _digest(data: bytes) -> str:
    """Digest of a serialised entry with ``energy_source`` masked: two
    writers racing the same pure cell may legitimately disagree only on
    the measurement channel (a RAPL fault on one side)."""
    record = dict(json.loads(data)["record"])
    record.pop("energy_source", None)
    canon = json.dumps(record, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class ResultCache:
    """``root/<key[:2]>/<key>.json`` store of :class:`RunRecord` payloads."""

    root: Path
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: chaos hook: when armed, ``put`` may garble the payload bytes it
    #: writes (the ``cache_corrupt`` seam) so ``get`` detection is
    #: exercised under a seeded plan
    fault_injector: FaultInjector | None = None

    def __post_init__(self):
        self._store = ContentStore(self.root, prefix="cache",
                                   label="cache entry",
                                   registry=self.registry)
        self.root = self._store.root

    @property
    def stats(self) -> StoreStats:
        return self._store.stats

    def get(self, key: str) -> RunRecord | None:
        """The cached record, or None (a miss; a corrupt entry is a
        warned miss and the cell re-executes)."""
        return self._store.get(key, _decode)

    def put(self, key: str, record: RunRecord) -> None:
        """First write wins (see :meth:`ContentStore.put`); payloads
        are compared modulo ``energy_source``, the one legitimately
        varying field."""
        payload = json.dumps({"key": key, "record": asdict(record)})
        if self.fault_injector is not None:
            payload = self.fault_injector.corrupt(
                SEAM_CACHE_CORRUPT, key, payload
            )
        self._store.put(key, payload.encode(), _digest)

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()
