"""The content-addressed store primitive under every on-disk store.

The campaign result cache (:class:`~repro.runtime.cache.ResultCache`),
the evaluation store (:class:`~repro.evalstore.store.EvalStore`) and the
artifact store (:class:`~repro.serving.artifacts.ArtifactStore`) are
thin codecs over one :class:`ContentStore`, which alone owns:

* the layout: ``root/<key[:2]>/<key><suffix>``, entries ending in
  :data:`ENTRY_SUFFIX`;
* the atomic write: a ``<key>.tmp.<pid>`` file, then ``os.replace``;
* the sweep of tmp files stranded by a crash mid-write: dead owners on
  open, every owner on :meth:`ContentStore.clear`;
* one read path: a missing file is a miss, and a file that cannot be
  read (any ``OSError``) or decoded (:data:`DECODE_ERRORS`) is a
  counted, warned miss, never an error and never a silent nothing;
* a first-write-wins :meth:`ContentStore.put` under a lock, which tells
  a benign duplicate from a conflict by comparing codec digests;
* the counters, as ``<prefix>.<name>`` metrics on a
  :class:`~repro.observability.MetricsRegistry` (so campaign telemetry
  merges them), read through one :class:`StoreStats` view.
"""

from __future__ import annotations

import os
import threading
import warnings
from pathlib import Path
from typing import Callable

from repro.observability import MetricsRegistry

#: suffix of the files :meth:`ContentStore.keys` enumerates
ENTRY_SUFFIX = ".json"

#: what a codec's decoder raises on bytes it cannot read: JSON and
#: UTF-8 decode errors are ``ValueError``\ s, a missing field a
#: ``KeyError``, a field of the wrong shape a ``TypeError``
DECODE_ERRORS = (ValueError, KeyError, TypeError)

_READ_ERRORS = (OSError,) + DECODE_ERRORS


def _counter(name: str, doc: str) -> property:
    return property(lambda self: self._count(name), doc=doc)


class StoreStats:
    """Read-only view of one store's counters (``<prefix>.<name>``)."""

    NAMES = ("hits", "misses", "writes", "corrupt", "dedup_hits",
             "dedup_conflicts")

    hits = _counter("hits", "Reads that returned an entry.")
    misses = _counter("misses", "Reads that returned nothing: missing, "
                      "refused or corrupt.")
    writes = _counter("writes", "Entries written to disk.")
    corrupt = _counter(
        "corrupt",
        "Unreadable or undecodable entries detected, each also a miss; "
        "chaos audits assert it matches the injected corruption count.")
    dedup_hits = _counter(
        "dedup_hits",
        "Puts dropped because an entry already held the key: the losing "
        "side of a cross-shard duplicate-compute race.")
    dedup_conflicts = _counter(
        "dedup_conflicts",
        "Dropped puts whose digest differed from the kept entry; always "
        "0 for pure writers, anything else is a bug surfaced with a "
        "warning rather than a silent overwrite.")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self.registry = registry
        self.prefix = prefix

    def _count(self, name: str) -> int:
        return int(self.registry.counter(f"{self.prefix}.{name}").value)

    def record(self, name: str) -> None:
        self.registry.counter(f"{self.prefix}.{name}").inc()

    def as_dict(self) -> dict:
        return {name: self._count(name) for name in self.NAMES}


def _owner_alive(suffix: str) -> bool:
    """True when a tmp-file pid suffix names a live process, which may
    be a sibling campaign mid-write.  Unparseable suffixes count as
    dead (the file can only be junk)."""
    if not suffix.isdigit():
        return False
    pid = int(suffix)
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True   # e.g. EPERM: the process exists, just isn't ours
    return True


def _digest_or_none(digest: Callable[[bytes], str],
                    data: bytes) -> str | None:
    try:
        return digest(data)
    except DECODE_ERRORS:
        return None


class ContentStore:
    """``root/<key[:2]>/<key><suffix>`` files of codec-encoded bytes.

    ``prefix`` names the counters (``cache.hits``), ``label`` the entry
    in warnings (``"cache entry"``).
    """

    def __init__(self, root, *, prefix: str, label: str,
                 registry: MetricsRegistry):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.label = label
        self.stats = StoreStats(registry, prefix)
        # shard threads in one coordinator share a store object; the
        # lock makes the exists-check + replace in put() one atomic step
        # in-process (cross-process writers stay safe via os.replace)
        self._lock = threading.Lock()
        # a crash between the tmp write and os.replace strands the tmp
        # file forever (its pid never comes back); opening the store is
        # the safe moment to sweep them
        self._sweep_tmp(all_owners=False)

    def path(self, key: str, suffix: str = ENTRY_SUFFIX) -> Path:
        return self.root / key[:2] / f"{key}{suffix}"

    # -- reads ---------------------------------------------------------------
    def read(self, key: str, decode: Callable[[bytes], object], *,
             suffix: str = ENTRY_SUFFIX, label: str | None = None):
        """``decode`` of the bytes at ``key``, or None on a miss.

        Counts misses and corrupt reads but not hits: a codec that
        reads several files per lookup counts its hit with :meth:`get`
        on the last one.
        """
        path = self.path(key, suffix)
        try:
            return decode(path.read_bytes())
        except FileNotFoundError:
            self.stats.record("misses")
            return None
        except _READ_ERRORS as exc:
            # detected, counted and surfaced: a corrupt entry must read
            # as a miss, never as an error OR a silent nothing
            self.stats.record("corrupt")
            self.stats.record("misses")
            warnings.warn(
                f"corrupt {label or self.label} at {path} read as a miss "
                f"({type(exc).__name__}: {exc})",
                stacklevel=3,
            )
            return None

    def get(self, key: str, decode: Callable[[bytes], object], *,
            suffix: str = ENTRY_SUFFIX, label: str | None = None):
        """:meth:`read`, counting a hit when it returns an entry."""
        value = self.read(key, decode, suffix=suffix, label=label)
        if value is not None:
            self.stats.record("hits")
        return value

    # -- writes --------------------------------------------------------------
    def write(self, key: str, data: bytes, *,
              suffix: str = ENTRY_SUFFIX) -> None:
        """Atomically (re)write the file at ``key``; counts nothing."""
        path = self.path(key, suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{key}.tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def put(self, key: str, data: bytes,
            digest: Callable[[bytes], str]) -> bool:
        """First write wins; returns True when bytes hit the disk.

        A put for a key that already holds a *valid* entry (one whose
        bytes ``digest`` accepts) is dropped and counted as
        ``dedup_hits``; a digest mismatch is surfaced as a warning +
        ``dedup_conflicts``.  A missing or corrupt entry is (re)written.
        """
        path = self.path(key)
        with self._lock:
            try:
                existing = _digest_or_none(digest, path.read_bytes())
            except OSError:
                existing = None
            if existing is not None:
                self.stats.record("dedup_hits")
                if existing != _digest_or_none(digest, data):
                    self.stats.record("dedup_conflicts")
                    warnings.warn(
                        f"{self.label} {key[:12]}… was written twice "
                        f"with different payloads; keeping the first "
                        f"write (a content address names one payload)",
                        stacklevel=3,
                    )
                return False
            self.write(key, data)
            self.stats.record("writes")
            return True

    # -- enumeration ---------------------------------------------------------
    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob(f"*/*{ENTRY_SUFFIX}"))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*/*{ENTRY_SUFFIX}"))

    def clear(self) -> None:
        for entry in self.root.glob(f"*/*{ENTRY_SUFFIX}"):
            entry.unlink(missing_ok=True)
        self._sweep_tmp(all_owners=True)

    def _sweep_tmp(self, *, all_owners: bool) -> None:
        """Remove stranded ``*.tmp.<pid>`` files.

        By default only files whose owning pid is dead are removed: a
        live pid may be a concurrent campaign mid-write, and deleting
        its tmp file would make that process's ``os.replace`` fail.
        ``clear()`` passes ``all_owners=True``: an explicit wipe takes
        everything.
        """
        for orphan in self.root.glob("*/*.tmp.*"):
            if all_owners or not _owner_alive(orphan.name.rpartition(".")[2]):
                orphan.unlink(missing_ok=True)
