"""Versioned, content-addressed fitted-pipeline artifacts.

An *artifact* is one deployable model variant frozen to disk: a pickled
payload plus a JSON :class:`ArtifactManifest` carrying everything the
serving layer routes on — which campaign winner it is (system + dataset
fingerprint + config digest), which variant (``ensemble`` / ``refit`` /
``distilled``), the held-out accuracy, and the modelled
``inference_kwh_per_instance`` that turns the paper's O1 (stacked
ensembles blow up inference energy) into a routable number.

The store is a codec over :class:`~repro.storage.ContentStore`, the
primitive under the campaign result cache and the evaluation store: the
artifact id is a sha256 over the manifest identity fields *and* the
payload digest, and the files are ``<id[:2]>/<id>.{pkl,json}``, written
atomically.  Corruption degrades gracefully the same way a corrupt
cache entry does: a payload whose bytes no longer hash to the
manifest's ``payload_digest`` (or that fails to unpickle) is detected,
counted on the ``artifacts.corrupt`` metric, surfaced as a warning, and
read as a **miss** — never as an error, and never silently served.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.energy.machines import DEFAULT_MACHINE, JOULES_PER_KWH
from repro.faults import SEAM_ARTIFACT_CORRUPT, FaultInjector
from repro.observability import MetricsRegistry
from repro.storage import ContentStore, StoreStats

#: bump when the payload or manifest layout changes; a loader refuses
#: artifacts from a future format instead of guessing
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ArtifactManifest:
    """Everything the serving layer knows about one stored model."""

    artifact_id: str
    format_version: int
    system: str
    variant: str
    dataset_fingerprint: str
    config_digest: str
    accuracy: float
    inference_kwh_per_instance: float
    n_members: int
    payload_digest: str
    n_bytes: int
    extra: dict = field(default_factory=dict)

    @property
    def joules_per_prediction(self) -> float:
        """The manifest's routing currency: modelled steady-state joules
        for one predicted row on the profiling machine."""
        return self.inference_kwh_per_instance * JOULES_PER_KWH

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ArtifactManifest":
        return cls(
            artifact_id=str(payload["artifact_id"]),
            format_version=int(payload["format_version"]),
            system=str(payload["system"]),
            variant=str(payload["variant"]),
            dataset_fingerprint=str(payload["dataset_fingerprint"]),
            config_digest=str(payload["config_digest"]),
            accuracy=float(payload["accuracy"]),
            inference_kwh_per_instance=float(
                payload["inference_kwh_per_instance"]
            ),
            n_members=int(payload["n_members"]),
            payload_digest=str(payload["payload_digest"]),
            n_bytes=int(payload["n_bytes"]),
            extra=dict(payload.get("extra", {})),
        )


class LoadedArtifact:
    """A deserialised artifact: the fitted model plus its manifest.

    This is the object the prediction server holds per variant — it
    forwards the estimator surface (``predict`` / ``predict_proba`` /
    ``inference_flops`` / ``classes_``) so the energy cost model and the
    batcher treat it exactly like an in-memory fitted pipeline (the
    GRN005 artifact contract pins that surface).
    """

    def __init__(self, model, manifest: ArtifactManifest):
        self.model = model
        self.manifest = manifest
        #: ``n_samples -> inference_flops``: a loaded artifact is never
        #: refit, so the server prices each batch size once
        self._flops: dict[int, float] = {}

    @property
    def classes_(self):
        return self.model.classes_

    def predict(self, X) -> np.ndarray:
        return self.model.predict(X)

    def predict_proba(self, X) -> np.ndarray:
        return self.model.predict_proba(X)

    def inference_flops(self, n_samples: int) -> float:
        flops = self._flops.get(n_samples)
        if flops is None:
            flops = self._flops[n_samples] = float(
                self.model.inference_flops(n_samples))
        return flops

    def __repr__(self) -> str:
        m = self.manifest
        return (
            f"LoadedArtifact({m.system}/{m.variant} "
            f"id={m.artifact_id[:12]}… acc={m.accuracy:.3f})"
        )


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def compute_artifact_id(system: str, variant: str,
                        dataset_fingerprint: str, config_digest: str,
                        payload_digest: str) -> str:
    """Content address over identity fields + payload bytes: two saves
    of the same fitted model for the same campaign cell collide (reuse),
    anything else gets its own id."""
    text = "|".join((
        str(FORMAT_VERSION), system, variant, dataset_fingerprint,
        config_digest, payload_digest,
    ))
    return _sha256(text.encode())


def _decode_manifest(data: bytes) -> ArtifactManifest:
    return ArtifactManifest.from_dict(json.loads(data))


def _verified_model(payload_digest: str, payload: bytes):
    """The model pickled in ``payload``; raises ``ValueError`` when the
    bytes no longer hash to the manifest's digest or do not unpickle."""
    if _sha256(payload) != payload_digest:
        raise ValueError("payload fails digest verification")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        # digest matched but the pickle stream is unreadable (e.g.
        # saved by code that no longer exists): same graceful miss
        raise ValueError(f"payload fails to deserialise: {exc!r}") from exc


@dataclass
class ArtifactStore:
    """``root/<id[:2]>/<id>.{pkl,json}`` store of deployable models."""

    root: Path
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: chaos hook: when armed, ``save`` may garble the payload bytes it
    #: writes (the ``artifact_corrupt`` seam) so load-time digest
    #: verification is exercised under a seeded plan
    fault_injector: FaultInjector | None = None

    def __post_init__(self):
        self._store = ContentStore(self.root, prefix="artifacts",
                                   label="artifact manifest",
                                   registry=self.registry)
        self.root = self._store.root

    @property
    def stats(self) -> StoreStats:
        return self._store.stats

    # -- save ------------------------------------------------------------------
    def save(self, model, *, system: str, variant: str,
             dataset_fingerprint: str, config_digest: str = "",
             accuracy: float = float("nan"),
             inference_kwh_per_instance: float | None = None,
             machine=None, extra: dict | None = None) -> ArtifactManifest:
        """Serialise ``model`` and return its manifest.

        ``inference_kwh_per_instance`` defaults to the analytic cost
        model's steady-state estimate on ``machine`` — the number the
        SLO router converts to joules per prediction.  A re-save
        rewrites both files: the id is content-addressed, so the
        rewrite is idempotent and repairs a corrupted payload.
        """
        payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        payload_digest = _sha256(payload)
        if inference_kwh_per_instance is None:
            from repro.energy.cost_model import kwh_per_prediction

            inference_kwh_per_instance = kwh_per_prediction(
                model, machine or DEFAULT_MACHINE,
            )
        members = getattr(model, "ensemble_members", None)
        artifact_id = compute_artifact_id(
            system, variant, dataset_fingerprint, config_digest,
            payload_digest,
        )
        manifest = ArtifactManifest(
            artifact_id=artifact_id,
            format_version=FORMAT_VERSION,
            system=system,
            variant=variant,
            dataset_fingerprint=dataset_fingerprint,
            config_digest=config_digest,
            accuracy=float(accuracy),
            inference_kwh_per_instance=float(inference_kwh_per_instance),
            n_members=len(members) if members else 1,
            payload_digest=payload_digest,
            n_bytes=len(payload),
            extra=dict(extra or {}),
        )
        if self.fault_injector is not None:
            payload = self.fault_injector.corrupt_bytes(
                SEAM_ARTIFACT_CORRUPT, artifact_id, payload,
            )
        self._store.write(artifact_id, payload, suffix=".pkl")
        self._store.write(
            artifact_id,
            json.dumps(manifest.as_dict(), sort_keys=True).encode(),
        )
        self.stats.record("writes")
        return manifest

    # -- load ------------------------------------------------------------------
    def load_manifest(self, artifact_id: str) -> ArtifactManifest | None:
        return self._store.read(artifact_id, _decode_manifest)

    def load(self, artifact_id: str) -> LoadedArtifact | None:
        """Load + verify one artifact; corruption reads as a miss."""
        manifest = self.load_manifest(artifact_id)
        if manifest is None:
            return None
        if manifest.format_version > FORMAT_VERSION:
            self.stats.record("misses")
            warnings.warn(
                f"artifact {artifact_id[:12]}… uses format "
                f"v{manifest.format_version} > v{FORMAT_VERSION}; "
                f"read as a miss",
                stacklevel=2,
            )
            return None
        model = self._store.get(
            artifact_id,
            functools.partial(_verified_model, manifest.payload_digest),
            suffix=".pkl", label="artifact payload",
        )
        if model is None:
            return None
        return LoadedArtifact(model, manifest)

    # -- enumeration -----------------------------------------------------------
    def manifests(self) -> list[ArtifactManifest]:
        """All readable manifests, sorted by artifact id (stable)."""
        out = []
        for artifact_id in self._store.keys():
            manifest = self.load_manifest(artifact_id)
            if manifest is not None:
                out.append(manifest)
        return out

    def find(self, *, system: str | None = None,
             variant: str | None = None,
             dataset_fingerprint: str | None = None) -> list[ArtifactManifest]:
        return [
            m for m in self.manifests()
            if (system is None or m.system == system)
            and (variant is None or m.variant == variant)
            and (dataset_fingerprint is None
                 or m.dataset_fingerprint == dataset_fingerprint)
        ]

    def __len__(self) -> int:
        return len(self._store)


def export_system(store: ArtifactStore, system, dataset, *,
                  random_state=None) -> dict[str, ArtifactManifest]:
    """Export every deployment variant of a fitted AutoML system.

    Each variant is scored on the dataset's held-out test split (the
    accuracy the SLO router trades against joules) and profiled through
    the analytic inference cost model on the system's machine.  Returns
    ``variant name -> manifest`` in the system's cost order.
    """
    from repro.metrics.classification import balanced_accuracy_score

    fingerprint = dataset.fingerprint()
    config_digest = _config_digest_of(system)
    manifests: dict[str, ArtifactManifest] = {}
    for variant, model in system.deployment_variants(
            dataset.X_train, dataset.y_train,
            random_state=random_state).items():
        accuracy = balanced_accuracy_score(
            dataset.y_test, model.predict(dataset.X_test)
        )
        manifests[variant] = store.save(
            model,
            system=system.system_name,
            variant=variant,
            dataset_fingerprint=fingerprint,
            config_digest=config_digest,
            accuracy=accuracy,
            machine=system.machine,
            extra={"dataset": dataset.name},
        )
    return manifests


def _config_digest_of(system) -> str:
    """Digest of the winning configuration when the search recorded one
    (CAML/FLAML do); empty for plan-based systems."""
    result = getattr(system, "fit_result_", None)
    config = (result.info or {}).get("best_config") if result else None
    if not config:
        return ""
    text = repr(sorted(config.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
