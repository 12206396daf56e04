"""Artifact store: round-trip fidelity, content addressing, manifest
refusal, and the campaign-winner export path (the store contract
shared with the cache and the evaluation store lives in
``test_content_store.py``)."""

import json
import warnings

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.serving import (
    ArtifactManifest,
    ArtifactStore,
    compute_artifact_id,
    export_system,
)
from repro.systems import make_system

from tests.serving_stubs import StubModel


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


def _save_stub(store, variant="ensemble", **kw):
    return store.save(
        StubModel(), system="Stub", variant=variant,
        dataset_fingerprint="cafe0123cafe0123",
        accuracy=0.9, **kw,
    )


class TestRoundTrip:
    def test_predictions_bit_identical_after_reload(self, store):
        model = StubModel(label=1)
        manifest = store.save(
            model, system="Stub", variant="ensemble",
            dataset_fingerprint="cafe0123cafe0123", accuracy=0.9,
        )
        loaded = store.load(manifest.artifact_id)
        X = np.linspace(-1, 1, 40).reshape(10, 4)
        assert np.array_equal(loaded.predict(X), model.predict(X))
        assert np.array_equal(loaded.predict_proba(X),
                              model.predict_proba(X))
        assert loaded.inference_flops(7) == model.inference_flops(7)
        assert np.array_equal(loaded.classes_, model.classes_)

    def test_inference_flops_priced_once_per_row_count(self, store):
        """A loaded artifact is never refit: the server's per-batch
        pricing reaches the model once per distinct row count."""
        loaded = store.load(_save_stub(store).artifact_id)
        calls = []
        price = loaded.model.inference_flops
        loaded.model.inference_flops = \
            lambda n: calls.append(n) or price(n)
        first = loaded.inference_flops(16)
        assert loaded.inference_flops(16) == first == price(16)
        assert calls == [16]
        loaded.inference_flops(4)
        assert calls == [16, 4]

    def test_manifest_fields_survive(self, store):
        manifest = _save_stub(store, extra={"dataset": "credit-g"})
        loaded = store.load(manifest.artifact_id)
        assert loaded.manifest == manifest
        assert loaded.manifest.extra == {"dataset": "credit-g"}
        assert loaded.manifest.n_bytes > 0

    def test_manifest_dict_round_trip(self, store):
        manifest = _save_stub(store)
        clone = ArtifactManifest.from_dict(
            json.loads(json.dumps(manifest.as_dict()))
        )
        assert clone == manifest

    def test_joules_per_prediction_is_kwh_scaled(self, store):
        manifest = _save_stub(store, inference_kwh_per_instance=2e-9)
        assert manifest.joules_per_prediction == pytest.approx(
            2e-9 * 3_600_000.0)

    def test_default_cost_comes_from_cost_model(self, store):
        manifest = _save_stub(store)
        assert manifest.inference_kwh_per_instance > 0


class TestContentAddressing:
    def test_same_identity_same_id(self):
        a = compute_artifact_id("S", "v", "fp", "cfg", "digest")
        assert a == compute_artifact_id("S", "v", "fp", "cfg", "digest")
        assert a != compute_artifact_id("S", "v", "fp", "cfg", "other")
        assert a != compute_artifact_id("S", "w", "fp", "cfg", "digest")

    def test_resave_reuses_the_id(self, store):
        first = _save_stub(store)
        second = _save_stub(store)
        assert first.artifact_id == second.artifact_id
        assert len(store) == 1

    def test_sharded_layout(self, store):
        manifest = _save_stub(store)
        shard = store.root / manifest.artifact_id[:2]
        assert (shard / f"{manifest.artifact_id}.pkl").exists()
        assert (shard / f"{manifest.artifact_id}.json").exists()


class TestCorruption:
    def test_garbled_manifest_reads_as_miss(self, store):
        manifest = _save_stub(store)
        meta = (store.root / manifest.artifact_id[:2]
                / f"{manifest.artifact_id}.json")
        meta.write_text("{not json")
        with pytest.warns(UserWarning, match="manifest"):
            assert store.load(manifest.artifact_id) is None

    def test_future_format_version_refused(self, store):
        manifest = _save_stub(store)
        meta = (store.root / manifest.artifact_id[:2]
                / f"{manifest.artifact_id}.json")
        payload = json.loads(meta.read_text())
        payload["format_version"] = 99
        meta.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="format"):
            assert store.load(manifest.artifact_id) is None


class TestEnumeration:
    def test_find_filters(self, store):
        _save_stub(store, variant="ensemble")
        _save_stub(store, variant="distilled")
        assert len(store.manifests()) == 2
        assert [m.variant for m in store.find(variant="distilled")] \
            == ["distilled"]
        assert store.find(system="Other") == []
        assert len(store.find(
            dataset_fingerprint="cafe0123cafe0123")) == 2

    def test_manifests_sorted_by_id(self, store):
        _save_stub(store, variant="a")
        _save_stub(store, variant="b")
        ids = [m.artifact_id for m in store.manifests()]
        assert ids == sorted(ids)


class TestExportSystem:
    def test_export_caml_variants(self, tmp_path):
        ds = load_dataset("credit-g")
        system = make_system("CAML", random_state=0, time_scale=0.01)
        system.fit(ds.X_train, ds.y_train, budget_s=10.0,
                   categorical_mask=ds.categorical_mask)
        store = ArtifactStore(tmp_path / "export")
        manifests = export_system(store, system, ds, random_state=0)
        assert "ensemble" in manifests
        assert len(manifests) >= 2
        for variant, manifest in manifests.items():
            assert manifest.system == "CAML"
            assert manifest.variant == variant
            assert manifest.dataset_fingerprint == ds.fingerprint()
            assert 0.0 <= manifest.accuracy <= 1.0
            assert manifest.inference_kwh_per_instance > 0
            assert manifest.extra["dataset"] == "credit-g"
            loaded = store.load(manifest.artifact_id)
            assert loaded is not None
            preds = loaded.predict(ds.X_test)
            assert len(preds) == len(ds.y_test)

    def test_exported_ensemble_predicts_like_the_system(self, tmp_path):
        ds = load_dataset("credit-g")
        system = make_system("CAML", random_state=0, time_scale=0.01)
        system.fit(ds.X_train, ds.y_train, budget_s=10.0,
                   categorical_mask=ds.categorical_mask)
        store = ArtifactStore(tmp_path / "export")
        manifests = export_system(store, system, ds, random_state=0)
        loaded = store.load(manifests["ensemble"].artifact_id)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.array_equal(loaded.predict(ds.X_test),
                                  system.predict(ds.X_test))
