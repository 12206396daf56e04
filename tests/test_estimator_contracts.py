"""Cross-cutting estimator contract tests: every public classifier must
survive clone -> fit -> predict, params round-trips, and single-column
input; every transformer must be idempotent on transform."""

import pickle

import numpy as np
import pytest

from repro.ensemble.distillation import distill
from repro.models import (
    AdaBoostClassifier,
    BernoulliNB,
    DecisionTreeClassifier,
    DummyClassifier,
    ExtraTreesClassifier,
    GaussianNB,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LinearDiscriminantAnalysis,
    LogisticRegression,
    MLPClassifier,
    MultinomialNB,
    PriorFittedNetwork,
    QuadraticDiscriminantAnalysis,
    RandomForestClassifier,
    RandomForestRegressor,
    RidgeClassifier,
    SGDClassifier,
    clone,
)
from repro.preprocessing import (
    KBinsDiscretizer,
    MinMaxScaler,
    Normalizer,
    PCA,
    PolynomialFeatures,
    QuantileTransformer,
    RobustScaler,
    SimpleImputer,
    StandardScaler,
    TruncatedSVD,
    VarianceThreshold,
)

ALL_CLASSIFIERS = [
    DecisionTreeClassifier(max_depth=4, random_state=0),
    RandomForestClassifier(n_estimators=5, random_state=0),
    ExtraTreesClassifier(n_estimators=5, random_state=0),
    GradientBoostingClassifier(n_estimators=4, random_state=0),
    AdaBoostClassifier(n_estimators=5, random_state=0),
    LogisticRegression(max_iter=30),
    SGDClassifier(max_iter=5, random_state=0),
    RidgeClassifier(),
    GaussianNB(),
    MultinomialNB(),
    BernoulliNB(),
    KNeighborsClassifier(n_neighbors=3),
    MLPClassifier(max_iter=5, random_state=0),
    LinearDiscriminantAnalysis(),
    QuadraticDiscriminantAnalysis(),
    DummyClassifier(),
    PriorFittedNetwork(embed_dim=32, n_layers=2),
]

ALL_TRANSFORMERS = [
    SimpleImputer(),
    StandardScaler(),
    MinMaxScaler(),
    RobustScaler(),
    Normalizer(),
    VarianceThreshold(),
    PCA(n_components=2),
    TruncatedSVD(n_components=2),
    PolynomialFeatures(degree=2),
    QuantileTransformer(n_quantiles=16),
    KBinsDiscretizer(n_bins=3),
]


@pytest.mark.parametrize(
    "estimator", ALL_CLASSIFIERS, ids=lambda e: type(e).__name__)
class TestClassifierContract:
    def test_clone_fit_predict(self, estimator, split_binary):
        X_tr, X_te, y_tr, _ = split_binary
        model = clone(estimator)
        model.fit(X_tr, y_tr)
        preds = model.predict(X_te)
        assert preds.shape == (len(X_te),)
        assert set(preds).issubset(set(model.classes_))

    def test_params_roundtrip_via_clone(self, estimator):
        params = estimator.get_params()
        copy = clone(estimator)
        assert copy.get_params().keys() == params.keys()

    def test_single_feature_input(self, estimator, rng):
        X = rng.normal(0, 1, (80, 1))
        y = (X[:, 0] > 0).astype(int)
        model = clone(estimator)
        model.fit(X, y)
        assert model.predict(X[:5]).shape == (5,)

    def test_refit_overwrites_state(self, estimator, split_binary, rng):
        """Fitting twice must reflect only the second dataset — also
        when the first fit predicted (and built derived state) before
        the second."""
        X_tr, _, y_tr, _ = split_binary
        model = clone(estimator)
        model.fit(X_tr, y_tr)
        model.predict_proba(X_tr[:5])
        X2 = rng.normal(0, 1, (60, X_tr.shape[1]))
        y2 = rng.integers(0, 3, 60)
        y2[:3] = [0, 1, 2]
        model.fit(X2, y2)
        assert len(model.classes_) == 3
        fresh = clone(estimator).fit(X2, y2)
        assert np.array_equal(model.predict_proba(X2),
                              fresh.predict_proba(X2))

    def test_inference_flops_positive(self, estimator, split_binary):
        X_tr, _, y_tr, _ = split_binary
        model = clone(estimator)
        model.fit(X_tr, y_tr)
        assert model.inference_flops(10) > 0


def _distilled(X, y):
    teacher = RandomForestClassifier(n_estimators=3, random_state=0)
    return distill(teacher.fit(X, y), X, max_depth=4, random_state=0)


#: every model that predicts through a compiled tree table, as
#: ``fit(X, y) -> fitted model`` (the BO surrogate regresses on the labels)
TREE_ENSEMBLES = {
    "RandomForestClassifier": lambda X, y: RandomForestClassifier(
        n_estimators=5, random_state=0).fit(X, y),
    "ExtraTreesClassifier": lambda X, y: ExtraTreesClassifier(
        n_estimators=5, random_state=0).fit(X, y),
    "GradientBoostingClassifier": lambda X, y: GradientBoostingClassifier(
        n_estimators=4, random_state=0).fit(X, y),
    "AdaBoostClassifier": lambda X, y: AdaBoostClassifier(
        n_estimators=5, random_state=0).fit(X, y),
    "RandomForestRegressor": lambda X, y: RandomForestRegressor(
        n_estimators=5, random_state=0).fit(X, y),
    "DistilledModel": _distilled,
}


def _outputs(model, X):
    if hasattr(model, "predict_proba"):
        return model.predict_proba(X)
    return np.stack(model.predict_with_std(X))


class TestCompiledTreeState:
    """The compiled node table is derived state: a predict must not
    change what is pickled, an unpickled model predicts the same, and a
    second fit never predicts through the first fit's table."""

    @pytest.mark.parametrize("name", sorted(TREE_ENSEMBLES))
    def test_pickle_bytes_unchanged_by_predict(self, name, split_binary):
        X_tr, X_te, y_tr, _ = split_binary
        model = TREE_ENSEMBLES[name](X_tr, y_tr)
        before = pickle.dumps(model)
        expected = _outputs(model, X_te)
        assert pickle.dumps(model) == before
        copy = pickle.loads(before)
        assert _outputs(copy, X_te).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(TREE_ENSEMBLES))
    def test_pickle_round_trip_is_byte_stable(self, name, split_binary):
        X_tr, _, y_tr, _ = split_binary
        payload = pickle.dumps(TREE_ENSEMBLES[name](X_tr, y_tr))
        assert pickle.dumps(pickle.loads(payload)) == payload

    @pytest.mark.parametrize(
        "name", sorted(set(TREE_ENSEMBLES) - {"DistilledModel"}))
    def test_second_fit_predicts_like_a_fresh_model(self, name,
                                                    split_binary, rng):
        X_tr, _, y_tr, _ = split_binary
        model = TREE_ENSEMBLES[name](X_tr, y_tr)
        _outputs(model, X_tr)
        X2 = rng.normal(0, 1, (60, X_tr.shape[1]))
        y2 = rng.integers(0, 3, 60)
        model.fit(X2, y2)
        fresh = TREE_ENSEMBLES[name](X2, y2)
        assert _outputs(model, X2).tobytes() == \
            _outputs(fresh, X2).tobytes()


@pytest.mark.parametrize(
    "transformer", ALL_TRANSFORMERS, ids=lambda t: type(t).__name__)
class TestTransformerContract:
    def test_fit_transform_equals_fit_then_transform(
        self, transformer, split_binary
    ):
        X_tr, _, y_tr, _ = split_binary
        t1 = clone(transformer)
        a = t1.fit_transform(X_tr, y_tr)
        t2 = clone(transformer)
        t2.fit(X_tr, y_tr)
        b = t2.transform(X_tr)
        assert np.allclose(a, b)

    def test_transform_deterministic(self, transformer, split_binary):
        X_tr, X_te, y_tr, _ = split_binary
        t = clone(transformer)
        t.fit(X_tr, y_tr)
        assert np.allclose(t.transform(X_te), t.transform(X_te))

    def test_output_finite(self, transformer, split_binary):
        X_tr, X_te, y_tr, _ = split_binary
        t = clone(transformer)
        out = t.fit(X_tr, y_tr).transform(X_te)
        assert np.isfinite(out).all()

    def test_transform_flops_positive(self, transformer, split_binary):
        X_tr, _, y_tr, _ = split_binary
        t = clone(transformer)
        t.fit(X_tr, y_tr)
        assert t.transform_flops(10) > 0
