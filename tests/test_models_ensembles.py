"""Forests, extra-trees, boosting."""

import numpy as np
import pytest

from repro.metrics import balanced_accuracy_score
from repro.models import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)


class TestRandomForest:
    def test_beats_chance(self, split_multiclass):
        X_tr, X_te, y_tr, y_te = split_multiclass
        rf = RandomForestClassifier(n_estimators=20, random_state=0)
        rf.fit(X_tr, y_tr)
        assert balanced_accuracy_score(y_te, rf.predict(X_te)) > 0.6

    def test_improves_over_single_tree(self, split_multiclass):
        X_tr, X_te, y_tr, y_te = split_multiclass
        tree = DecisionTreeClassifier(max_features="sqrt", random_state=0)
        tree.fit(X_tr, y_tr)
        rf = RandomForestClassifier(n_estimators=30, random_state=0)
        rf.fit(X_tr, y_tr)
        tree_acc = balanced_accuracy_score(y_te, tree.predict(X_te))
        rf_acc = balanced_accuracy_score(y_te, rf.predict(X_te))
        assert rf_acc >= tree_acc - 0.02

    def test_n_estimators_respected(self, binary_data):
        X, y = binary_data
        rf = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(rf.estimators_) == 7

    def test_invalid_n_estimators(self, binary_data):
        X, y = binary_data
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0).fit(X, y)

    def test_proba_normalised(self, split_binary):
        X_tr, X_te, y_tr, _ = split_binary
        rf = RandomForestClassifier(n_estimators=10, random_state=0)
        proba = rf.fit(X_tr, y_tr).predict_proba(X_te)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_flops_sum_of_trees(self, binary_data):
        X, y = binary_data
        rf = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert rf.inference_flops(10) == pytest.approx(
            sum(t.inference_flops(10) for t in rf.estimators_)
        )

    def test_deterministic(self, binary_data):
        X, y = binary_data
        a = RandomForestClassifier(n_estimators=8, random_state=1).fit(X, y)
        b = RandomForestClassifier(n_estimators=8, random_state=1).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))


class TestExtraTrees:
    def test_beats_chance(self, split_binary):
        X_tr, X_te, y_tr, y_te = split_binary
        xt = ExtraTreesClassifier(n_estimators=20, random_state=0)
        xt.fit(X_tr, y_tr)
        assert balanced_accuracy_score(y_te, xt.predict(X_te)) > 0.7

    def test_uses_random_splitter_no_bootstrap(self):
        xt = ExtraTreesClassifier()
        assert xt.splitter == "random"
        assert xt.bootstrap is False


class TestRandomForestRegressor:
    def test_fit_quality(self, rng):
        X = rng.uniform(-2, 2, (300, 3))
        y = X[:, 0] ** 2 + X[:, 1]
        reg = RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y)
        assert reg.score(X, y) > 0.8

    def test_predict_with_std_shapes(self, rng):
        X = rng.normal(0, 1, (100, 2))
        y = X[:, 0]
        reg = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        mu, sd = reg.predict_with_std(X[:9])
        assert mu.shape == sd.shape == (9,)
        assert np.all(sd >= 0)

    def test_uncertainty_higher_off_manifold(self, rng):
        X = rng.uniform(-1, 1, (200, 1))
        y = X[:, 0]
        reg = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        _, sd_in = reg.predict_with_std(np.array([[0.0]]))
        _, sd_out = reg.predict_with_std(np.array([[10.0]]))
        assert sd_out[0] >= sd_in[0] - 1e-9

    @pytest.mark.parametrize("n_targets", [8, 12])
    @pytest.mark.parametrize("kwargs", [{}, {"bootstrap": False},
                                        {"binning": 16}])
    def test_rejects_x_and_y_of_different_lengths(self, rng, n_targets,
                                                  kwargs):
        """Too many targets were silently dropped and too few raised an
        IndexError, unless every tree fitted on the whole matrix."""
        X = rng.normal(0, 1, (10, 2))
        y = rng.normal(0, 1, n_targets)
        with pytest.raises(ValueError, match="X and y length mismatch"):
            RandomForestRegressor(n_estimators=3, random_state=0,
                                  **kwargs).fit(X, y)


class TestGradientBoosting:
    def test_beats_chance_multiclass(self, split_multiclass):
        X_tr, X_te, y_tr, y_te = split_multiclass
        gb = GradientBoostingClassifier(n_estimators=15, random_state=0)
        gb.fit(X_tr, y_tr)
        assert balanced_accuracy_score(y_te, gb.predict(X_te)) > 0.6

    def test_more_rounds_fit_train_better(self, binary_data):
        X, y = binary_data
        small = GradientBoostingClassifier(
            n_estimators=2, random_state=0).fit(X, y).score(X, y)
        big = GradientBoostingClassifier(
            n_estimators=30, random_state=0).fit(X, y).score(X, y)
        assert big >= small

    def test_subsample(self, binary_data):
        X, y = binary_data
        gb = GradientBoostingClassifier(
            n_estimators=8, subsample=0.5, random_state=0).fit(X, y)
        assert gb.score(X, y) > 0.7

    def test_proba_valid(self, split_multiclass):
        X_tr, X_te, y_tr, _ = split_multiclass
        gb = GradientBoostingClassifier(n_estimators=5, random_state=0)
        proba = gb.fit(X_tr, y_tr).predict_proba(X_te)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert proba.min() >= 0

    def test_flops_grow_with_rounds(self, binary_data):
        X, y = binary_data
        small = GradientBoostingClassifier(
            n_estimators=3, random_state=0).fit(X, y).inference_flops(100)
        big = GradientBoostingClassifier(
            n_estimators=20, random_state=0).fit(X, y).inference_flops(100)
        assert big > small


class TestAdaBoost:
    def test_beats_single_stump(self, split_binary):
        X_tr, X_te, y_tr, y_te = split_binary
        stump = DecisionTreeClassifier(max_depth=1, random_state=0)
        stump.fit(X_tr, y_tr)
        ada = AdaBoostClassifier(n_estimators=25, random_state=0)
        ada.fit(X_tr, y_tr)
        assert (
            balanced_accuracy_score(y_te, ada.predict(X_te))
            >= balanced_accuracy_score(y_te, stump.predict(X_te))
        )

    def test_weights_positive(self, binary_data):
        X, y = binary_data
        ada = AdaBoostClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert all(w > 0 for w in ada.estimator_weights_)

    def test_degenerate_data_keeps_one_stump(self):
        X = np.ones((20, 2))
        y = np.array([0, 1] * 10)
        ada = AdaBoostClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert len(ada.estimators_) >= 1
        assert ada.predict(X).shape == (20,)

    def test_multiclass(self, split_multiclass):
        X_tr, X_te, y_tr, y_te = split_multiclass
        ada = AdaBoostClassifier(n_estimators=20, max_depth=2,
                                 random_state=0).fit(X_tr, y_tr)
        assert balanced_accuracy_score(y_te, ada.predict(X_te)) > 0.5
