"""Histogram-binned tree kernels: equivalence, weights, cached depth.

The binned builder is opt-in (``binning=<max_bins>``); ``binning=None``
must leave the exact sort-based path bit-identical, and the binned path
must agree with the exact path up to quantization tolerance while
honouring ``min_samples_leaf`` exactly.  A binned random forest grows its
trees in lockstep, and each must equal the tree grown alone.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import make_classification
from repro.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ExtraTreesClassifier,
    FeatureBinner,
    GradientBoostingClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)

FAST = settings(max_examples=25, deadline=None)


def _data(n=600, d=8, k=3, seed=0):
    return make_classification(
        n, d, k, class_sep=1.5, random_state=seed
    )


class TestFeatureBinner:
    def test_codes_respect_edges(self):
        X, _ = _data()
        binner = FeatureBinner(max_bins=16).fit(X)
        Xb = binner.transform(X)
        assert Xb.dtype == np.uint8
        assert (Xb < binner.n_bins_[None, :]).all()
        # split identity: v <= edges[j][t]  <=>  code <= t
        j, t = 3, 4
        edges = binner.edges_[j]
        assert len(edges) >= t + 1
        np.testing.assert_array_equal(
            X[:, j] <= edges[t], Xb[:, j] <= t
        )

    def test_small_cardinality_features_are_lossless(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 7, size=(300, 4)).astype(float)
        binner = FeatureBinner(max_bins=32).fit(X)
        Xb = binner.transform(X)
        # one code per distinct value: binning loses nothing
        assert all(
            len(np.unique(Xb[:, j])) == len(np.unique(X[:, j]))
            for j in range(4)
        )

    def test_max_bins_validation(self):
        X, _ = _data()
        with pytest.raises(ValueError):
            FeatureBinner(max_bins=1).fit(X)
        with pytest.raises(ValueError):
            FeatureBinner(max_bins=256).fit(X)


class TestBinnedEquivalence:
    def test_tree_binned_close_to_exact(self):
        X, y = _data(800)
        Xt, yt = _data(400, seed=1)
        exact = DecisionTreeClassifier(max_depth=8, random_state=0)
        binned = DecisionTreeClassifier(
            max_depth=8, random_state=0, binning=255
        )
        acc_e = exact.fit(X, y).score(Xt, yt)
        acc_b = binned.fit(X, y).score(Xt, yt)
        assert abs(acc_e - acc_b) < 0.05
        agree = (exact.predict(Xt) == binned.predict(Xt)).mean()
        assert agree > 0.85

    def test_regressor_binned_close_to_exact(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(800, 6))
        y = X[:, 0] * 2 + np.sin(X[:, 1]) + 0.05 * rng.normal(size=800)
        Xt = rng.normal(size=(300, 6))
        exact = DecisionTreeRegressor(max_depth=8, random_state=0)
        binned = DecisionTreeRegressor(
            max_depth=8, random_state=0, binning=255
        )
        pe = exact.fit(X, y).predict(Xt)
        pb = binned.fit(X, y).predict(Xt)
        assert np.corrcoef(pe, pb)[0, 1] > 0.99

    def test_binning_none_is_bit_identical_to_exact(self):
        X, y = _data(500)
        base = DecisionTreeClassifier(max_depth=6, random_state=0)
        none = DecisionTreeClassifier(
            max_depth=6, random_state=0, binning=None
        )
        base.fit(X, y)
        none.fit(X, y)
        np.testing.assert_array_equal(
            base.tree_.threshold[: base.tree_.n_nodes],
            none.tree_.threshold[: none.tree_.n_nodes],
        )
        np.testing.assert_array_equal(
            base.predict_proba(X), none.predict_proba(X)
        )

    @pytest.mark.parametrize("cls,kwargs", [
        (RandomForestClassifier, {"n_estimators": 10}),
        (ExtraTreesClassifier, {"n_estimators": 10}),
        (GradientBoostingClassifier, {"n_estimators": 10, "max_depth": 3}),
    ])
    def test_ensembles_binned_close_to_exact(self, cls, kwargs):
        X, y = _data(600)
        Xt, yt = _data(300, seed=1)
        acc_e = cls(random_state=0, **kwargs).fit(X, y).score(Xt, yt)
        acc_b = cls(random_state=0, binning=255, **kwargs) \
            .fit(X, y).score(Xt, yt)
        assert abs(acc_e - acc_b) < 0.08

    def test_predict_binned_matches_predict(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 5))
        y = X[:, 0] - X[:, 2] + 0.1 * rng.normal(size=400)
        binner = FeatureBinner(255).fit(X)
        tree = DecisionTreeRegressor(max_depth=5, random_state=0)
        tree.fit_binned(binner.transform(X), y, binner.edges_)
        np.testing.assert_allclose(
            tree.predict_binned(binner.transform(X)), tree.predict(X)
        )

    @given(
        seed=st.integers(0, 10_000),
        min_leaf=st.integers(1, 30),
        max_bins=st.integers(2, 64),
    )
    @FAST
    def test_binned_splits_respect_min_samples_leaf(
        self, seed, min_leaf, max_bins
    ):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2 * min_leaf, 200))
        X = rng.normal(size=(n, 3))
        X[:, 1] = rng.integers(0, 4, size=n)  # low-cardinality column
        y = rng.integers(0, 3, size=n)
        tree = DecisionTreeClassifier(
            min_samples_leaf=min_leaf, binning=max_bins, random_state=0
        ).fit(X, y)
        t = tree.tree_
        leaf_rows = np.bincount(t.apply(X), minlength=t.n_nodes)
        leaves = t.feature[: t.n_nodes] == -1
        assert leaf_rows[leaves].min() >= min_leaf


class TestSampleWeight:
    def test_weighted_differs_from_unweighted(self):
        # weights silently dropped would make these trees identical
        X, y = _data(500, seed=2)
        w = np.where(y == 0, 20.0, 1.0)
        plain = DecisionTreeClassifier(max_depth=5, random_state=0) \
            .fit(X, y)
        weighted = DecisionTreeClassifier(max_depth=5, random_state=0) \
            .fit(X, y, sample_weight=w)
        assert (plain.predict(X) != weighted.predict(X)).any()
        # upweighting class 0 must not lower its recall
        mask = y == 0
        assert (weighted.predict(X)[mask] == 0).mean() \
            >= (plain.predict(X)[mask] == 0).mean()

    def test_unit_weights_match_no_weights_exactly(self):
        X, y = _data(400, seed=3)
        for binning in (None, 64):
            a = DecisionTreeClassifier(
                max_depth=6, random_state=0, binning=binning
            ).fit(X, y)
            b = DecisionTreeClassifier(
                max_depth=6, random_state=0, binning=binning
            ).fit(X, y, sample_weight=np.ones(len(y)))
            np.testing.assert_array_equal(
                a.predict_proba(X), b.predict_proba(X)
            )

    def test_weighted_binned_close_to_weighted_exact(self):
        X, y = _data(600, seed=4)
        rng = np.random.default_rng(4)
        w = rng.uniform(0.1, 5.0, size=len(y))
        exact = DecisionTreeClassifier(max_depth=6, random_state=0) \
            .fit(X, y, sample_weight=w)
        binned = DecisionTreeClassifier(
            max_depth=6, random_state=0, binning=255
        ).fit(X, y, sample_weight=w)
        agree = (exact.predict(X) == binned.predict(X)).mean()
        assert agree > 0.9

    def test_regressor_weight_moves_leaf_means(self):
        X = np.asarray([[0.0], [0.0], [1.0], [1.0]])
        y = np.asarray([0.0, 1.0, 0.0, 1.0])
        w = np.asarray([1.0, 3.0, 3.0, 1.0])
        tree = DecisionTreeRegressor(max_depth=1, random_state=0) \
            .fit(X, y, sample_weight=w)
        np.testing.assert_allclose(tree.predict(X), [0.75, 0.75, 0.25,
                                                     0.25])

    def test_invalid_weights_raise(self):
        X, y = _data(100)
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y, sample_weight=np.ones(3))
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(
                X, y, sample_weight=-np.ones(len(y))
            )
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(
                X, y, sample_weight=np.zeros(len(y))
            )


class TestCachedDepth:
    def test_max_depth_is_cached_not_recomputed(self):
        X, y = _data(300)
        tree = DecisionTreeClassifier(max_depth=4, random_state=0) \
            .fit(X, y)
        t = tree.tree_
        assert t.max_depth() == t.max_depth_
        # the cached value is authoritative: no per-call node walk
        t.max_depth_ = 999
        assert t.max_depth() == 999

    def test_cached_depth_matches_node_walk(self):
        X, y = _data(400, seed=5)
        for binning in (None, 32):
            tree = DecisionTreeClassifier(random_state=0, binning=binning) \
                .fit(X, y)
            t = tree.tree_
            walked = int(t.depth[: t.n_nodes].max())
            assert t.max_depth() == walked


def _one_at_a_time(trees, Xb, y, edges, samples):
    """The forest's former binned loop: each tree fits its own copy of
    its sample rows, alone."""
    for tree, rows in zip(trees, samples):
        tree.fit_binned(Xb[rows], y[rows], edges)


_TREE_ARRAYS = ("feature", "threshold", "bin_threshold", "left", "right",
                "value", "depth")


def _assert_lockstep_equals_alone(make, X, y):
    together = make().fit(X, y)
    with mock.patch("repro.models.forest.fit_binned_many", _one_at_a_time):
        alone = make().fit(X, y)
    assert len(together.estimators_) == len(alone.estimators_)
    for i, (a, b) in enumerate(zip(together.estimators_, alone.estimators_)):
        assert a.tree_.n_nodes == b.tree_.n_nodes, f"tree {i}: node count"
        assert a.tree_.max_depth_ == b.tree_.max_depth_, f"tree {i}: depth"
        for name in _TREE_ARRAYS:
            assert getattr(a.tree_, name).tobytes() \
                == getattr(b.tree_, name).tobytes(), f"tree {i}: {name}"
    assert pickle.dumps(together) == pickle.dumps(alone)
    return together


class TestLockstepForest:
    """Every tree of a lockstep forest equals the same tree grown alone:
    same feature draws, same leaf budget, same node ids and values."""

    @pytest.mark.parametrize("kwargs", [
        {},
        {"max_features": None},
        {"max_depth": 4},
        {"min_samples_leaf": 3, "min_samples_split": 9},
        {"max_leaf_nodes": 9},
        {"max_leaf_nodes": 40, "max_features": 0.5},
        {"bootstrap": False},
    ])
    @pytest.mark.parametrize("binning", [255, 8])
    def test_classifier(self, kwargs, binning):
        X, y = _data(400, d=10, k=3, seed=7)
        X[:, 0] = np.round(X[:, 0])  # few distinct values
        X[:, 1] = 0.5  # constant column
        _assert_lockstep_equals_alone(lambda: RandomForestClassifier(
            n_estimators=6, random_state=3, binning=binning, **kwargs), X, y)

    @pytest.mark.parametrize("kwargs", [
        {}, {"max_features": 0.8, "min_samples_leaf": 2},
        {"max_leaf_nodes": 12},
    ])
    def test_regressor(self, kwargs):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 8))
        X[:, ::2] = np.round(X[:, ::2])
        y = X[:, 1] - 0.5 * X[:, 2] + rng.normal(scale=0.3, size=300)
        _assert_lockstep_equals_alone(lambda: RandomForestRegressor(
            n_estimators=5, random_state=4, binning=64, **kwargs), X, y)

    def test_a_bootstrap_that_misses_a_class(self):
        """A tree whose bootstrap lacks a class codes its labels apart,
        so it grows with its own kind, not with the others."""
        X, y = _data(60, d=4, k=2, seed=5)
        y = y.copy()
        y[:2] = 2  # a class of two rows: some bootstraps miss it
        model = _assert_lockstep_equals_alone(lambda: RandomForestClassifier(
            n_estimators=9, random_state=0, binning=255), X, y)
        widths = {len(t.classes_) for t in model.estimators_}
        assert widths == {2, 3}

    def test_memory_budget_splits_the_forest_into_batches(self):
        """A budget below one level of the whole forest grows the trees
        in batches of one or two; each is still the tree grown alone."""
        X, y = _data(200, d=9, k=3, seed=6)
        with mock.patch("repro.models.tree._HIST_CHUNK_ELEMENTS", 1500):
            _assert_lockstep_equals_alone(lambda: RandomForestClassifier(
                n_estimators=5, random_state=2, binning=64), X, y)

    def test_extra_trees_still_grow_alone(self):
        X, y = _data(300, d=6, k=3, seed=8)
        _assert_lockstep_equals_alone(lambda: ExtraTreesClassifier(
            n_estimators=4, random_state=1, binning=32), X, y)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 80),
        d=st.integers(1, 5),
        n_classes=st.integers(2, 4),
        max_bins=st.integers(2, 40),
        max_features=st.sampled_from([None, "sqrt", 0.7]),
        max_leaf_nodes=st.sampled_from([None, 3, 10]),
        min_samples_leaf=st.integers(1, 3),
    )
    @FAST
    def test_random_shapes(self, seed, n, d, n_classes, max_bins,
                           max_features, max_leaf_nodes, min_samples_leaf):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(n, d)).astype(float)
        y = rng.integers(0, n_classes, n)
        _assert_lockstep_equals_alone(lambda: RandomForestClassifier(
            n_estimators=4, max_features=max_features,
            max_leaf_nodes=max_leaf_nodes,
            min_samples_leaf=min_samples_leaf, random_state=seed,
            binning=max_bins), X, y)
