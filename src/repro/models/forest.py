"""Tree ensembles: random forests and extremely randomised trees.

With ``binning`` enabled the forest quantizes the training matrix exactly
once (one :class:`~repro.models.binning.FeatureBinner` per forest) and every
tree fits on row-subsets of the same shared binned matrix — bootstrap
resampling indexes uint8 codes instead of re-quantizing floats per tree.
Prediction descends every tree at once through the forest's compiled
:class:`~repro.models.tree.NodeTable`.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.models.binning import FeatureBinner
from repro.models.tree import (
    CompiledTreesMixin,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    NodeTable,
    accumulate,
)
from repro.utils.rng import check_random_state, spawn_seeds
from repro.utils.validation import check_is_fitted, check_X_y


class _BaseForest(CompiledTreesMixin, BaseEstimator):
    """Bagged trees; subclasses choose the tree type and aggregation."""

    def __init__(self, n_estimators=100, max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, max_features="sqrt", max_leaf_nodes=None,
                 bootstrap=True, splitter="best", random_state=None,
                 binning=None):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_leaf_nodes = max_leaf_nodes
        self.bootstrap = bootstrap
        self.splitter = splitter
        self.random_state = random_state
        self.binning = binning

    def _make_tree(self, seed):
        raise NotImplementedError

    def _fit_forest(self, X, y):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self._forget_table()
        rng = check_random_state(self.random_state)
        seeds = spawn_seeds(rng, self.n_estimators)
        n = X.shape[0]
        if self.binning is not None:
            # Quantize once, share the code matrix across every tree.
            binner = FeatureBinner(self.binning)
            Xb = binner.fit_transform(X)
            edges = binner.edges_
        else:
            Xb = edges = None
        self.estimators_ = []
        for seed in seeds:
            tree = self._make_tree(seed)
            if self.bootstrap:
                idx = check_random_state(seed).integers(0, n, size=n)
                if Xb is None:
                    tree.fit(X[idx], y[idx])
                else:
                    tree.fit_binned(Xb[idx], y[idx], edges)
            elif Xb is None:
                tree.fit(X, y)
            else:
                tree.fit_binned(Xb, y, edges)
            self.estimators_.append(tree)
        self.n_features_in_ = X.shape[1]

    def inference_flops(self, n_samples: int) -> float:
        check_is_fitted(self, "estimators_")
        return float(sum(t.inference_flops(n_samples) for t in self.estimators_))


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bootstrap-aggregated CART classifiers with feature subsampling."""

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        self._fit_forest(X, codes)
        return self

    def _make_tree(self, seed):
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            max_leaf_nodes=self.max_leaf_nodes,
            splitter=self.splitter,
            random_state=seed,
        )

    def _compile(self) -> NodeTable:
        # a bootstrap sample can miss a rare class entirely: such a tree
        # adds zeros to the classes it never saw
        return NodeTable.of(self.estimators_, len(self.classes_))

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = np.asarray(X, dtype=float)
        proba = self._table().predict(X)
        return accumulate(0.0, proba) / len(self.estimators_)


class ExtraTreesClassifier(RandomForestClassifier):
    """Extra-trees: random split thresholds, no bootstrap by default."""

    def __init__(self, n_estimators=100, max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, max_features="sqrt", max_leaf_nodes=None,
                 bootstrap=False, random_state=None, binning=None):
        super().__init__(
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf, max_features=max_features,
            max_leaf_nodes=max_leaf_nodes, bootstrap=bootstrap,
            splitter="random", random_state=random_state, binning=binning,
        )


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bagged CART regressors.

    Doubles as the Bayesian-optimization surrogate: ``predict_with_std``
    returns the across-tree mean and standard deviation, the classic
    SMAC-style uncertainty estimate.
    """

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        y = np.asarray(y, dtype=float).ravel()
        self._fit_forest(X, y)
        return self

    def _make_tree(self, seed):
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            max_leaf_nodes=self.max_leaf_nodes,
            splitter=self.splitter,
            random_state=seed,
        )

    def _compile(self) -> NodeTable:
        return NodeTable.of(self.estimators_)

    def _tree_predictions(self, X) -> np.ndarray:
        """``(trees, rows)`` predictions, laid out as ``np.stack`` of
        the per-tree predictions would lay them out."""
        check_is_fitted(self, "estimators_")
        return self._table().predict(np.asarray(X, dtype=float))

    def predict(self, X) -> np.ndarray:
        return self._tree_predictions(X).mean(axis=0)

    def predict_with_std(self, X) -> tuple[np.ndarray, np.ndarray]:
        preds = self._tree_predictions(X)
        return preds.mean(axis=0), preds.std(axis=0)
