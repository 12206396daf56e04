"""Boosted tree ensembles: gradient boosting and AdaBoost (SAMME).

Both predict through one compiled :class:`~repro.models.tree.NodeTable`
per fitted model, whose leaf values carry the learning rate (GBM) or the
estimator weight (AdaBoost), added up in stage order.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseEstimator, ClassifierMixin
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


class GradientBoostingClassifier(CompiledTreesMixin, BaseEstimator,
                                 ClassifierMixin):
    """Multinomial gradient boosting with shallow regression trees.

    One tree per class per round fit to the softmax residuals; supports
    row subsampling (stochastic gradient boosting).  This is the stand-in for
    the LightGBM/XGBoost/CatBoost family that dominates AutoGluon's and
    FLAML's portfolios.  With ``binning`` enabled the training matrix is
    quantized exactly once and every tree of every round and class fits on
    (row-subsets of) the same binned matrix; training-time score updates
    descend the binned matrix directly via ``predict_binned``.
    """

    def __init__(self, n_estimators=50, learning_rate=0.1, max_depth=3,
                 subsample=1.0, min_samples_leaf=1, random_state=None,
                 binning=None):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.binning = binning

    def fit(self, X, y):
        self._forget_table()
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        k = len(self.classes_)
        n = X.shape[0]
        rng = check_random_state(self.random_state)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), codes] = 1.0
        prior = np.clip(onehot.mean(axis=0), 1e-6, 1.0)
        self.init_raw_ = np.log(prior)
        raw = np.tile(self.init_raw_, (n, 1))
        if self.binning is not None:
            binner = FeatureBinner(self.binning)
            Xb = binner.fit_transform(X)
            edges = binner.edges_
        else:
            Xb = edges = None
        self.stages_: list[list[DecisionTreeRegressor]] = []
        for _ in range(self.n_estimators):
            raw_stable = raw - raw.max(axis=1, keepdims=True)
            e = np.exp(raw_stable)
            proba = e / e.sum(axis=1, keepdims=True)
            residual = onehot - proba
            if self.subsample < 1.0:
                m = max(2, int(self.subsample * n))
                rows = rng.choice(n, size=m, replace=False)
            else:
                rows = np.arange(n)
            stage = []
            seeds = spawn_seeds(rng, k)
            for c, seed in enumerate(seeds):
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    random_state=seed,
                )
                if Xb is None:
                    tree.fit(X[rows], residual[rows, c])
                    raw[:, c] += self.learning_rate * tree.predict(X)
                else:
                    tree.fit_binned(Xb[rows], residual[rows, c], edges)
                    raw[:, c] += self.learning_rate * tree.predict_binned(Xb)
                stage.append(tree)
            self.stages_.append(stage)
        return self

    def _compile(self) -> NodeTable:
        trees = [tree for stage in self.stages_ for tree in stage]
        return NodeTable.of(trees, weights=[self.learning_rate] * len(trees))

    def _raw_scores(self, X) -> np.ndarray:
        """``init_raw_`` plus each stage's ``learning_rate * value``,
        added one stage at a time."""
        X = np.asarray(X, dtype=float)
        steps = self._table().predict(X)
        k = len(self.init_raw_)
        steps = steps.reshape(len(self.stages_), k, steps.shape[1])
        raw = accumulate(self.init_raw_[:, None], steps)
        return np.ascontiguousarray(raw.T)

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "stages_")
        raw = self._raw_scores(X)
        raw -= raw.max(axis=1, keepdims=True)
        e = np.exp(raw)
        return e / e.sum(axis=1, keepdims=True)

    def inference_flops(self, n_samples: int) -> float:
        check_is_fitted(self, "stages_")
        return float(
            sum(t.inference_flops(n_samples) for s in self.stages_ for t in s)
        )


class AdaBoostClassifier(CompiledTreesMixin, BaseEstimator,
                         ClassifierMixin):
    """SAMME AdaBoost over decision stumps / shallow trees."""

    def __init__(self, n_estimators=50, learning_rate=1.0, max_depth=1,
                 random_state=None):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.random_state = random_state

    def fit(self, X, y):
        self._forget_table()
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        k = len(self.classes_)
        n = X.shape[0]
        rng = check_random_state(self.random_state)
        w = np.full(n, 1.0 / n)
        self.estimators_: list[DecisionTreeClassifier] = []
        self.estimator_weights_: list[float] = []
        seeds = spawn_seeds(rng, self.n_estimators)
        for seed in seeds:
            # Weighted fitting via weighted bootstrap resampling.
            idx = check_random_state(seed).choice(n, size=n, p=w)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth, random_state=seed
            )
            tree.fit(X[idx], codes[idx])
            pred = tree.classes_[np.argmax(tree.predict_proba(X), axis=1)]
            miss = (pred != codes).astype(float)
            err = float(np.sum(w * miss))
            if err >= 1.0 - 1.0 / k:
                continue
            err = max(err, 1e-10)
            alpha = self.learning_rate * (
                np.log((1 - err) / err) + np.log(k - 1.0)
            )
            if alpha <= 0:
                continue
            self.estimators_.append(tree)
            self.estimator_weights_.append(alpha)
            w *= np.exp(alpha * miss)
            w /= w.sum()
            if err < 1e-9:
                break
        if not self.estimators_:  # degenerate data: keep one stump
            tree = DecisionTreeClassifier(max_depth=1, random_state=seeds[0])
            tree.fit(X, codes)
            self.estimators_.append(tree)
            self.estimator_weights_.append(1.0)
        return self

    def _compile(self) -> NodeTable:
        return NodeTable.of(self.estimators_, len(self.classes_),
                            weights=self.estimator_weights_)

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = np.asarray(X, dtype=float)
        votes = accumulate(0.0, self._table().predict(X))
        total = votes.sum(axis=1, keepdims=True)
        return votes / np.maximum(total, 1e-12)

    def inference_flops(self, n_samples: int) -> float:
        check_is_fitted(self, "estimators_")
        return float(
            sum(t.inference_flops(n_samples) for t in self.estimators_)
        )
