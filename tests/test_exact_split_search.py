"""The row-wise exact split search grows the same trees as a per-feature scan.

The reference (``benchmarks/split_search_reference.py``, which the model
speed bench also times) is the exact ``splitter="best"`` search the
row-wise kernel replaced.  Patched in with ``per_feature_search``, it
refits the same estimator from the same seed, and every comparison is on
raw bytes: each tree's node arrays, the estimator's attribute names and
its pickle.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.models.tree import _BaseDecisionTree
from repro.pipeline.spaces import build_space
from benchmarks.split_search_reference import per_feature_search


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "depth")


def member_trees(model):
    if isinstance(model, _BaseDecisionTree):
        return [model.tree_]
    if isinstance(model, GradientBoostingClassifier):
        return [t.tree_ for stage in model.stages_ for t in stage]
    return [t.tree_ for t in model.estimators_]


def assert_same_fit(make, X, y, **fit_kw):
    """Fit ``make()`` with both searches; returns the row-wise model."""
    fast = make().fit(X, y, **fit_kw)
    with per_feature_search():
        ref = make().fit(X, y, **fit_kw)
    fast_trees, ref_trees = member_trees(fast), member_trees(ref)
    assert len(fast_trees) == len(ref_trees)
    for i, (a, b) in enumerate(zip(fast_trees, ref_trees)):
        assert a.n_nodes == b.n_nodes, f"tree {i}: node count"
        for name in TREE_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), \
                f"tree {i}: {name}"
    assert sorted(fast.__dict__) == sorted(ref.__dict__)
    assert pickle.dumps(fast) == pickle.dumps(ref)
    return fast


# -- data ---------------------------------------------------------------------

def surrogate_data(n_trials, seed=0):
    """BO surrogate inputs: encoded configurations of the full search
    space (28 columns, one-hot and conditional columns heavily tied) and
    scores with the ``-1.0`` failures ties of their own."""
    space = build_space()
    rng = np.random.default_rng(seed)
    X = np.vstack([space.encode(space.sample(rng)) for _ in range(n_trials)])
    y = np.round(rng.uniform(0.4, 0.9, n_trials), 3)
    y[rng.random(n_trials) < 0.1] = -1.0
    return X, y


def tied_data(n, d, n_classes=None, seed=0, levels=5, nan_frac=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, ::2] = np.round(X[:, ::2] * levels / 3) / levels  # heavy ties
    if nan_frac:
        X[rng.random((n, d)) < nan_frac] = np.nan
    if n_classes is None:
        y = np.nan_to_num(X[:, 0]) + rng.normal(scale=0.5, size=n)
    else:
        score = np.nan_to_num(X[:, : min(d, 3)]).sum(axis=1)
        y = np.digitize(score + rng.normal(scale=0.7, size=n),
                        np.quantile(score, np.linspace(0, 1, n_classes + 1)
                                    [1:-1]))
    return X, y


# -- the campaign shapes ----------------------------------------------------

@pytest.mark.parametrize("n_trials", [50, 157, 450])
def test_bo_surrogate_forest(n_trials):
    X, y = surrogate_data(n_trials, seed=n_trials)
    assert X.shape[1] == 28
    assert_same_fit(lambda: RandomForestRegressor(
        n_estimators=16, min_samples_leaf=2, max_features=0.8,
        random_state=11), X, y)


@pytest.mark.parametrize("n,d,n_classes", [(325, 5, 2), (229, 20, 2),
                                           (270, 20, 3)])
def test_gradient_boosting(n, d, n_classes):
    X, y = tied_data(n, d, n_classes, seed=n)
    assert_same_fit(lambda: GradientBoostingClassifier(
        n_estimators=50, max_depth=3, random_state=3), X, y)


def test_gradient_boosting_subsampled():
    X, y = tied_data(229, 20, 3, seed=5)
    assert_same_fit(lambda: GradientBoostingClassifier(
        n_estimators=20, max_depth=5, subsample=0.7, min_samples_leaf=3,
        random_state=4), X, y)


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("n_classes", [2, 3, 9, 12])
def test_decision_tree_classifier(criterion, n_classes):
    X, y = tied_data(300, 8, n_classes, seed=n_classes)
    assert_same_fit(lambda: DecisionTreeClassifier(
        criterion=criterion, max_features=5, random_state=0), X, y)


@pytest.mark.parametrize("n_classes", [2, 3, 9, 12])
def test_random_forest_classifier(n_classes):
    X, y = tied_data(240, 12, n_classes, seed=10 + n_classes)
    assert_same_fit(lambda: RandomForestClassifier(
        n_estimators=6, min_samples_leaf=2, random_state=1), X, y)


def test_adaboost_and_extra_trees():
    """AdaBoost's stumps take the row-wise search; extra-trees keep their
    per-feature random splitter, which must draw as before."""
    X, y = tied_data(200, 10, 3, seed=7)
    assert_same_fit(lambda: AdaBoostClassifier(
        n_estimators=12, max_depth=2, random_state=2), X, y)
    assert_same_fit(lambda: ExtraTreesClassifier(
        n_estimators=5, max_depth=8, random_state=2), X, y)


# -- weights, NaN, ties and the size constraints ------------------------------

def test_weighted_regressor():
    X, y = tied_data(260, 6, seed=21)
    w = np.random.default_rng(21).uniform(0.0, 2.0, len(y))
    w[::7] = 0.0
    assert_same_fit(lambda: DecisionTreeRegressor(
        min_samples_leaf=2, max_features=4, random_state=0), X, y,
        sample_weight=w)


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("n_classes", [2, 12])
def test_weighted_classifier(criterion, n_classes):
    X, y = tied_data(260, 6, n_classes, seed=22)
    w = np.random.default_rng(22).uniform(0.0, 2.0, len(y))
    w[::5] = 0.0
    assert_same_fit(lambda: DecisionTreeClassifier(
        criterion=criterion, max_features=4, random_state=0), X, y,
        sample_weight=w)


def test_nan_and_constant_columns():
    """NaN sorts last and no cut borders it; a constant or all-NaN row
    has no admissible cut (the classifiers reject NaN input)."""
    X, y = tied_data(180, 7, seed=31, nan_frac=0.05)
    X[:, 3] = 1.5
    X[:, 5] = np.nan
    assert_same_fit(lambda: DecisionTreeRegressor(
        max_features=0.8, random_state=3), X, y)
    X, y = tied_data(180, 7, 3, seed=32)
    X[:, 3] = 1.5
    assert_same_fit(lambda: DecisionTreeClassifier(
        max_features=0.8, random_state=3), X, y)


def test_only_constant_columns_make_a_leaf():
    X = np.ones((40, 3))
    y = np.arange(40.0)
    model = assert_same_fit(lambda: DecisionTreeRegressor(), X, y)
    assert model.tree_.n_nodes == 1


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3, 4])
def test_min_samples_leaf_window(min_samples_leaf):
    X, y = tied_data(150, 5, 2, seed=40 + min_samples_leaf)
    assert_same_fit(lambda: DecisionTreeClassifier(
        min_samples_leaf=min_samples_leaf, random_state=0), X, y)
    X, y = tied_data(150, 5, seed=50 + min_samples_leaf)
    assert_same_fit(lambda: DecisionTreeRegressor(
        min_samples_leaf=min_samples_leaf, max_depth=8, random_state=0),
        X, y)


@pytest.mark.parametrize("max_leaf_nodes", [2, 7, 30])
def test_max_leaf_nodes(max_leaf_nodes):
    X, y = tied_data(200, 6, 3, seed=60)
    assert_same_fit(lambda: DecisionTreeClassifier(
        max_leaf_nodes=max_leaf_nodes, max_features="sqrt",
        random_state=0), X, y)


@pytest.mark.parametrize("max_features", [1, 3, "sqrt", None])
def test_candidate_counts(max_features):
    X, y = tied_data(120, 9, seed=70)
    assert_same_fit(lambda: DecisionTreeRegressor(
        max_features=max_features, random_state=5), X, y)


def test_one_feature():
    X, y = tied_data(90, 1, 2, seed=80)
    assert_same_fit(lambda: DecisionTreeClassifier(random_state=0), X, y)


@pytest.mark.parametrize("n_classes", [None, 4])
def test_nodes_past_the_pairwise_block(n_classes):
    """Nodes of more than 128 rows, where numpy's pairwise sum recurses."""
    X, y = tied_data(1000, 4, n_classes, seed=90)
    make = DecisionTreeRegressor if n_classes is None \
        else DecisionTreeClassifier
    assert_same_fit(lambda: make(max_depth=6, random_state=0), X, y)


@pytest.mark.parametrize("n_classes", [None, 3])
def test_chunked_candidates_merge_in_draw_order(n_classes):
    """A chunk budget below one node's temporaries splits the candidates
    into chunks of one or a few rows.  Every column appears twice, so
    equal gains meet across chunks, and the earlier feature must win."""
    X, y = tied_data(150, 4, n_classes, seed=95)
    X = np.hstack([X, X])
    make = DecisionTreeRegressor if n_classes is None \
        else DecisionTreeClassifier
    with mock.patch("repro.models.tree._EXACT_CHUNK_ELEMENTS", 700):
        model = assert_same_fit(lambda: make(random_state=0), X, y)
    assert (model.tree_.feature < 4).all()


def test_a_row_with_a_nan_gain_is_never_taken():
    """A NaN anywhere among a candidate's gains rules that candidate out
    (numpy's argmax returned the NaN and ``NaN > best`` is false)."""

    class NanOnFirstCandidate(DecisionTreeRegressor):
        def _prefix_gains(self, y_sorted, n_node, w_sorted=None):
            gains = super()._prefix_gains(y_sorted, n_node, w_sorted)
            gains[0, 0] = np.nan
            return gains

    X = np.column_stack([np.arange(40.0), np.arange(40.0) % 7])
    y = (X[:, 0] >= 20).astype(float)
    assert DecisionTreeRegressor().fit(X, y).tree_.feature[0] == 0
    assert NanOnFirstCandidate().fit(X, y).tree_.feature[0] == 1


def test_estimator_state_and_pickle_are_unchanged():
    X, y = surrogate_data(60, seed=1)
    model = assert_same_fit(lambda: RandomForestRegressor(
        n_estimators=4, min_samples_leaf=2, max_features=0.8,
        random_state=0), X, y)
    assert pickle.dumps(pickle.loads(pickle.dumps(model))) \
        == pickle.dumps(model)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(2, 70),
    d=st.integers(1, 6),
    n_classes=st.sampled_from([None, 2, 3, 5]),
    levels=st.integers(1, 6),
    nan=st.booleans(),
    weighted=st.booleans(),
    min_samples_leaf=st.integers(1, 4),
    max_features=st.sampled_from([None, "sqrt", 0.8, 3]),
    max_depth=st.sampled_from([None, 3, 8]),
    criterion=st.sampled_from(["gini", "entropy"]),
    seed=st.integers(0, 2**16),
)
def test_random_shapes_and_ties(n, d, n_classes, levels, nan, weighted,
                                min_samples_leaf, max_features, max_depth,
                                criterion, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels + 1, size=(n, d)).astype(float)
    if n_classes is None:
        if nan:
            X[rng.random((n, d)) < 0.05] = np.nan
        y = rng.integers(0, 4, n) + 0.25 * rng.integers(0, 3, n)
        make = lambda: DecisionTreeRegressor(  # noqa: E731
            min_samples_leaf=min_samples_leaf, max_features=max_features,
            max_depth=max_depth, random_state=seed)
    else:
        y = rng.integers(0, n_classes, n)
        make = lambda: DecisionTreeClassifier(  # noqa: E731
            criterion=criterion, min_samples_leaf=min_samples_leaf,
            max_features=max_features, max_depth=max_depth,
            random_state=seed)
    fit_kw = {}
    if weighted:
        w = rng.uniform(0.0, 2.0, n)
        w[0] = 1.0  # positive total
        fit_kw["sample_weight"] = w
    assert_same_fit(make, X, y, **fit_kw)
