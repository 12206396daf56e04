"""Compiled tree inference is bit-identical to walking the trees one by one.

The reference functions below are the per-tree predict loops that the
compiled node table (``repro.models.tree.NodeTable``) replaced: a
level-wise descent per tree that tracks which rows are still active, and
each ensemble adding its members' outputs one tree at a time.  Every
comparison is on the raw bytes of the outputs, not within a tolerance.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.ensemble.distillation import DistilledModel, distill
from repro.models import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ExtraTreesClassifier,
    FeatureBinner,
    GradientBoostingClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.models.tree import NodeTable, _Tree, accumulate
from repro.serving import (
    ArtifactStore,
    LoadProfile,
    PredictionServer,
    SLORouter,
    STATUS_OK,
    export_system,
    generate_requests,
)
from repro.systems import make_system
from repro.systems.autogluon import AutoGluonModel


# -- the per-tree reference -------------------------------------------------

def ref_apply(tree, X, thresholds=None):
    thr = tree.threshold if thresholds is None else thresholds
    nodes = np.zeros(X.shape[0], dtype=np.int64)
    active = tree.feature[nodes] != -1
    while np.any(active):
        idx = np.flatnonzero(active)
        cur = nodes[idx]
        feat = tree.feature[cur]
        go_left = X[idx, feat] <= thr[cur]
        nodes[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
        active[idx] = tree.feature[nodes[idx]] != -1
    return nodes


def ref_tree_values(est, X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return est.tree_.value[ref_apply(est.tree_, X)]


def ref_forest_proba(forest, X):
    X = np.asarray(X, dtype=float)
    k = len(forest.classes_)
    out = np.zeros((X.shape[0], k))
    for tree in forest.estimators_:
        proba = ref_tree_values(tree, X)
        if proba.shape[1] == k:
            out += proba
        else:
            for j, code in enumerate(tree.classes_):
                out[:, int(code)] += proba[:, j]
    return out / len(forest.estimators_)


def ref_forest_mean_std(forest, X):
    X = np.asarray(X, dtype=float)
    preds = np.stack([ref_tree_values(t, X)[:, 0]
                      for t in forest.estimators_])
    return preds.mean(axis=0), preds.std(axis=0)


def ref_gbm_proba(gbm, X):
    X = np.asarray(X, dtype=float)
    raw = np.tile(gbm.init_raw_, (X.shape[0], 1))
    for stage in gbm.stages_:
        for c, tree in enumerate(stage):
            raw[:, c] += gbm.learning_rate * ref_tree_values(tree, X)[:, 0]
    raw -= raw.max(axis=1, keepdims=True)
    e = np.exp(raw)
    return e / e.sum(axis=1, keepdims=True)


def ref_ada_proba(ada, X):
    X = np.asarray(X, dtype=float)
    k = len(ada.classes_)
    votes = np.zeros((X.shape[0], k))
    for tree, alpha in zip(ada.estimators_, ada.estimator_weights_):
        proba = np.zeros_like(votes)
        local = ref_tree_values(tree, X)
        for j, c in enumerate(tree.classes_):
            proba[:, int(c)] = local[:, j]
        votes += alpha * proba
    total = votes.sum(axis=1, keepdims=True)
    return votes / np.maximum(total, 1e-12)


def ref_distilled_proba(model, X):
    X = np.asarray(X, dtype=float)
    raw = np.column_stack([ref_tree_values(t, X)[:, 0]
                           for t in model._trees])
    raw = np.clip(raw, 1e-9, None)
    return raw / raw.sum(axis=1, keepdims=True)


def ref_autogluon_proba(model, X):
    """AutoGluon's weighted mix with every layer-1 block computed."""
    X = model._encode(X)
    stack = model.stack
    n1 = len(stack.layer1_)
    weights1 = model.weights[:n1]
    weights2 = model._layer2_weights
    need_layer2 = bool(stack.layer2_) and np.any(weights2 > 0)
    blocks = [stack._layer1_proba(bag, X) for bag in stack.layer1_]
    out = np.zeros((X.shape[0], len(model.classes_)))
    for w, block in zip(weights1, blocks):
        if w > 0:
            out += w * block
    if need_layer2:
        X_top = np.hstack([X] + blocks)
        lookup = {c: j for j, c in enumerate(model.classes_.tolist())}
        for w, bag in zip(weights2, stack.layer2_):
            if w <= 0:
                continue
            proba = bag.predict_proba(X_top)
            for j, c in enumerate(bag.classes_.tolist()):
                out[:, lookup[c]] += w * proba[:, j]
    total = out.sum(axis=1, keepdims=True)
    return out / np.maximum(total, 1e-12)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


# -- inputs -------------------------------------------------------------------

def _data(n, d, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] ** 2 > 0.3).astype(int)
    if k > 2:
        y = y + (X[:, 2] > 0.8)
    return X, y


def _queries(d, seed=99):
    """Held-out rows, 0 rows, 1 row and rows with NaNs."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1.2, (57, d))
    nan = X.copy()
    nan[rng.random(nan.shape) < 0.2] = np.nan
    return {"rows": X, "zero": X[:0], "one": X[:1], "nan": nan}


QUERIES = ("rows", "zero", "one", "nan")

CLASSIFIERS = {
    "rf": (lambda: RandomForestClassifier(
        n_estimators=12, max_depth=8, random_state=3), ref_forest_proba),
    "et": (lambda: ExtraTreesClassifier(
        n_estimators=12, max_depth=8, random_state=3), ref_forest_proba),
    "rf_binned": (lambda: RandomForestClassifier(
        n_estimators=6, random_state=4, binning=255), ref_forest_proba),
    "gbm": (lambda: GradientBoostingClassifier(
        n_estimators=9, max_depth=3, random_state=5), ref_gbm_proba),
    "gbm_binned": (lambda: GradientBoostingClassifier(
        n_estimators=9, max_depth=4, random_state=5, binning=255),
        ref_gbm_proba),
    "gbm_subsample": (lambda: GradientBoostingClassifier(
        n_estimators=6, subsample=0.7, random_state=6), ref_gbm_proba),
    "ada": (lambda: AdaBoostClassifier(
        n_estimators=10, max_depth=2, random_state=7), ref_ada_proba),
}


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_classifier_proba_is_bit_identical(name, n_classes, query):
    make, reference = CLASSIFIERS[name]
    X, y = _data(160, 6, n_classes, seed=n_classes)
    model = make().fit(X, y)
    Xq = _queries(6)[query]
    same_bytes(model.predict_proba(Xq), reference(model, Xq))
    same_bytes(model.predict(Xq),
               model.classes_[np.argmax(reference(model, Xq), axis=1)])


def test_forest_whose_bootstraps_miss_a_class():
    X, y = _data(60, 4, 2, seed=11)
    y[:2] = 2  # a rare third class that most bootstraps never draw
    forest = RandomForestClassifier(n_estimators=15, max_depth=5,
                                    random_state=0).fit(X, y)
    known = [len(t.classes_) for t in forest.estimators_]
    assert min(known) < 3 <= max(known)
    for Xq in _queries(4).values():
        same_bytes(forest.predict_proba(Xq), ref_forest_proba(forest, Xq))


@pytest.mark.parametrize("n_trials", [50, 200, 450])
def test_surrogate_mean_and_std_are_bit_identical(n_trials):
    """The BO surrogate's shape: a one-ulp drift would change the search
    path of every Bayesian-optimisation campaign."""
    rng = np.random.default_rng(n_trials)
    X = rng.random((n_trials, 28))
    y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(
        size=n_trials)
    surrogate = RandomForestRegressor(
        n_estimators=16, min_samples_leaf=2, max_features=0.8,
        random_state=n_trials).fit(X, y)
    assert max(t.get_depth() for t in surrogate.estimators_) >= 8
    candidates = rng.random((300, 28))
    mu, sd = surrogate.predict_with_std(candidates)
    ref_mu, ref_sd = ref_forest_mean_std(surrogate, candidates)
    same_bytes(mu, ref_mu)
    same_bytes(sd, ref_sd)
    same_bytes(surrogate.predict(candidates), ref_mu)
    for Xq in (candidates[:0], candidates[:1]):
        same_bytes(surrogate.predict_with_std(Xq)[1],
                   ref_forest_mean_std(surrogate, Xq)[1])


@pytest.mark.parametrize("query", QUERIES)
def test_distilled_student_is_bit_identical(query):
    X, y = _data(120, 6, 3, seed=5)
    teacher = RandomForestClassifier(n_estimators=8,
                                     random_state=0).fit(X, y)
    student = distill(teacher, X, random_state=0)
    assert isinstance(student, DistilledModel)
    Xq = _queries(6)[query]
    same_bytes(student.predict_proba(Xq), ref_distilled_proba(student, Xq))


@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_constant_target_fits_single_leaf_trees(name):
    make, reference = CLASSIFIERS[name]
    X, _ = _data(40, 3, 2, seed=1)
    model = make().fit(X, np.zeros(40, dtype=int))
    for Xq in _queries(3).values():
        same_bytes(model.predict_proba(Xq), reference(model, Xq))


def test_constant_target_regressors():
    X, _ = _data(40, 3, 2, seed=1)
    forest = RandomForestRegressor(n_estimators=4,
                                   random_state=0).fit(X, np.ones(40))
    assert all(t.get_depth() == 0 for t in forest.estimators_)
    for Xq in _queries(3).values():
        mu, sd = forest.predict_with_std(Xq)
        ref_mu, ref_sd = ref_forest_mean_std(forest, Xq)
        same_bytes(mu, ref_mu)
        same_bytes(sd, ref_sd)


class TestSingleTree:
    @pytest.mark.parametrize("query", QUERIES)
    def test_apply_matches_the_levelwise_walk(self, query):
        X, y = _data(200, 5, 3, seed=2)
        for tree in (
            DecisionTreeClassifier(random_state=0).fit(X, y),
            DecisionTreeRegressor(max_depth=12,
                                  random_state=0).fit(X, X[:, 0]),
            DecisionTreeClassifier(random_state=0, binning=255).fit(X, y),
        ):
            Xq = _queries(5)[query]
            same_bytes(tree.tree_.apply(Xq), ref_apply(tree.tree_, Xq))

    def test_apply_binned_matches_the_levelwise_walk(self):
        X, y = _data(300, 5, 2, seed=3)
        binner = FeatureBinner(255).fit(X)
        Xb = binner.transform(X)
        tree = DecisionTreeRegressor(max_depth=6, random_state=0) \
            .fit_binned(Xb, X[:, 0] - y, binner.edges_)
        same_bytes(tree.tree_.apply_binned(Xb),
                   ref_apply(tree.tree_, Xb, tree.tree_.bin_threshold))
        same_bytes(tree.predict_binned(Xb[:0]), tree.predict(X[:0]))

    def test_boosting_training_updates_use_the_same_leaves(self):
        X, y = _data(200, 5, 3, seed=4)
        gbm = GradientBoostingClassifier(n_estimators=5, max_depth=4,
                                         random_state=0,
                                         binning=255).fit(X, y)
        Xb = FeatureBinner(255).fit(X).transform(X)
        for tree in (t for stage in gbm.stages_ for t in stage):
            same_bytes(tree.tree_.apply_binned(Xb),
                       ref_apply(tree.tree_, Xb, tree.tree_.bin_threshold))

    def test_apply_binned_requires_a_binned_fit(self):
        X, y = _data(50, 3, 2, seed=5)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="binning"):
            tree.tree_.apply_binned(X.astype(np.uint8))

    def test_too_few_columns_is_an_error_not_a_wrapped_read(self):
        X, y = _data(80, 4, 2, seed=6)
        forest = RandomForestClassifier(n_estimators=3,
                                        random_state=0).fit(X, y)
        with pytest.raises(IndexError, match="columns"):
            forest.predict_proba(X[:, :1])


@pytest.mark.parametrize("shape", [(40, 1, 1), (40, 1), (40, 7, 3)])
def test_accumulate_adds_left_to_right(shape):
    """A pairwise ``sum`` rounds differently once the summed axis is
    the only one left (one row, one output), so the order is pinned."""
    rng = np.random.default_rng(0)
    terms = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, shape)
    start = rng.normal(size=shape[1:])
    expected = start.copy()
    for term in terms:
        expected = expected + term
    same_bytes(accumulate(start, terms), expected)


class TestNodeTable:
    def test_roots_offsets_and_self_loop_leaves(self):
        X, y = _data(100, 4, 2, seed=7)
        forest = RandomForestClassifier(n_estimators=3, max_depth=3,
                                        random_state=0).fit(X, y)
        trees = [t.tree_ for t in forest.estimators_]
        table = NodeTable(trees)
        sizes = [t.n_nodes for t in trees]
        assert table.roots.tolist() == [0, sizes[0], sizes[0] + sizes[1]]
        assert table.depth == max(t.max_depth() for t in trees)
        leaves = np.flatnonzero(np.concatenate([t.feature for t in trees])
                                == -1)
        assert (table.children[2 * leaves] == leaves).all()
        assert (table.children[2 * leaves + 1] == leaves).all()
        nodes = table.apply(X)
        assert nodes.shape == (3, len(X))
        for i, tree in enumerate(trees):
            same_bytes(nodes[i] - table.roots[i], ref_apply(tree, X))

    def test_table_is_built_once_and_dropped_by_fit(self):
        X, y = _data(100, 4, 2, seed=8)
        model = GradientBoostingClassifier(n_estimators=3, random_state=0)
        model.fit(X, y)
        model.predict_proba(X)
        first = model._table()
        model.predict_proba(X)
        assert model._table() is first
        model.fit(X[::-1], y[::-1])
        assert "_node_table" not in model.__dict__
        assert model._table() is not first


# -- end to end: an AutoGluon winner's deployment variants, served ------------

_PATCHES = (
    (RandomForestClassifier, "predict_proba", ref_forest_proba),
    (GradientBoostingClassifier, "predict_proba", ref_gbm_proba),
    (AdaBoostClassifier, "predict_proba", ref_ada_proba),
    (DistilledModel, "predict_proba", ref_distilled_proba),
    (AutoGluonModel, "predict_proba", ref_autogluon_proba),
    (_Tree, "apply", ref_apply),
)


def _serve(artifacts, stream):
    """One pass per variant, each through its own single-variant router."""
    out = {}
    for variant, artifact in sorted(artifacts.items()):
        server = PredictionServer(SLORouter({variant: artifact}),
                                  span_sample_every=0)
        out[variant] = server.process(stream)
    return out


def test_served_autogluon_variants_match_the_per_tree_path(
        tmp_path, monkeypatch):
    ds = load_dataset("credit-g")
    automl = make_system("AutoGluon", random_state=0, time_scale=0.01)
    automl.fit(ds.X_train, ds.y_train, budget_s=30.0,
               categorical_mask=ds.categorical_mask)
    store = ArtifactStore(tmp_path / "artifacts")
    manifests = export_system(store, automl, ds, random_state=0)
    assert set(manifests) == {"ensemble", "refit", "distilled"}
    artifacts = {v: store.load(m.artifact_id) for v, m in manifests.items()}
    stream = generate_requests(LoadProfile(n_requests=150),
                               X_pool=ds.X_test, random_state=0)
    compiled = _serve(artifacts, stream)
    probas = {v: a.predict_proba(ds.X_test) for v, a in artifacts.items()}

    for owner, name, reference in _PATCHES:
        monkeypatch.setattr(owner, name, reference)
    fresh = {v: store.load(m.artifact_id) for v, m in manifests.items()}
    expected = _serve(fresh, stream)
    for variant, responses in compiled.items():
        assert len(responses) == len(stream)
        served = 0
        for got, want in zip(responses, expected[variant]):
            assert (got.request_id, got.status) == \
                (want.request_id, want.status)
            if got.status == STATUS_OK:
                same_bytes(got.predictions, want.predictions)
                served += 1
        assert served > 0
        same_bytes(probas[variant],
                   fresh[variant].predict_proba(ds.X_test))
