"""The exact builder that the lockstep kernel of :mod:`repro.models.tree`
replaced, kept as the reference it must match.

Each tree grows alone, on its own copy of its rows, in one depth-first
loop; each node's split search takes one stable sort, one candidate-cut
list and one 1-D prefix scan per candidate feature, the winner kept with
a strict ``>``.  Inside :func:`per_feature_search` every exact fit runs
this builder instead (it is patched in at the lockstep builder's entry,
``_grow_exact``), so a test or a bench can refit the same estimator from
the same seed and compare the trees byte for byte, or time the two.
"""

import contextlib
from unittest import mock

import numpy as np

from repro.models import DecisionTreeClassifier
from repro.models.tree import _TINY, _Tree, _resolve_max_features


def ref_grow_exact(trees, rngs, samples, XT, y, w):
    """Grow each tree alone, as a fit on ``X[rows]`` did before the
    lockstep builder (``XT``, ``y`` and ``w`` carry the lockstep pad,
    which no tree's rows reach)."""
    for tree, rng, rows in zip(trees, rngs, samples):
        ref_fit_one(tree, np.ascontiguousarray(XT[:, rows]), y[rows], rng,
                    None if w is None else w[rows])


def ref_fit_one(self, XT, y, rng, w):
    """One tree's depth-first loop over its own feature-major copy."""
    n_samples = XT.shape[1]
    k = _resolve_max_features(self.max_features, XT.shape[0])
    max_depth = self.max_depth if self.max_depth is not None else np.inf
    root_value = np.atleast_1d(self._leaf_value(y, w))
    tree = _Tree(value_width=root_value.shape[0])
    self.tree_ = tree
    root = tree.add_node(root_value, 0)
    # Stack of (node_id, row_indices, depth); depth-first expansion.
    stack = [(root, np.arange(n_samples), 0)]
    n_leaves = 1
    max_leaves = self.max_leaf_nodes or np.inf
    while stack:
        node, idx, depth = stack.pop()
        y_node = y[idx]
        w_node = None if w is None else w[idx]
        if (
            depth >= max_depth
            or len(idx) < self.min_samples_split
            or len(idx) < 2 * self.min_samples_leaf
            or self._node_impurity(y_node, w_node) <= 1e-12
            or n_leaves + 1 > max_leaves
        ):
            continue
        split = ref_best_split(self, XT, y, idx, k, rng, w)
        if split is None:
            continue
        feat, thr, left_idx, right_idx = split
        tree.feature[node] = feat
        tree.threshold[node] = thr
        left = tree.add_node(np.atleast_1d(self._leaf_value(
            y[left_idx], None if w is None else w[left_idx])), depth + 1)
        right = tree.add_node(np.atleast_1d(self._leaf_value(
            y[right_idx], None if w is None else w[right_idx])), depth + 1)
        tree.left[node] = left
        tree.right[node] = right
        n_leaves += 1  # replaced one leaf with two
        stack.append((left, left_idx, depth + 1))
        stack.append((right, right_idx, depth + 1))
    tree.finalize()


def ref_best_split(self, XT, y, idx, k, rng, w=None):
    n_features = XT.shape[0]
    features = (
        rng.choice(n_features, size=k, replace=False)
        if k < n_features
        else np.arange(n_features)
    )
    if self.splitter == "random":
        return self._random_split(XT, y, idx, features, rng, w)
    best_gain = 1e-12
    best = None
    n_node = len(idx)
    min_leaf = self.min_samples_leaf
    w_idx = None if w is None else w[idx]
    for feat in features:
        values = XT[feat, idx]
        order = np.argsort(values, kind="stable")
        v_sorted = values[order]
        y_sorted = y[idx[order]]
        diff = np.flatnonzero(v_sorted[1:] > v_sorted[:-1]) + 1
        if len(diff) == 0:
            continue
        cuts = diff[(diff >= min_leaf) & (diff <= n_node - min_leaf)]
        if len(cuts) == 0:
            continue
        w_sorted = None if w_idx is None else w_idx[order]
        gains = ref_gains(self, y_sorted, cuts, n_node, w_sorted)
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            cut = int(cuts[j])
            thr = 0.5 * (v_sorted[cut - 1] + v_sorted[cut])
            best_gain = float(gains[j])
            best = (int(feat), float(thr), idx[order[:cut]],
                    idx[order[cut:]])
    return best


def ref_classifier_gains(self, y_sorted, cuts, n_node, w_sorted=None):
    onehot = np.zeros((n_node, self._n_classes))
    onehot[np.arange(n_node), y_sorted] = 1.0
    if w_sorted is not None:
        onehot *= w_sorted[:, None]
    cum = np.cumsum(onehot, axis=0)
    left = cum[cuts - 1]
    total = cum[-1]
    right = total - left
    if w_sorted is None:
        n_left = cuts.astype(float)
        n_right = n_node - n_left
        n_total = float(n_node)
    else:
        n_left = np.maximum(left.sum(axis=1), _TINY)
        n_right = np.maximum(right.sum(axis=1), _TINY)
        n_total = max(float(total.sum()), _TINY)
    if self.criterion == "entropy":
        def _h(counts, n):
            p = counts / n[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                logp = np.where(p > 0, np.log2(np.maximum(p, 1e-300)), 0.0)
            return -np.sum(p * logp, axis=1)
        imp_left = _h(left, n_left)
        imp_right = _h(right, n_right)
    else:
        imp_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        imp_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
    parent = self._node_impurity(y_sorted, w_sorted)
    child = (n_left * imp_left + n_right * imp_right) / n_total
    return parent - child


def ref_regressor_gains(self, y_sorted, cuts, n_node, w_sorted=None):
    if w_sorted is None:
        cum = np.cumsum(y_sorted)
        cum2 = np.cumsum(y_sorted**2)
        n_left = cuts.astype(float)
        n_right = n_node - n_left
        n_total = float(n_node)
    else:
        cumw = np.cumsum(w_sorted)
        cum = np.cumsum(w_sorted * y_sorted)
        cum2 = np.cumsum(w_sorted * y_sorted**2)
        n_left = np.maximum(cumw[cuts - 1], _TINY)
        n_right = np.maximum(cumw[-1] - n_left, _TINY)
        n_total = max(float(cumw[-1]), _TINY)
    sum_left = cum[cuts - 1]
    sum2_left = cum2[cuts - 1]
    sum_right = cum[-1] - sum_left
    sum2_right = cum2[-1] - sum2_left
    var_left = sum2_left / n_left - (sum_left / n_left) ** 2
    var_right = sum2_right / n_right - (sum_right / n_right) ** 2
    parent = self._node_impurity(y_sorted, w_sorted)
    child = (n_left * var_left + n_right * var_right) / n_total
    return parent - child


def ref_gains(self, y_sorted, cuts, n_node, w_sorted=None):
    """Gains of one feature's admissible ``cuts`` (1-D prefix scans)."""
    gains = (ref_classifier_gains if isinstance(self, DecisionTreeClassifier)
             else ref_regressor_gains)
    return gains(self, y_sorted, cuts, n_node, w_sorted)


@contextlib.contextmanager
def per_feature_search():
    """Fit with the per-tree, per-feature reference builder patched in."""
    with mock.patch("repro.models.tree._grow_exact", ref_grow_exact):
        yield
