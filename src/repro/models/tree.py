"""CART decision trees (classification and regression), pure numpy.

These trees are the workhorse of the whole reproduction: they power the
random forests, extra-trees, gradient boosting, the AutoGluon portfolio and
the random-forest surrogate inside Bayesian optimization.  Two split-search
kernels fill the same preallocated flat node arrays (after ivalice's
``_Tree``):

- the **exact** kernel (``binning=None``, the default) scores every cut of
  every candidate feature of a node in one array pass: the ``k`` drawn
  columns are gathered as one C-contiguous ``(k, n)`` matrix, one stable
  row-wise argsort orders them, and row-wise prefix sums (``y`` and
  ``y**2`` for the regressor, a ``(k, n, classes)`` one-hot cumsum for the
  classifier) give the gain of every admissible cut (the value changes,
  both sides keep ``min_samples_leaf`` rows).  Its trees are bit-identical
  to a scan of one feature at a time (the reference in
  ``benchmarks/split_search_reference.py``) because: one ``rng.choice`` draw
  per split attempt, in depth-first order; each row's parent impurity is
  reduced along the contiguous last axis, so its pairwise sums run in
  that feature's sort order (weighted fits evaluate each row's parent on
  its own); the first maximal cut and then the first maximal feature
  win, only above ``1e-12``, and a row whose best gain is NaN never
  does; children list their rows in the winning feature's sort order,
  the order their leaf values are summed in.  The random splitter
  (extra-trees) scans its few candidates one at a time;
- the **histogram** kernel (``binning=<max_bins>``) quantizes features once
  per fit into at most 255 ordinal codes (:class:`~repro.models.binning.
  FeatureBinner`) and searches splits via binned class-count/moment prefix
  scans.  Trees grow level by level and every node of a level is
  histogrammed by a single flat ``bincount`` keyed on ``(node, feature
  slot, bin, class)``, so the per-node Python overhead that dominates deep
  trees is amortized over the whole level.  A random forest's trees share
  each level batch (:func:`fit_binned_many`): one gather, one histogram
  pass per chunk and one partition serve them all, and each tree is
  bit-identical to a fit of its own.

Prediction is compiled: :class:`NodeTable` concatenates the node arrays of
every member tree of a fitted model, turns leaves into self-loops and finds
the leaf of every (tree, row) pair in one fixed-depth descent.  Ensembles
hold one table each (:class:`CompiledTreesMixin`), built on first predict;
a single tree's ``apply``/``apply_binned`` is the one-tree case of the same
descent.  Binned trees still store real-valued thresholds, so prediction
runs on raw matrices; only boosting's training-time score updates descend
the shared binned matrix on integer bin thresholds.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.models.binning import FeatureBinner
from repro.utils.rng import check_random_state
from repro.utils.validation import (
    check_is_fitted,
    check_sample_weight,
    check_X_y,
)

_LEAF = -1
#: initial node capacity; arrays double on demand
_INITIAL_CAPACITY = 64
#: denominators are clamped here so empty/zero-weight partitions score an
#: impurity of 0 instead of dividing by zero (their gain is masked anyway)
_TINY = 1e-300
#: per-level histogram tensors are chunked to at most this many elements,
#: and a lockstep batch of binned trees gathers at most this many
#: candidate codes per level (a single tree may exceed it)
_HIST_CHUNK_ELEMENTS = 2**23
#: the exact search's per-node temporaries are chunked to at most this
#: many elements, so that a large node's passes stay in cache
_EXACT_CHUNK_ELEMENTS = 2**16


class _Tree:
    """Flat preallocated-array representation of a fitted binary tree."""

    __slots__ = ("feature", "threshold", "bin_threshold", "left", "right",
                 "value", "depth", "n_nodes", "max_depth_", "binned")

    def __init__(self, value_width: int = 1,
                 capacity: int = _INITIAL_CAPACITY):
        capacity = max(int(capacity), 1)
        self.feature = np.full(capacity, _LEAF, dtype=np.int64)
        self.threshold = np.zeros(capacity, dtype=np.float64)
        self.bin_threshold = np.full(capacity, _LEAF, dtype=np.int64)
        self.left = np.full(capacity, _LEAF, dtype=np.int64)
        self.right = np.full(capacity, _LEAF, dtype=np.int64)
        self.value = np.zeros((capacity, max(int(value_width), 1)))
        self.depth = np.zeros(capacity, dtype=np.int64)
        self.n_nodes = 0
        self.max_depth_ = 0
        self.binned = False

    def _reserve(self, n_extra: int) -> None:
        need = self.n_nodes + n_extra
        cap = len(self.feature)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("feature", "threshold", "bin_threshold", "left",
                     "right", "depth"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=old.dtype)
            grown[: self.n_nodes] = old[: self.n_nodes]
            setattr(self, name, grown)
        grown_value = np.empty((cap, self.value.shape[1]))
        grown_value[: self.n_nodes] = self.value[: self.n_nodes]
        self.value = grown_value

    def add_node(self, value: np.ndarray, depth: int = 0) -> int:
        self._reserve(1)
        node = self.n_nodes
        self.n_nodes += 1
        self.feature[node] = _LEAF
        self.threshold[node] = 0.0
        self.bin_threshold[node] = _LEAF
        self.left[node] = _LEAF
        self.right[node] = _LEAF
        self.value[node] = value
        self.depth[node] = depth
        if depth > self.max_depth_:
            self.max_depth_ = depth
        return node

    def add_nodes(self, values: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Append a batch of leaves at once; returns their node ids."""
        m = len(depths)
        self._reserve(m)
        ids = self.n_nodes + np.arange(m)
        self.n_nodes += m
        self.feature[ids] = _LEAF
        self.threshold[ids] = 0.0
        self.bin_threshold[ids] = _LEAF
        self.left[ids] = _LEAF
        self.right[ids] = _LEAF
        self.value[ids] = values
        self.depth[ids] = depths
        if m and int(depths.max()) > self.max_depth_:
            self.max_depth_ = int(depths.max())
        return ids

    def finalize(self) -> None:
        """Trim the preallocated arrays to the fitted node count."""
        n = self.n_nodes
        self.feature = self.feature[:n]
        self.threshold = self.threshold[:n]
        self.bin_threshold = self.bin_threshold[:n]
        self.left = self.left[:n]
        self.right = self.right[:n]
        self.value = self.value[:n]
        self.depth = self.depth[:n]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id per row: the one-tree case of :meth:`NodeTable.apply`."""
        return NodeTable([self]).apply(X)[0]

    def apply_binned(self, Xb: np.ndarray) -> np.ndarray:
        """Leaf ids for a pre-quantized code matrix (training-time fast
        path for boosting: the shared binned matrix is descended on
        integer bin thresholds instead of re-comparing raw floats)."""
        if not self.binned:
            raise ValueError(
                "apply_binned requires a tree fitted with binning enabled"
            )
        return NodeTable([self], binned=True).apply(Xb)[0]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == _LEAF))

    def max_depth(self) -> int:
        """Depth of the deepest node, tracked during construction —
        O(1), never a per-call walk (``repro.serving`` prices every
        request through ``inference_flops`` -> ``get_depth``)."""
        return self.max_depth_


class NodeTable:
    """The member trees of one fitted model as one flat node table.

    Node ``i`` of member tree ``t`` is row ``roots[t] + i``; ``children``
    interleaves each node's (right, left) child so that the comparison
    result picks the next node by index.  Every leaf is a self-loop
    (feature 0, both children itself), so ``depth`` rounds of gather,
    compare and select — the deepest member's depth — land every
    (tree, row) pair on its leaf without tracking which rows are still
    descending.  ``value`` holds the per-node leaf values the owning
    model combines, already aligned by it (class codes, learning rate,
    estimator weight); it may be ``None`` for a bare descent.
    """

    __slots__ = ("feature", "threshold", "children", "roots", "depth",
                 "n_features", "value")

    def __init__(self, trees, value=None, *, binned: bool = False):
        def column(name):
            parts = [getattr(t, name)[: t.n_nodes] for t in trees]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        sizes = [t.n_nodes for t in trees]
        roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        feature, left, right = (column("feature"), column("left"),
                                column("right"))
        if len(trees) > 1:  # member-local child ids -> table rows
            shift = np.repeat(roots, sizes)
            left = left + shift
            right = right + shift
        leaf = feature == _LEAF
        ids = np.arange(len(feature), dtype=np.intp)
        children = np.empty(2 * len(feature), dtype=np.intp)
        children[0::2] = np.where(leaf, ids, right)
        children[1::2] = np.where(leaf, ids, left)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = column("bin_threshold" if binned else "threshold")
        self.children = children
        self.roots = roots
        self.depth = max(t.max_depth_ for t in trees)
        self.n_features = int(feature.max()) + 1
        self.value = value

    @classmethod
    def of(cls, estimators, n_classes=None, weights=None) -> "NodeTable":
        """The table of fitted ``DecisionTree*`` members, with leaf values
        ready to add up: a regressor's scalar per node, or a classifier's
        class probabilities placed onto the ensemble's ``n_classes``
        codes (a class a member never saw adds zeros).  ``weights``
        scales each member's values (learning rate, SAMME weight)."""
        trees = [est.tree_ for est in estimators]
        sizes = [t.n_nodes for t in trees]
        if n_classes is None:
            value = np.concatenate([t.value[: t.n_nodes, 0] for t in trees])
        else:
            value = np.zeros((sum(sizes), n_classes))
            start = 0
            for est, tree, size in zip(estimators, trees, sizes):
                value[start:start + size, est.classes_] = tree.value[:size]
                start += size
        if weights is not None:
            scale = np.repeat(np.asarray(weights, dtype=float), sizes)
            value = scale.reshape((-1,) + (1,) * (value.ndim - 1)) * value
        return cls(trees, value)

    def apply(self, X) -> np.ndarray:
        """Leaf id of every (tree, row) pair, shape ``(n_trees, n_rows)``."""
        X = np.asarray(X)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        n_rows, n_cols = X.shape
        if n_cols < self.n_features:
            raise IndexError(
                f"trees split on feature {self.n_features - 1} but X has "
                f"{n_cols} columns"
            )
        n_trees = len(self.roots)
        # one flat (tree-major) slot per (tree, row) pair; row_start is
        # each slot's offset of its row in the flattened X
        nodes = np.repeat(self.roots, n_rows)
        row_start = np.tile(np.arange(n_rows, dtype=np.intp) * n_cols,
                            n_trees)
        flat = np.ascontiguousarray(X).ravel()
        feature, threshold, children = (self.feature, self.threshold,
                                        self.children)
        for _ in range(self.depth):
            cell = feature[nodes]
            cell += row_start
            go_left = flat[cell] <= threshold[nodes]
            nodes += nodes
            nodes += go_left
            nodes = children[nodes]
        return nodes.reshape(n_trees, n_rows)

    def predict(self, X) -> np.ndarray:
        """Leaf value of every (tree, row) pair: ``value[apply(X)]``."""
        return self.value[self.apply(X)]


def accumulate(start, terms: np.ndarray) -> np.ndarray:
    """``start + terms[0] + terms[1] + ...``, added left to right.

    Member outputs are summed in the order the per-member loops this
    replaces added them, one ``+`` per member, so a compiled prediction
    is bit-identical to adding the members up one at a time (a pairwise
    ``sum`` could round differently).
    """
    acc = np.empty((len(terms) + 1,) + terms.shape[1:])
    acc[0] = start
    acc[1:] = terms
    return np.add.accumulate(acc, axis=0)[-1]


class CompiledTreesMixin:
    """One lazily built :class:`NodeTable` per fitted tree ensemble.

    The table is derived state: built on the first predict from the
    fitted trees (:meth:`_compile`), held on the instance, dropped by
    ``fit`` (:meth:`_forget_table`) and left out of pickles, so a saved
    model's bytes — and an artifact's content address — do not depend on
    whether it predicted before it was saved.
    """

    def _compile(self) -> NodeTable:
        raise NotImplementedError

    def _table(self) -> NodeTable:
        table = self.__dict__.get("_node_table")
        if table is None:
            table = self.__dict__["_node_table"] = self._compile()
        return table

    def _forget_table(self) -> None:
        self.__dict__.pop("_node_table", None)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_node_table", None)
        return state


def _resolve_max_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, float):
        return max(1, min(n_features, int(max_features * n_features)))
    if isinstance(max_features, (int, np.integer)):
        return max(1, min(n_features, int(max_features)))
    raise ValueError(f"invalid max_features: {max_features!r}")


class _BaseDecisionTree(BaseEstimator):
    """Shared builder skeleton; subclasses define impurity and leaf values.

    ``binning=None`` runs the exact sort-based split search (bit-identical
    to the historical builder); an integer ``binning`` in ``[2, 255]``
    quantizes features once and searches splits over histogram prefix
    scans.  ``min_samples_split`` / ``min_samples_leaf`` always count
    *rows*, not weight, so the binned builder's leaf guarantees are
    independent of ``sample_weight``.
    """

    def __init__(self, max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, max_features=None, max_leaf_nodes=None,
                 splitter="best", random_state=None, binning=None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_leaf_nodes = max_leaf_nodes
        self.splitter = splitter
        self.random_state = random_state
        self.binning = binning

    # -- subclass hooks ----------------------------------------------------
    def _leaf_value(self, y_node, w_node=None) -> np.ndarray:
        raise NotImplementedError

    def _prefix_gains(self, y_sorted, n_node, w_sorted=None):
        """Impurity gain of every prefix split of every row: ``y_sorted``
        (and ``w_sorted``) hold each candidate feature's node targets in
        that feature's sort order, shape ``(rows, n_node)``; the result
        has shape ``(rows, n_node - 1)``, column ``j`` the cut that sends
        the first ``j + 1`` rows left."""
        raise NotImplementedError

    def _node_impurity(self, y_node, w_node=None) -> float:
        raise NotImplementedError

    def _node_impurities_batch(self, y_rows, w_rows, block, n_blocks):
        """Impurity of ``n_blocks`` nodes at once (rows grouped by the
        sorted ``block`` id vector)."""
        raise NotImplementedError

    def _binned_splits_batch(self, sub, y_rows, w_rows, block, sizes,
                             impurities, n_bins, rng):
        """Best (slot, bin boundary, gain) per node for one level chunk.

        ``sub`` is the gathered ``(rows, candidate slots)`` code matrix,
        ``block`` the node id per row.  Gain is ``-inf`` for nodes with no
        admissible split."""
        raise NotImplementedError

    def _leaf_values_batch(self, y_sel, w_sel, child, n_children):
        """Leaf value matrix for ``n_children`` fresh leaves at once
        (rows grouped by the ``child`` id vector)."""
        raise NotImplementedError

    def _hist_width(self) -> int:
        """Trailing histogram dimension, for chunk-size budgeting."""
        raise NotImplementedError

    def _binned_target(self, y, rows):
        """The builder's target array for a fit on ``y[rows]``, indexed
        like ``y``, and a key equal between trees whose targets code
        alike; sets the fitted label state."""
        raise NotImplementedError

    # -- fitting -----------------------------------------------------------
    def fit_binned(self, Xb, y, edges, sample_weight=None):
        """Fit from a pre-quantized code matrix and its bin ``edges``
        (forests and boosting quantize once and fit many trees)."""
        Xb = np.asarray(Xb)
        w = check_sample_weight(sample_weight, Xb.shape[0])
        fit_binned_many([self], Xb, y, edges, [np.arange(Xb.shape[0])], w)
        return self

    def _fit_arrays(self, X: np.ndarray, y: np.ndarray,
                    sample_weight=None) -> None:
        w = check_sample_weight(sample_weight, X.shape[0])
        rng = check_random_state(self.random_state)
        if self.binning is not None:
            binner = FeatureBinner(self.binning).fit(X)
            _grow_binned([self], [rng], [np.arange(X.shape[0])],
                         binner.transform(X), y, binner.edges_, w)
        else:
            self._fit_exact_arrays(X, y, rng, w)
        self.n_features_in_ = X.shape[1]

    def _fit_exact_arrays(self, X, y, rng, w) -> None:
        n_samples = X.shape[0]
        k = _resolve_max_features(self.max_features, X.shape[1])
        # feature-major copy: a node's candidate columns gather into one
        # C-contiguous (k, n) matrix
        XT = np.ascontiguousarray(X.T)
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
            split = self._best_split(XT, y, idx, k, rng, w)
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

    # -- split search: exact kernel ----------------------------------------
    def _best_split(self, XT, y, idx, k, rng, w=None):
        """Best ``(feature, threshold, left rows, right rows)`` of one node,
        or ``None``; ``XT`` is the feature-major training matrix.

        One draw of ``k`` candidate features per call.  The ``"best"``
        splitter scores every cut of every candidate in one pass (see the
        module docstring): each row takes its first maximal admissible
        cut, the node its first maximal row in draw order, kept only above
        ``1e-12``.  Candidates are chunked so that no temporary exceeds
        ``_EXACT_CHUNK_ELEMENTS``; chunk winners merge in draw order with
        the same strict ``>``.
        """
        n_features = XT.shape[0]
        features = (
            rng.choice(n_features, size=k, replace=False)
            if k < n_features
            else np.arange(n_features)
        )
        if self.splitter == "random":
            return self._random_split(XT, y, idx, features, rng, w)
        n_node = len(idx)
        cuts = np.arange(1, n_node)
        in_window = ((cuts >= self.min_samples_leaf)
                     & (cuts <= n_node - self.min_samples_leaf))
        step = max(1, _EXACT_CHUNK_ELEMENTS // (n_node * self._hist_width()))
        best_gain = 1e-12
        best = None
        for f0 in range(0, k, step):
            feats = features[f0:f0 + step, None]
            order = np.argsort(XT[feats, idx], axis=1, kind="stable")
            rows = idx[order]  # each row's node rows in its sort order
            v_sorted = XT[feats, rows]
            gains = self._prefix_gains(y[rows], n_node,
                                       None if w is None else w[rows])
            gains = np.where((v_sorted[:, 1:] > v_sorted[:, :-1]) & in_window,
                             gains, -np.inf)
            at = gains.argmax(axis=1)  # a row's first NaN beats any number
            row_gain = gains[np.arange(len(feats)), at]
            f = int(np.argmax(np.where(np.isnan(row_gain), -np.inf,
                                       row_gain)))
            if row_gain[f] > best_gain:
                cut = int(at[f]) + 1
                thr = 0.5 * (v_sorted[f, cut - 1] + v_sorted[f, cut])
                best_gain = float(row_gain[f])
                best = (int(feats[f, 0]), float(thr), rows[f, :cut].copy(),
                        rows[f, cut:].copy())
        return best

    def _random_split(self, XT, y, idx, features, rng, w=None):
        """Extra-trees split: one uniform threshold per candidate feature,
        drawn and scored in draw order."""
        best_gain = 1e-12
        best = None
        n_node = len(idx)
        min_leaf = self.min_samples_leaf
        y_node = y[idx]
        w_idx = None if w is None else w[idx]
        for feat in features:
            values = XT[feat, idx]
            lo, hi = values.min(), values.max()
            if hi <= lo:
                continue
            thr = rng.uniform(lo, hi)
            mask = values <= thr
            n_left = int(mask.sum())
            if n_left < min_leaf or n_node - n_left < min_leaf:
                continue
            gain = self._split_gain_for_mask(y_node, mask, w_idx)
            if gain > best_gain:
                best_gain = gain
                best = (int(feat), float(thr), idx[mask], idx[~mask])
        return best

    def _weighted_parents(self, y_sorted, w_sorted) -> np.ndarray:
        """Weighted parent impurity of every row's sort order, as a
        ``(rows, 1)`` column: the weighted sums run in row order, so each
        row keeps its own value."""
        return np.array([self._node_impurity(ys, ws)
                         for ys, ws in zip(y_sorted, w_sorted)])[:, None]

    # -- prediction helpers ------------------------------------------------
    def get_depth(self) -> int:
        check_is_fitted(self, "tree_")
        return self.tree_.max_depth()

    def get_n_leaves(self) -> int:
        check_is_fitted(self, "tree_")
        return self.tree_.n_leaves

    def inference_flops(self, n_samples: int) -> float:
        """~3 ops per level descended per sample."""
        check_is_fitted(self, "tree_")
        return 3.0 * n_samples * max(1, self.get_depth())


def _random_bin_cuts(nl_all, sizes, min_leaf, rng):
    """Draw one bin boundary per (node, slot) uniformly from each slot's
    occupied bin range; returns (t, n_left, valid)."""
    lo = (nl_all > 0).argmax(axis=2)
    hi = (nl_all < sizes[:, None, None]).sum(axis=2)
    has_range = hi > lo
    t = lo + rng.integers(0, np.maximum(hi - lo, 1))
    n_left = np.take_along_axis(nl_all, t[..., None], axis=2)[..., 0]
    valid = (has_range & (n_left >= min_leaf)
             & (sizes[:, None] - n_left >= min_leaf))
    return t, n_left, valid


def _chunk_bounds(sizes, per_cell, nb, budget):
    """Node-range chunk boundaries sized to the histogram tensor.

    ``sizes`` must be descending: the first node of each chunk bounds the
    rank-compressed histogram width, so chunks of small nodes pack many
    more nodes under the same element ``budget`` than the global width
    ``nb`` would allow.
    """
    bounds = [0]
    n = len(sizes)
    neg = -sizes
    while bounds[-1] < n:
        b0 = bounds[-1]
        width = min(nb, int(sizes[b0]))
        step = max(1, budget // max(1, per_cell * width))
        b1 = min(n, b0 + step)
        # break the chunk where node sizes halve: the tail nodes then
        # get their own chunk whose compressed width is at most half
        b1 = min(b1, b0 + int(np.searchsorted(
            neg[b0:b1], -(width // 2), side="right")))
        bounds.append(max(b1, b0 + 1))
    return bounds


def _rank_compress(sub_c, block_c, n_blocks, k, nb):
    """Re-code each (node, slot) column to dense ranks of its occupied
    bins.

    Deep levels hold many small nodes whose rows occupy only a handful
    of the ``nb`` global bins; compressing to local ranks shrinks the
    split-scan histogram width from ``nb`` to at most the largest node
    size.  Rank order preserves bin order, so ``rank <= t_local`` is the
    same partition as ``code <= decode(t_local)``.  Returns the re-coded
    matrix, the local width, the per-unique global bin ids, and the
    group-start offsets that decode ``(node, slot, t_local)`` back to a
    global bin.
    """
    key = ((block_c * k)[:, None] + np.arange(k)).ravel()
    flat = key * np.int64(nb) + sub_c.ravel()
    uniq, inv = np.unique(flat, return_inverse=True)
    gstart = np.searchsorted(uniq // nb, np.arange(n_blocks * k))
    local = (inv - gstart[key]).astype(np.uint8).reshape(sub_c.shape)
    width = int(np.diff(np.append(gstart, len(uniq))).max())
    return local, width, (uniq % nb).astype(np.int64), gstart


def _ranges(starts, sizes):
    """The ranges ``arange(s, s + n)`` of every (start, size) pair, one
    after another, without a Python loop over the pairs."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + sizes, sizes) + np.arange(total)


def fit_binned_many(trees, Xb, y, edges, samples, w=None) -> None:
    """Fit the histogram-kernel ``trees`` on row subsets of one shared code
    matrix: ``trees[i]`` fits on rows ``samples[i]`` of ``Xb`` / ``y``
    (/ ``w``) as if given ``Xb[samples[i]]`` alone.

    Best-split trees whose targets code alike grow level by level in
    lockstep, in batches sized to the histogram budget (a forest's
    bootstrap can miss a class; such a tree codes its labels apart and
    grows with its own kind).  Random-split trees draw their cuts per
    level chunk, so each grows on its own.
    """
    groups = {}
    for tree, rows in zip(trees, samples):
        target, key = tree._binned_target(y, rows)
        if tree.splitter != "best":
            key = ("alone", len(groups))
        members = groups.setdefault(key, ([], [], target))
        members[0].append(tree)
        members[1].append(rows)
    for group, rows, target in groups.values():
        # a level gathers k codes for every row of every tree it grows:
        # batch the trees so that this stays within the histogram budget
        k = _resolve_max_features(group[0].max_features, Xb.shape[1])
        step = max(1, _HIST_CHUNK_ELEMENTS
                   // max(1, k * max(len(r) for r in rows)))
        for i in range(0, len(group), step):
            batch = group[i:i + step]
            rngs = [check_random_state(tree.random_state) for tree in batch]
            _grow_binned(batch, rngs, rows[i:i + step], Xb, target, edges, w)
        for tree in group:
            tree.n_features_in_ = Xb.shape[1]


def _grow_binned(trees, rngs, samples, Xb, y, edges, w) -> None:
    """Grow ``trees`` with the histogram kernel, all levels in lockstep.

    ``trees[0]`` supplies the hyper-parameters and kernels shared by every
    tree; ``trees[i]`` fits on rows ``samples[i]`` and draws from
    ``rngs[i]``.  A level batch holds the frontier nodes of every tree, so
    one gather, one histogram pass per chunk and one partition serve the
    whole forest.  Each tree still comes out as if grown alone: it draws
    its per-level feature subsets from its own generator, for its own
    nodes in their batch order; its leaf budget is its own; and every
    reduction (class counts, moments, prefix scans, leaf values) runs over
    one node's rows in their partition order, which rank compression and
    the chunking do not change.
    """
    est = trees[0]
    Xb = np.ascontiguousarray(Xb)
    n_features = Xb.shape[1]
    k = _resolve_max_features(est.max_features, n_features)
    max_depth = est.max_depth if est.max_depth is not None else np.inf
    n_bins = max((len(e) for e in edges), default=0) + 1
    built = []
    for tree_est, rows in zip(trees, samples):
        root_value = np.atleast_1d(tree_est._leaf_value(
            y[rows], None if w is None else w[rows]))
        tree = _Tree(value_width=root_value.shape[0])
        tree.binned = True
        tree.add_node(root_value, 0)
        tree_est.tree_ = tree
        built.append(tree)
    # padded (feature, bin) -> threshold lookup, gathered per split
    edge_table = np.zeros((n_features, n_bins - 1))
    for j, e in enumerate(edges):
        edge_table[j, : len(e)] = e
    # One shared row-index array, partitioned in place: tree i's rows
    # start as its own segment, and each frontier node owns the
    # contiguous segment [start, end) of its rows.
    indices = np.concatenate([np.asarray(r, dtype=np.int64)
                              for r in samples])
    bounds = np.concatenate(([0], np.cumsum([len(r) for r in samples])))
    tid = np.flatnonzero((np.diff(bounds) >= 2) & (n_bins >= 2))
    nodes = np.zeros(len(tid), dtype=np.int64)
    starts, ends = bounds[tid], bounds[tid + 1]
    depths = np.zeros(len(tid), dtype=np.int64)
    n_leaves = np.ones(len(trees), dtype=np.int64)
    max_leaves = float(est.max_leaf_nodes or np.inf)
    min_leaf = est.min_samples_leaf
    min_split = max(est.min_samples_split, 2 * min_leaf, 2)
    while len(nodes):
        sizes = ends - starts
        live = np.flatnonzero((depths < max_depth) & (sizes >= min_split)
                              & (n_leaves[tid] + 1 <= max_leaves))
        if not len(live):
            break
        # Largest nodes first: similar-size nodes then share a chunk,
        # so rank compression can shrink the histogram width of the
        # small-node chunks; it also makes heavy nodes the priority
        # order once the max_leaf_nodes budget runs out.
        order = live[np.argsort(-sizes[live], kind="stable")]
        tid, nodes, starts, ends, depths, sizes = (
            tid[order], nodes[order], starts[order], ends[order],
            depths[order], sizes[order])
        rows = indices[_ranges(starts, sizes)]
        block = np.repeat(np.arange(len(nodes)), sizes)
        y_rows = y[rows]
        w_rows = None if w is None else w[rows]
        imp = est._node_impurities_batch(y_rows, w_rows, block, len(nodes))
        live = imp > 1e-12
        if not live.all():
            keep = live[block]
            rows, y_rows = rows[keep], y_rows[keep]
            w_rows = None if w is None else w_rows[keep]
            tid, nodes, starts, ends, depths, sizes, imp = (
                tid[live], nodes[live], starts[live], ends[live],
                depths[live], sizes[live], imp[live])
            block = np.repeat(np.arange(len(nodes)), sizes)
        n_level = len(nodes)
        if not n_level:
            break
        if k < n_features:
            # one feature subset per node, sampled without replacement
            # from the node's own tree's generator
            feats = np.empty((n_level, k), dtype=np.int64)
            for t in np.unique(tid):
                mine = tid == t
                feats[mine] = np.argsort(
                    rngs[t].random((int(mine.sum()), n_features)),
                    axis=1)[:, :k]
            # flat gather: one 1-D take, faster than 2-D fancy indexing
            sub = Xb.ravel()[rows[:, None] * n_features + feats[block]]
        else:
            feats = None  # slots are features: skip the index gather
            sub = Xb[rows]
        nb = min(n_bins, int(sub.max()) + 1)
        if nb < 2:
            break
        slot = np.empty(n_level, dtype=np.int64)
        tcut = np.empty(n_level, dtype=np.int64)
        gain = np.empty(n_level)
        row_off = np.concatenate(([0], np.cumsum(sizes)))
        chunks = _chunk_bounds(sizes, k * est._hist_width(), nb,
                               _HIST_CHUNK_ELEMENTS)
        for b0, b1 in zip(chunks[:-1], chunks[1:]):
            r0, r1 = row_off[b0], row_off[b1]
            sub_c = sub[r0:r1]
            block_c = block[r0:r1] - b0
            nb_c, dec = nb, None
            if est.splitter == "best" and int(sizes[b0]) < nb:
                # small-node chunk: occupied bins << nb, so re-code
                # to dense local ranks and scan a narrow histogram
                # (random splits keep global bins: their cut draw is
                # uniform over the bin *range*, not occupied bins)
                sub_c, nb_c, codes_u, gstart = _rank_compress(
                    sub_c, block_c, b1 - b0, k, nb)
                dec = (codes_u, gstart)
            if nb_c < 2:
                slot[b0:b1] = 0
                tcut[b0:b1] = 0
                gain[b0:b1] = -np.inf
                continue
            s_c, t_c, g_c = est._binned_splits_batch(
                sub_c, y_rows[r0:r1],
                None if w_rows is None else w_rows[r0:r1],
                block_c, sizes[b0:b1], imp[b0:b1], nb_c, rngs[0])
            if dec is not None:
                codes_u, gstart = dec
                t_c = codes_u[gstart[np.arange(b1 - b0) * k + s_c] + t_c]
            slot[b0:b1] = s_c
            tcut[b0:b1] = t_c
            gain[b0:b1] = g_c
        do_split = gain > 1e-12
        if np.isfinite(max_leaves):
            # each tree's batch order is its priority order once its
            # leaf budget runs out (the exact path's depth-first analogue)
            for t in np.unique(tid):
                mine = np.flatnonzero(tid == t)
                d = do_split[mine]
                do_split[mine] = d & (n_leaves[t] + np.cumsum(d)
                                      <= max_leaves)
        chosen = np.flatnonzero(do_split)
        if not len(chosen):
            break
        tid_c = tid[chosen]
        n_leaves += np.bincount(tid_c, minlength=len(trees))
        # partition every split segment into [left | right] in place
        go_left = (np.take_along_axis(
            sub, slot[block][:, None], axis=1)[:, 0] <= tcut[block])
        in_split = do_split[block]
        rows_s = rows[in_split]
        go_s = go_left[in_split]
        block_s = block[in_split]
        # stable sort on (node, side) keeps original row order within
        # each child, matching the exact builder's boolean indexing
        perm = np.argsort(2 * block_s + (~go_s), kind="stable")
        indices[_ranges(starts[chosen], sizes[chosen])] = rows_s[perm]
        n_left_node = np.bincount(
            block_s, weights=go_s, minlength=n_level)[chosen]
        mids = starts[chosen] + n_left_node.astype(np.int64)
        # children: interleaved (left, right) ids with batched values
        inv = np.full(n_level, -1, dtype=np.int64)
        inv[chosen] = np.arange(len(chosen))
        child = 2 * inv[block_s] + (~go_s)
        values = est._leaf_values_batch(
            y_rows[in_split],
            None if w_rows is None else w_rows[in_split],
            child, 2 * len(chosen))
        kid_depths = depths[chosen] + 1
        feat_sel = (slot[chosen] if feats is None
                    else feats[chosen, slot[chosen]])
        cut_sel = tcut[chosen]
        threshold = edge_table[feat_sel, cut_sel]
        parents = nodes[chosen]
        left_ids = np.empty(len(chosen), dtype=np.int64)
        right_ids = np.empty(len(chosen), dtype=np.int64)
        for t in np.unique(tid_c):
            mine = np.flatnonzero(tid_c == t)
            tree = built[t]
            kids = tree.add_nodes(
                values[(2 * mine[:, None] + np.arange(2)).ravel()],
                np.repeat(kid_depths[mine], 2))
            left_ids[mine], right_ids[mine] = kids[0::2], kids[1::2]
            at = parents[mine]
            tree.feature[at] = feat_sel[mine]
            tree.threshold[at] = threshold[mine]
            tree.bin_threshold[at] = cut_sel[mine]
            tree.left[at] = kids[0::2]
            tree.right[at] = kids[1::2]
        # next frontier: every left child, then every right child
        tid = np.concatenate((tid_c, tid_c))
        nodes = np.concatenate((left_ids, right_ids))
        starts = np.concatenate((starts[chosen], mids))
        ends = np.concatenate((mids, ends[chosen]))
        depths = np.concatenate((kid_depths, kid_depths))
    for tree in built:
        tree.finalize()


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classifier with gini or entropy impurity."""

    def __init__(self, criterion="gini", max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, max_features=None, max_leaf_nodes=None,
                 splitter="best", random_state=None, binning=None):
        super().__init__(max_depth=max_depth,
                         min_samples_split=min_samples_split,
                         min_samples_leaf=min_samples_leaf,
                         max_features=max_features,
                         max_leaf_nodes=max_leaf_nodes,
                         splitter=splitter, random_state=random_state,
                         binning=binning)
        self.criterion = criterion

    def fit(self, X, y, sample_weight=None):
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        self._n_classes = len(self.classes_)
        self._fit_arrays(X, codes, sample_weight)
        return self

    def _binned_target(self, y, rows):
        self._encode_labels(np.asarray(y)[rows])
        self._n_classes = len(self.classes_)
        return (np.searchsorted(self.classes_, y),
                (self.classes_.dtype.str, self.classes_.tobytes()))

    def _leaf_value(self, y_node, w_node=None) -> np.ndarray:
        if w_node is None:
            counts = np.bincount(
                y_node, minlength=self._n_classes).astype(float)
        else:
            counts = np.bincount(
                y_node, weights=w_node, minlength=self._n_classes)
            if counts.sum() <= 0:  # all-zero-weight node: fall back to rows
                counts = np.bincount(
                    y_node, minlength=self._n_classes).astype(float)
        total = counts.sum()
        return counts / total if total else counts

    def _node_impurity(self, y_node, w_node=None) -> float:
        if w_node is None:
            p = np.bincount(y_node, minlength=self._n_classes) \
                / max(len(y_node), 1)
        else:
            cw = np.bincount(y_node, weights=w_node,
                             minlength=self._n_classes)
            total = cw.sum()
            if total <= 0:
                return 0.0
            p = cw / total
        if self.criterion == "entropy":
            nz = p[p > 0]
            return float(-np.sum(nz * np.log2(nz)))
        return float(1.0 - np.sum(p**2))

    def _prefix_gains(self, y_sorted, n_node, w_sorted=None) -> np.ndarray:
        n_rows = len(y_sorted)
        onehot = np.zeros((n_rows, n_node, self._n_classes))
        onehot[np.arange(n_rows)[:, None], np.arange(n_node), y_sorted] = 1.0
        if w_sorted is not None:
            onehot *= w_sorted[:, :, None]
        cum = np.cumsum(onehot, axis=1)
        left = cum[:, :-1]          # class mass left of each cut
        total = cum[:, -1:]
        right = total - left
        if w_sorted is None:
            n_left = np.arange(1.0, n_node)
            n_right = n_node - n_left
            n_total = float(n_node)
            # integer class counts: every sort order has the same parent
            parent = self._node_impurity(y_sorted[0])
        else:
            n_left = np.maximum(left.sum(axis=2), _TINY)
            n_right = np.maximum(right.sum(axis=2), _TINY)
            n_total = np.maximum(total.sum(axis=2), _TINY)
            parent = self._weighted_parents(y_sorted, w_sorted)
        if self.criterion == "entropy":
            def _h(counts, n):
                p = counts / n[..., None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    logp = np.where(p > 0, np.log2(np.maximum(p, 1e-300)), 0.0)
                return -np.sum(p * logp, axis=2)
            imp_left = _h(left, n_left)
            imp_right = _h(right, n_right)
        else:
            imp_left = 1.0 - np.sum((left / n_left[..., None]) ** 2, axis=2)
            imp_right = 1.0 - np.sum((right / n_right[..., None]) ** 2, axis=2)
        child = (n_left * imp_left + n_right * imp_right) / n_total
        return parent - child

    def _split_gain_for_mask(self, y_node, mask, w_node=None) -> float:
        parent = self._node_impurity(y_node, w_node)
        left, right = y_node[mask], y_node[~mask]

        def _imp(part, w_part):
            if w_part is None:
                p = np.bincount(part, minlength=self._n_classes) / len(part)
            else:
                cw = np.bincount(part, weights=w_part,
                                 minlength=self._n_classes)
                total = cw.sum()
                if total <= 0:
                    return 0.0
                p = cw / total
            if self.criterion == "entropy":
                nz = p[p > 0]
                return float(-np.sum(nz * np.log2(nz)))
            return float(1.0 - np.sum(p**2))

        if w_node is None:
            child = (
                len(left) * _imp(left, None) + len(right) * _imp(right, None)
            ) / len(y_node)
        else:
            wl, wr = w_node[mask], w_node[~mask]
            n_l, n_r = wl.sum(), wr.sum()
            child = (n_l * _imp(left, wl) + n_r * _imp(right, wr)) \
                / max(n_l + n_r, _TINY)
        return parent - child

    # -- batched histogram kernel ------------------------------------------
    def _hist_width(self) -> int:
        return self._n_classes

    def _node_impurities_batch(self, y_rows, w_rows, block, n_blocks):
        kc = self._n_classes
        key = block * kc + y_rows
        if w_rows is None:
            cc = np.bincount(key, minlength=n_blocks * kc) \
                .reshape(n_blocks, kc).astype(np.float64)
        else:
            cc = np.bincount(key, weights=w_rows,
                             minlength=n_blocks * kc).reshape(n_blocks, kc)
        total = np.maximum(cc.sum(axis=1), _TINY)
        p = cc / total[:, None]
        if self.criterion == "entropy":
            with np.errstate(divide="ignore", invalid="ignore"):
                h = np.where(p > 0, p * np.log2(np.maximum(p, 1e-300)), 0.0)
            return -h.sum(axis=1)
        return 1.0 - (p**2).sum(axis=1)

    def _gains_from_class_counts(self, left, right, parent):
        """Impurity gain for left/right class-count tensors whose last
        axis is the class axis; ``parent`` is the per-node impurity."""
        w_l = left.sum(axis=-1)
        w_r = right.sum(axis=-1)
        w_t = np.maximum(w_l + w_r, _TINY)
        shape = (-1,) + (1,) * (left.ndim - 2)
        if self.criterion != "entropy":
            # weighted-gini child reduces to 1 - (sum c_l^2/w_l +
            # sum c_r^2/w_r)/W: no probability tensors needed
            sq_l = (left**2).sum(axis=-1) / np.maximum(w_l, _TINY)
            sq_r = (right**2).sum(axis=-1) / np.maximum(w_r, _TINY)
            child = 1.0 - (sq_l + sq_r) / w_t
            return parent.reshape(shape) - child
        p_l = left / np.maximum(w_l, _TINY)[..., None]
        p_r = right / np.maximum(w_r, _TINY)[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            imp_l = -np.sum(np.where(
                p_l > 0, p_l * np.log2(np.maximum(p_l, 1e-300)), 0.0),
                axis=-1)
            imp_r = -np.sum(np.where(
                p_r > 0, p_r * np.log2(np.maximum(p_r, 1e-300)), 0.0),
                axis=-1)
        child = (w_l * imp_l + w_r * imp_r) / w_t
        return parent.reshape(shape) - child

    def _binned_splits_batch(self, sub, y_rows, w_rows, block, sizes,
                             impurities, n_bins, rng):
        kc = self._n_classes
        n_rows, k = sub.shape
        n_blocks = len(sizes)
        min_leaf = self.min_samples_leaf
        slotkey = (block * k)[:, None] + np.arange(k)
        if self.splitter == "random":
            # extra-trees: bin-count histogram to locate occupied ranges,
            # then class moments only at the drawn boundaries
            keyb = (slotkey * n_bins + sub).ravel()
            counts = np.bincount(keyb, minlength=n_blocks * k * n_bins) \
                .reshape(n_blocks, k, n_bins)
            nl_all = counts.cumsum(axis=2)[:, :, :-1]
            t, _, valid = _random_bin_cuts(nl_all, sizes, min_leaf, rng)
            go = sub <= t[block]
            keyc = (slotkey * kc + y_rows[:, None]).ravel()
            go_w = go.ravel().astype(np.float64)
            if w_rows is not None:
                go_w = go_w * np.repeat(w_rows, k)
                tot = np.bincount(block * kc + y_rows, weights=w_rows,
                                  minlength=n_blocks * kc) \
                    .reshape(n_blocks, kc)
            else:
                tot = np.bincount(block * kc + y_rows,
                                  minlength=n_blocks * kc) \
                    .reshape(n_blocks, kc).astype(np.float64)
            left = np.bincount(keyc, weights=go_w,
                               minlength=n_blocks * k * kc) \
                .reshape(n_blocks, k, kc)
            right = tot[:, None, :] - left
            gains = self._gains_from_class_counts(left, right, impurities)
            gains = np.where(valid, gains, -np.inf)
            slot = gains.argmax(axis=1)
            ar = np.arange(n_blocks)
            return slot, t[ar, slot], gains[ar, slot]
        # Flat (node, slot, bin, class) histogram in one bincount pass;
        # the row counts per (node, slot, bin) come from their own pass,
        # cheaper than summing the short class axis
        keyb = slotkey * n_bins + sub
        key = (keyb * kc + y_rows[:, None]).ravel()
        size = n_blocks * k * n_bins * kc
        counts = np.bincount(key, minlength=size) \
            .reshape(n_blocks, k, n_bins, kc)
        n_left = np.bincount(keyb.ravel(), minlength=size // kc) \
            .reshape(n_blocks, k, n_bins).cumsum(axis=2)[:, :, :-1]
        if w_rows is None:
            tot = np.bincount(block * kc + y_rows,
                              minlength=n_blocks * kc) \
                .reshape(n_blocks, kc).astype(np.float64)
            wc = counts.astype(np.float64)
            # unweighted: the weighted mass *is* the exact row count
            w_l = n_left.astype(np.float64)
        else:
            tot = np.bincount(block * kc + y_rows, weights=w_rows,
                              minlength=n_blocks * kc).reshape(n_blocks, kc)
            wc = np.bincount(key, weights=np.repeat(w_rows, k),
                             minlength=size).reshape(n_blocks, k, n_bins, kc)
            w_l = wc.sum(axis=3).cumsum(axis=2)[:, :, :-1]
        left = np.cumsum(wc, axis=2, out=wc)[:, :, :-1, :]
        if self.criterion != "entropy":
            # gini via the sum-of-squares identity: child impurity is
            # 1 - (sum c_l^2/w_l + sum c_r^2/w_r)/W, and the right-side
            # square expands to sum T^2 - 2 sum T*c_l + sum c_l^2 so the
            # right-count tensor is never materialized
            sq_l = np.einsum("abcd,abcd->abc", left, left)
            cross = np.einsum("ad,abcd->abc", tot, left)
            tot2 = np.einsum("ad,ad->a", tot, tot)[:, None, None]
            sq_r = tot2 - 2.0 * cross + sq_l
            w_t = np.maximum(tot.sum(axis=1), _TINY)[:, None, None]
            w_r = w_t - w_l
            child = 1.0 - (sq_l / np.maximum(w_l, _TINY)
                           + sq_r / np.maximum(w_r, _TINY)) / w_t
            gains = impurities[:, None, None] - child
        else:
            right = tot[:, None, None, :] - left
            gains = self._gains_from_class_counts(left, right, impurities)
        valid = ((n_left >= min_leaf)
                 & (sizes[:, None, None] - n_left >= min_leaf))
        gains = np.where(valid, gains, -np.inf)
        n_cuts = n_bins - 1
        flat = gains.reshape(n_blocks, k * n_cuts)
        best = flat.argmax(axis=1)
        slot, t = np.divmod(best, n_cuts)
        return slot, t, flat[np.arange(n_blocks), best]

    def _leaf_values_batch(self, y_sel, w_sel, child, n_children):
        kc = self._n_classes
        key = child * kc + y_sel
        cc = np.bincount(key, minlength=n_children * kc) \
            .reshape(n_children, kc).astype(np.float64)
        use = cc
        if w_sel is not None:
            wc = np.bincount(key, weights=w_sel,
                             minlength=n_children * kc) \
                .reshape(n_children, kc)
            # all-zero-weight children fall back to plain row counts
            use = np.where(wc.sum(axis=1)[:, None] > 0, wc, cc)
        total = np.maximum(use.sum(axis=1), _TINY)
        return use / total[:, None]

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        leaves = self.tree_.apply(X)
        return self.tree_.value[leaves]


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regressor minimising within-node variance (MSE criterion)."""

    def fit(self, X, y, sample_weight=None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y length mismatch")
        self._fit_arrays(X, y, sample_weight)
        return self

    def _binned_target(self, y, rows):
        return np.asarray(y, dtype=float).ravel(), None

    def _leaf_value(self, y_node, w_node=None) -> np.ndarray:
        if w_node is not None:
            total = w_node.sum()
            if total > 0:
                return np.asarray([float(np.dot(w_node, y_node) / total)])
        return np.asarray([float(np.mean(y_node))])

    def _node_impurity(self, y_node, w_node=None) -> float:
        if len(y_node) == 0:
            return 0.0
        if w_node is None:
            return float(np.var(y_node))
        total = w_node.sum()
        if total <= 0:
            return 0.0
        mean = np.dot(w_node, y_node) / total
        return float(np.dot(w_node, (y_node - mean) ** 2) / total)

    def _prefix_gains(self, y_sorted, n_node, w_sorted=None) -> np.ndarray:
        if w_sorted is None:
            cum = np.cumsum(y_sorted, axis=1)
            cum2 = np.cumsum(y_sorted**2, axis=1)
            n_left = np.arange(1.0, n_node)
            n_right = n_node - n_left
            n_total = float(n_node)
            # np.var along the contiguous last axis: each row gets the
            # pairwise sums of a 1-D var of its own sort order
            parent = np.var(y_sorted, axis=1)[:, None]
        else:
            cumw = np.cumsum(w_sorted, axis=1)
            cum = np.cumsum(w_sorted * y_sorted, axis=1)
            cum2 = np.cumsum(w_sorted * y_sorted**2, axis=1)
            n_left = np.maximum(cumw[:, :-1], _TINY)
            n_right = np.maximum(cumw[:, -1:] - n_left, _TINY)
            n_total = np.maximum(cumw[:, -1:], _TINY)
            parent = self._weighted_parents(y_sorted, w_sorted)
        sum_left = cum[:, :-1]
        sum2_left = cum2[:, :-1]
        sum_right = cum[:, -1:] - sum_left
        sum2_right = cum2[:, -1:] - sum2_left
        var_left = sum2_left / n_left - (sum_left / n_left) ** 2
        var_right = sum2_right / n_right - (sum_right / n_right) ** 2
        child = (n_left * var_left + n_right * var_right) / n_total
        return parent - child

    def _split_gain_for_mask(self, y_node, mask, w_node=None) -> float:
        parent = self._node_impurity(y_node, w_node)
        left, right = y_node[mask], y_node[~mask]
        if w_node is None:
            child = (
                len(left) * np.var(left) + len(right) * np.var(right)
            ) / len(y_node)
        else:
            wl, wr = w_node[mask], w_node[~mask]
            n_l, n_r = wl.sum(), wr.sum()
            child = (
                n_l * self._node_impurity(left, wl)
                + n_r * self._node_impurity(right, wr)
            ) / max(n_l + n_r, _TINY)
        return parent - float(child)

    # -- batched histogram kernel ------------------------------------------
    def _hist_width(self) -> int:
        return 3  # count, weight and first-moment histograms

    def _node_impurities_batch(self, y_rows, w_rows, block, n_blocks):
        if w_rows is None:
            cnt = np.maximum(np.bincount(block, minlength=n_blocks), 1)
            s1 = np.bincount(block, weights=y_rows, minlength=n_blocks)
            s2 = np.bincount(block, weights=y_rows * y_rows,
                             minlength=n_blocks)
            return np.maximum(s2 / cnt - (s1 / cnt) ** 2, 0.0)
        wt = np.maximum(np.bincount(block, weights=w_rows,
                                    minlength=n_blocks), _TINY)
        s1 = np.bincount(block, weights=w_rows * y_rows, minlength=n_blocks)
        s2 = np.bincount(block, weights=w_rows * y_rows * y_rows,
                         minlength=n_blocks)
        return np.maximum(s2 / wt - (s1 / wt) ** 2, 0.0)

    @staticmethod
    def _variance_gain(w_l, w_r, s1_l, s1_r, w_t, s1_t):
        """Variance-reduction gain from first moments only: the
        sum-of-squares term is constant across cuts of a node, so
        ``gain = (s1_l^2/w_l + s1_r^2/w_r - S1^2/W) / W``."""
        score = (s1_l * s1_l / np.maximum(w_l, _TINY)
                 + s1_r * s1_r / np.maximum(w_r, _TINY))
        base = s1_t * s1_t / np.maximum(w_t, _TINY)
        return (score - base) / np.maximum(w_t, _TINY)

    def _binned_splits_batch(self, sub, y_rows, w_rows, block, sizes,
                             impurities, n_bins, rng):
        n_rows, k = sub.shape
        n_blocks = len(sizes)
        min_leaf = self.min_samples_leaf
        slotkey = (block * k)[:, None] + np.arange(k)
        base_w = w_rows if w_rows is not None else None
        if base_w is None:
            w_t = np.bincount(block, minlength=n_blocks).astype(np.float64)
            s1_t = np.bincount(block, weights=y_rows, minlength=n_blocks)
        else:
            w_t = np.bincount(block, weights=base_w, minlength=n_blocks)
            s1_t = np.bincount(block, weights=base_w * y_rows,
                               minlength=n_blocks)
        if self.splitter == "random":
            keyb = (slotkey * n_bins + sub).ravel()
            counts = np.bincount(keyb, minlength=n_blocks * k * n_bins) \
                .reshape(n_blocks, k, n_bins)
            nl_all = counts.cumsum(axis=2)[:, :, :-1]
            t, _, valid = _random_bin_cuts(nl_all, sizes, min_leaf, rng)
            go = sub <= t[block]
            mw = go.astype(np.float64) if base_w is None \
                else go * base_w[:, None]
            flat_slot = slotkey.ravel()
            msize = n_blocks * k
            w_l = np.bincount(flat_slot, weights=mw.ravel(),
                              minlength=msize).reshape(n_blocks, k)
            s1_l = np.bincount(flat_slot,
                               weights=(mw * y_rows[:, None]).ravel(),
                               minlength=msize).reshape(n_blocks, k)
            gains = self._variance_gain(
                w_l, w_t[:, None] - w_l, s1_l, s1_t[:, None] - s1_l,
                w_t[:, None], s1_t[:, None])
            gains = np.where(valid, gains, -np.inf)
            slot = gains.argmax(axis=1)
            ar = np.arange(n_blocks)
            return slot, t[ar, slot], gains[ar, slot]
        keyb = (slotkey * n_bins + sub).ravel()
        size = n_blocks * k * n_bins
        counts = np.bincount(keyb, minlength=size) \
            .reshape(n_blocks, k, n_bins)
        y_rep = np.repeat(y_rows, k)
        if base_w is None:
            weight = counts.astype(np.float64)
            s1 = np.bincount(keyb, weights=y_rep,
                             minlength=size).reshape(n_blocks, k, n_bins)
        else:
            w_rep = np.repeat(base_w, k)
            weight = np.bincount(keyb, weights=w_rep,
                                 minlength=size).reshape(n_blocks, k, n_bins)
            s1 = np.bincount(keyb, weights=w_rep * y_rep,
                             minlength=size).reshape(n_blocks, k, n_bins)
        n_left = counts.cumsum(axis=2)[:, :, :-1]
        w_l = weight.cumsum(axis=2)[:, :, :-1]
        s1_l = s1.cumsum(axis=2)[:, :, :-1]
        w_t3 = w_t[:, None, None]
        s1_t3 = s1_t[:, None, None]
        gains = self._variance_gain(
            w_l, w_t3 - w_l, s1_l, s1_t3 - s1_l, w_t3, s1_t3)
        valid = ((n_left >= min_leaf)
                 & (sizes[:, None, None] - n_left >= min_leaf))
        gains = np.where(valid, gains, -np.inf)
        n_cuts = n_bins - 1
        flat = gains.reshape(n_blocks, k * n_cuts)
        best = flat.argmax(axis=1)
        slot, t = np.divmod(best, n_cuts)
        return slot, t, flat[np.arange(n_blocks), best]

    def _leaf_values_batch(self, y_sel, w_sel, child, n_children):
        cnt = np.maximum(np.bincount(child, minlength=n_children), 1)
        s1 = np.bincount(child, weights=y_sel, minlength=n_children)
        if w_sel is None:
            return (s1 / cnt)[:, None]
        wsum = np.bincount(child, weights=w_sel, minlength=n_children)
        ws1 = np.bincount(child, weights=w_sel * y_sel, minlength=n_children)
        vals = np.where(wsum > 0, ws1 / np.maximum(wsum, _TINY), s1 / cnt)
        return vals[:, None]

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        leaves = self.tree_.apply(X)
        return self.tree_.value[leaves][:, 0]

    def predict_binned(self, Xb) -> np.ndarray:
        """Predict on a pre-quantized code matrix (training-time path
        for boosting; requires a binned fit)."""
        check_is_fitted(self, "tree_")
        leaves = self.tree_.apply_binned(np.asarray(Xb))
        return self.tree_.value[leaves][:, 0]
