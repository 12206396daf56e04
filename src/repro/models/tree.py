"""CART decision trees (classification and regression), pure numpy.

These trees are the workhorse of the whole reproduction: they power the
random forests, extra-trees, gradient boosting, the AutoGluon portfolio and
the random-forest surrogate inside Bayesian optimization.  Two split-search
kernels fill the same preallocated flat node arrays (after ivalice's
``_Tree``):

- the **exact** kernel (``binning=None``, the default) grows any number
  of trees in lockstep (:func:`_grow_exact`; one tree is the one-tree
  call).  Each tree keeps its own depth-first stack and generator; each
  step pops the next split attempt of every live tree (the stop checks
  run first), draws its ``k`` candidates with one ``rng.choice``, and
  one batched search (``_best_splits``) scores every cut of every
  candidate of all popped nodes.  The step's nodes are grouped largest
  first under ``_EXACT_CHUNK_ELEMENTS`` (:func:`_chunk_bounds`, which
  breaks a group where node sizes halve) and a group's rows are padded to
  its largest node with the NaN column appended to the shared
  feature-major copy of ``X`` (target 0): one stable row-wise argsort
  orders every (node, candidate) row, pads last; running sums along each
  row (``y`` and ``y**2`` for the regressor, a one-hot class cumsum for
  the classifier) give every prefix, and a row's totals are read at its
  last real column.  A cut is admissible where the sorted value changes
  and both sides keep ``min_samples_leaf`` rows, so no cut borders a NaN
  or a pad; only rows with an admissible cut are scored, every cut then
  masked when more than ``_DENSE_SHARE`` of them are admissible, only the
  admissible ones otherwise.  Every tree is bit-identical to a fit of
  its own (the reference in ``benchmarks/split_search_reference.py``)
  because: one draw per split attempt from the tree's own generator, in
  its own depth-first order (the right child is popped first, so node ids
  do not move), and its own ``max_leaf_nodes`` budget; each row's parent
  impurity is reduced over exactly its node's rows in that row's sort
  order, never over the padded row (rows of equal size share one
  ``np.var``-equivalent call; the unweighted classifier's parent comes
  from integer counts, its stop-check impurity; weighted fits evaluate
  each row on its own); the first maximal cut, then the first maximal
  candidate win, only above ``1e-12``, and a row whose best gain is NaN
  never does; children list their rows in the winning candidate's sort
  order, the order their leaf values are summed in.  Bootstrap samples
  are row-index arrays into the one shared copy, and a stable sort orders
  ties (duplicated rows included) as a fit on ``X[rows]`` would.  The
  random splitter (extra-trees) scans its few candidates one at a time;
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
#: the exact search's per-step temporaries are chunked to at most this
#: many elements, so that a step's passes stay in cache (a single node
#: may exceed it)
_EXACT_CHUNK_ELEMENTS = 2**16
#: the exact search scores every cut of a block (then masks) when more
#: than this share of its cuts is admissible, and only the admissible
#: cuts otherwise
_DENSE_SHARE = 0.5


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


def _variance(y):
    """``np.var(y, axis=-1)``, bit for bit: the ufunc sequence numpy's
    ``var`` runs (sum, divide, subtract, square, sum, divide), without
    its per-call argument handling."""
    n = y.shape[-1]
    mean = np.add.reduce(y, axis=-1, keepdims=True)
    mean /= n
    dev = y - mean
    dev *= dev
    return np.add.reduce(dev, axis=-1) / n


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
    to the historical builder, one tree grown alone or many in lockstep);
    an integer ``binning`` in ``[2, 255]``
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

    def _node_impurity(self, y_node, w_node=None) -> float:
        raise NotImplementedError

    def _prefix_sums(self, y_sorted, w_sorted=None):
        """Running sums along every row of the exact search: ``y_sorted``
        (and ``w_sorted``) hold each (node, candidate) row's targets in
        that candidate's sort order, shape ``(rows, width)``.  Returns a
        tuple of arrays whose column ``j`` sums the first ``j + 1``."""
        raise NotImplementedError

    def _cut_gains(self, left, total, n_left, n_node, parent):
        """Impurity gain of cuts from the prefix sums left of each cut
        (``left``, one entry per :meth:`_prefix_sums` array) and the
        node totals (``total``); ``n_left`` counts the rows left of each
        cut (``None`` for a weighted fit, whose left mass comes from
        ``left``), ``n_node`` and ``parent`` are the node's row count and
        impurity.  All arguments broadcast: the dense form passes every
        cut of a block, the sparse form the admissible cuts only."""
        raise NotImplementedError

    def _row_parents(self, y_sorted, sizes, impurity, node):
        """Unweighted parent impurity of every row of a block: row ``r``
        reduces ``y_sorted[r, :sizes[r]]`` (``sizes`` is one int when no
        row is padded); ``impurity[node[r]]`` is the stop-check impurity
        of row ``r``'s node."""
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
        """Trailing histogram dimension, for chunk-size budgeting (both
        kernels count it per candidate row and cut)."""
        raise NotImplementedError

    def _target(self, y, rows):
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
        fit_many([self], Xb, y, [np.arange(Xb.shape[0])], w, edges)
        return self

    def _fit_arrays(self, X: np.ndarray, y, sample_weight=None) -> None:
        """Fit on validated ``X`` and the raw targets ``y``: the one-tree
        call of the builder."""
        w = check_sample_weight(sample_weight, X.shape[0])
        edges = None
        if self.binning is not None:
            binner = FeatureBinner(self.binning).fit(X)
            X, edges = binner.transform(X), binner.edges_
        fit_many([self], X, y, [np.arange(X.shape[0])], w, edges)

    # -- split search: exact kernel ----------------------------------------
    def _best_splits(self, XT, y, w, nodes, feats, impurity):
        """Best ``(feature, threshold, left rows, right rows)``, or
        ``None``, of every node of one lockstep step, searched together.

        ``XT`` is the feature-major training matrix whose last column is
        the NaN pad, ``y`` (and ``w``) the targets with the pad's 0
        appended.  ``nodes[i]`` holds node ``i``'s rows (columns of
        ``XT``), ``feats[i]`` its ``k`` drawn candidates and
        ``impurity[i]`` its stop-check impurity.  Nodes are grouped
        largest first under ``_EXACT_CHUNK_ELEMENTS`` (:func:`_chunk_bounds`)
        and each group is padded to its largest node; a node that alone
        exceeds the budget is searched over chunks of its candidates.
        Block winners merge in draw order with a strict ``>``, starting
        from ``1e-12``; children list their rows in the winning
        feature's sort order.
        """
        k = len(feats[0])
        hist = self._hist_width()
        sizes = [len(rows) for rows in nodes]
        if len(nodes) == 1:
            groups = [[0]]
        else:
            order = np.argsort(-np.array(sizes), kind="stable")
            bounds = _chunk_bounds(np.array(sizes)[order], k * hist,
                                   max(sizes), _EXACT_CHUNK_ELEMENTS)
            order = order.tolist()
            groups = [order[b0:b1] for b0, b1 in zip(bounds[:-1], bounds[1:])]
        best = [None] * len(nodes)
        best_gain = [1e-12] * len(nodes)
        for group in groups:
            width = sizes[group[0]]
            if len(group) == 1:
                rows = nodes[group[0]][None, :]
                cand = feats[group[0]][None, :]
                step = max(1, _EXACT_CHUNK_ELEMENTS // (width * hist))
            else:
                rows = np.full((len(group), width), XT.shape[1] - 1)
                for pos, i in enumerate(group):
                    rows[pos, : sizes[i]] = nodes[i]
                cand = np.array([feats[i] for i in group])
                step = k
            group_sizes = [sizes[i] for i in group]
            group_impurity = impurity[group] if len(nodes) > 1 else impurity
            for f0 in range(0, k, step):
                block = cand[:, f0:f0 + step]
                found = self._search_block(XT, y, w, rows, block,
                                           group_sizes, group_impurity)
                if found is None:
                    continue
                gain, win, live, at, v_sorted, rows_sorted = found
                for pos, i in enumerate(group):
                    if gain[pos] > best_gain[i]:
                        r, p = win[pos], live[pos]
                        cut = int(at[p]) + 1
                        node_rows = rows_sorted[p, : sizes[i]].copy()
                        best_gain[i] = gain[pos]
                        best[i] = (int(block.flat[r]),
                                   0.5 * (float(v_sorted[r, cut - 1])
                                          + float(v_sorted[r, cut])),
                                   node_rows[:cut], node_rows[cut:])
        return best

    def _search_block(self, XT, y, w, rows, feats, sizes, impurity):
        """Score every cut of candidates ``feats[i]`` over node rows
        ``rows[i]`` (padded to one width) for one block of nodes.

        Returns ``None`` if the block has no admissible cut.  Otherwise,
        per node, its best gain (``-inf`` if none of its rows has an
        admissible cut or every such row's best gain is NaN), its best
        row and that row's position among the scored rows, then every
        scored row's first best cut index, the sorted values of every
        row and the node rows of every scored row in sort order.
        """
        g, width = rows.shape
        kc = feats.shape[1]
        n_rows = g * kc
        min_leaf = self.min_samples_leaf
        # flat takes: one 1-D gather beats 2-D fancy indexing
        values = XT.take((feats * XT.shape[1])[:, :, None]
                         + rows[:, None, :]).reshape(n_rows, width)
        # stable: ties keep row order, and the pads (NaN) sort after
        # every real value, real NaNs included
        order = np.argsort(values, axis=1, kind="stable")
        v_sorted = values.take(np.arange(0, values.size, width)[:, None]
                               + order)
        # admissible: the sorted value changes (so no cut borders a NaN
        # or a pad) and both sides keep min_samples_leaf rows
        admissible = v_sorted[:, 1:] > v_sorted[:, :-1]
        if min_leaf > 1:
            admissible[:, : min_leaf - 1] = False
            for i, n in enumerate(sizes):
                admissible[i * kc:(i + 1) * kc, n - min_leaf:] = False
        # only rows with an admissible cut are scored
        live = admissible.any(axis=1).nonzero()[0]
        n_live = len(live)
        if not n_live:
            return None
        if n_live < n_rows:
            admissible, order = admissible[live], order[live]
        node = live // kc
        if g == 1:
            # no pads: every row's totals sit in its last column
            rows_sorted = rows[0].take(order)
            n_row = width
        else:
            rows_sorted = rows.take((node * width)[:, None] + order)
            n_row = np.array(sizes)[node]
        y_sorted = y[rows_sorted]
        if w is None:
            w_sorted = None
            parent = self._row_parents(y_sorted, n_row, impurity, node)
        else:
            w_sorted = w[rows_sorted]
            parent = np.array([
                self._node_impurity(ys[:n], ws[:n])
                for ys, ws, n in zip(y_sorted, w_sorted,
                                     np.broadcast_to(n_row, n_live))])
        sums = self._prefix_sums(y_sorted, w_sorted)
        if g == 1:
            totals = [s[:, -1] for s in sums]
        else:  # each row's last real column
            totals = [s[np.arange(n_live), n_row - 1] for s in sums]
        if int(np.count_nonzero(admissible)) > _DENSE_SHARE * admissible.size:
            # dense: score every cut, then mask
            args = ([s[:, :-1] for s in sums], [t[:, None] for t in totals],
                    np.arange(1.0, width) if w is None else None,
                    n_row if g == 1 else n_row[:, None], parent[:, None])
            if g == 1:
                gains = self._cut_gains(*args)
            else:  # cuts into the pads score garbage that the mask drops
                with np.errstate(divide="ignore", invalid="ignore"):
                    gains = self._cut_gains(*args)
            gains = np.where(admissible, gains, -np.inf)
        else:
            # sparse: score the admissible cuts only
            r, j = admissible.nonzero()
            gains = np.full(admissible.shape, -np.inf)
            gains[r, j] = self._cut_gains(
                [s[r, j] for s in sums], [t[r] for t in totals],
                j + 1.0 if w is None else None,
                n_row if g == 1 else n_row[r], parent[r])
        # each row's first maximal cut; a row whose best gain is NaN (the
        # max, and the argmax, of a row holding a NaN) never wins
        at = gains.argmax(axis=1)
        row_gain = np.fmax(gains.max(axis=1), -np.inf)
        if n_live < n_rows:
            scattered = np.full(n_rows, -np.inf)
            scattered[live] = row_gain
            row_gain = scattered
        row_gain = row_gain.reshape(g, kc)
        slot = row_gain.argmax(axis=1)  # the first maximal row in draw order
        win = np.arange(0, n_rows, kc) + slot
        # a node's best row is scored whenever its gain is finite
        pos = win if n_live == n_rows else np.minimum(
            np.searchsorted(live, win), n_live - 1)
        return (row_gain.max(axis=1).tolist(), win.tolist(), pos.tolist(),
                at, v_sorted, rows_sorted)

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
    """Node-range chunk boundaries sized to a per-node element count.

    ``sizes`` must be descending: the first node of each chunk bounds the
    chunk's width (the rank-compressed histogram width, or the exact
    search's padded row width), so chunks of small nodes pack many more
    nodes under the same element ``budget`` than the global width ``nb``
    would allow.
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


def fit_many(trees, X, y, samples, w=None, edges=None) -> None:
    """Fit ``trees`` on row subsets of one shared matrix: ``trees[i]``
    fits on rows ``samples[i]`` of ``X`` / ``y`` (/ ``w``) as if given
    ``X[samples[i]]`` alone.

    ``edges=None`` grows exact trees on the raw matrix ``X``; otherwise
    ``X`` is the code matrix of the bin ``edges`` and the trees grow with
    the histogram kernel.  Either way, best-split trees whose targets code
    alike grow in lockstep (a forest's bootstrap can miss a class; such a
    tree codes its labels apart and grows with its own kind), and
    random-split trees grow alone.
    """
    groups = {}
    for tree, rows in zip(trees, samples):
        target, key = tree._target(y, rows)
        if tree.splitter != "best":
            key = ("alone", len(groups))
        members = groups.setdefault(key, ([], [], target))
        members[0].append(tree)
        members[1].append(rows)
    if edges is None:
        # one feature-major copy for every tree: a node's candidate
        # columns gather into one C-contiguous matrix, and the appended
        # NaN column (target and weight 0) pads a step's nodes to one
        # width
        XT = np.empty((X.shape[1], X.shape[0] + 1))
        XT[:, :-1] = X.T
        XT[:, -1] = np.nan
        w = None if w is None else np.append(w, 0.0)
    for group, rows, target in groups.values():
        rngs = [check_random_state(tree.random_state) for tree in group]
        if edges is None:
            _grow_exact(group, rngs, rows, XT, np.append(target, 0), w)
        else:
            # a level gathers k codes for every row of every tree it
            # grows: batch the trees so that this stays within the
            # histogram budget
            k = _resolve_max_features(group[0].max_features, X.shape[1])
            step = max(1, _HIST_CHUNK_ELEMENTS
                       // max(1, k * max(len(r) for r in rows)))
            for i in range(0, len(group), step):
                _grow_binned(group[i:i + step], rngs[i:i + step],
                             rows[i:i + step], X, target, edges, w)
        for tree in group:
            tree.n_features_in_ = X.shape[1]


def _grow_exact(trees, rngs, samples, XT, y, w) -> None:
    """Grow ``trees`` with the exact kernel, depth-first, in lockstep.

    ``trees[0]`` supplies the hyper-parameters and kernels shared by every
    tree; ``trees[i]`` fits on rows ``samples[i]`` (columns of the padded
    feature-major matrix ``XT``) and draws from ``rngs[i]``.  Every tree
    keeps its own depth-first stack: each step pops the next split attempt
    of every live tree (a node that passes the stop checks), draws its
    candidates from the tree's own generator, and one batched search
    (:meth:`_BaseDecisionTree._best_splits`) scores them all.  So each
    tree comes out as if grown alone: same draws, same node ids (the
    right child is popped first), its own leaf budget.
    """
    est = trees[0]
    n_features = XT.shape[0]
    k = _resolve_max_features(est.max_features, n_features)
    max_depth = est.max_depth if est.max_depth is not None else np.inf
    min_split = max(est.min_samples_split, 2 * est.min_samples_leaf)
    max_leaves = est.max_leaf_nodes or np.inf
    best = est.splitter == "best"
    built, stacks = [], []
    for tree_est, rows in zip(trees, samples):
        value = np.atleast_1d(tree_est._leaf_value(
            y[rows], None if w is None else w[rows]))
        tree = _Tree(value_width=value.shape[0])
        tree.add_node(value, 0)
        tree_est.tree_ = tree
        built.append(tree)
        stacks.append([(0, rows, 0)])
    n_leaves = [1] * len(trees)
    live = range(len(trees))
    while True:
        attempts = []
        for t in live:
            stack = stacks[t]
            while stack:
                node, rows, depth = stack.pop()
                if (depth >= max_depth or len(rows) < min_split
                        or n_leaves[t] + 1 > max_leaves):
                    continue
                impurity = est._node_impurity(
                    y[rows], None if w is None else w[rows])
                if impurity <= 1e-12:
                    continue
                attempts.append((t, node, rows, depth, impurity))
                break
        if not attempts:
            break
        live = [a[0] for a in attempts]
        feats = [rngs[t].choice(n_features, size=k, replace=False)
                 if k < n_features else np.arange(n_features)
                 for t in live]
        if best:
            splits = est._best_splits(
                XT, y, w, [a[2] for a in attempts], feats,
                np.array([a[4] for a in attempts]))
        else:
            splits = [est._random_split(XT, y, a[2], f, rngs[a[0]], w)
                      for a, f in zip(attempts, feats)]
        for (t, node, _, depth, _), split in zip(attempts, splits):
            if split is None:
                continue
            feat, thr, left_rows, right_rows = split
            tree = built[t]
            tree.feature[node] = feat
            tree.threshold[node] = thr
            left = tree.add_node(np.atleast_1d(est._leaf_value(
                y[left_rows], None if w is None else w[left_rows])),
                depth + 1)
            right = tree.add_node(np.atleast_1d(est._leaf_value(
                y[right_rows], None if w is None else w[right_rows])),
                depth + 1)
            tree.left[node] = left
            tree.right[node] = right
            n_leaves[t] += 1  # replaced one leaf with two
            stacks[t].append((left, left_rows, depth + 1))
            stacks[t].append((right, right_rows, depth + 1))
    for tree in built:
        tree.finalize()


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
        self._fit_arrays(X, y, sample_weight)
        return self

    def _target(self, y, rows):
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

    def _prefix_sums(self, y_sorted, w_sorted=None):
        n_rows, width = y_sorted.shape
        onehot = np.zeros((n_rows, width, self._n_classes))
        onehot[np.arange(n_rows)[:, None], np.arange(width), y_sorted] = 1.0
        if w_sorted is not None:
            onehot *= w_sorted[:, :, None]
        return (np.cumsum(onehot, axis=1),)

    def _cut_gains(self, left, total, n_left, n_node, parent):
        (left,), (total,) = left, total  # class mass
        right = total - left
        if n_left is None:
            n_left = np.maximum(left.sum(axis=-1), _TINY)
            n_right = np.maximum(right.sum(axis=-1), _TINY)
            n_total = np.maximum(total.sum(axis=-1), _TINY)
        else:
            n_right = n_node - n_left
            n_total = n_node
        if self.criterion == "entropy":
            def _h(counts, n):
                p = counts / n[..., None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    logp = np.where(p > 0, np.log2(np.maximum(p, 1e-300)), 0.0)
                return -np.sum(p * logp, axis=-1)
            imp_left = _h(left, n_left)
            imp_right = _h(right, n_right)
        else:
            imp_left = 1.0 - np.sum((left / n_left[..., None]) ** 2, axis=-1)
            imp_right = 1.0 - np.sum((right / n_right[..., None]) ** 2,
                                     axis=-1)
        child = (n_left * imp_left + n_right * imp_right) / n_total
        return parent - child

    def _row_parents(self, y_sorted, sizes, impurity, node):
        # integer class counts: every sort order has the stop check's
        # parent
        return impurity[node]

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

    def _target(self, y, rows):
        return np.asarray(y, dtype=float).ravel(), None

    def _leaf_value(self, y_node, w_node=None) -> np.ndarray:
        if w_node is not None:
            total = w_node.sum()
            if total > 0:
                return np.asarray([float(np.dot(w_node, y_node) / total)])
        # np.mean's own sum and division
        return np.asarray([float(np.add.reduce(y_node) / len(y_node))])

    def _node_impurity(self, y_node, w_node=None) -> float:
        if len(y_node) == 0:
            return 0.0
        if w_node is None:
            return float(_variance(y_node))
        total = w_node.sum()
        if total <= 0:
            return 0.0
        mean = np.dot(w_node, y_node) / total
        return float(np.dot(w_node, (y_node - mean) ** 2) / total)

    def _prefix_sums(self, y_sorted, w_sorted=None):
        if w_sorted is None:
            return (np.cumsum(y_sorted, axis=1),
                    np.cumsum(y_sorted**2, axis=1))
        return (np.cumsum(w_sorted, axis=1),
                np.cumsum(w_sorted * y_sorted, axis=1),
                np.cumsum(w_sorted * y_sorted**2, axis=1))

    def _cut_gains(self, left, total, n_left, n_node, parent):
        if n_left is None:
            w_left, sum_left, sum2_left = left
            w_total, sum_total, sum2_total = total
            n_left = np.maximum(w_left, _TINY)
            n_right = np.maximum(w_total - n_left, _TINY)
            n_total = np.maximum(w_total, _TINY)
        else:
            sum_left, sum2_left = left
            sum_total, sum2_total = total
            n_right = n_node - n_left
            n_total = n_node
        sum_right = sum_total - sum_left
        sum2_right = sum2_total - sum2_left
        var_left = sum2_left / n_left - (sum_left / n_left) ** 2
        var_right = sum2_right / n_right - (sum_right / n_right) ** 2
        child = (n_left * var_left + n_right * var_right) / n_total
        return parent - child

    def _row_parents(self, y_sorted, sizes, impurity, node):
        # np.var along the contiguous last axis: each row gets the
        # pairwise sums of a 1-D var of its own sort order, over its
        # node's rows only (pads would change them); rows of equal size
        # (runs, since a block's nodes come largest first) share a call
        if isinstance(sizes, int):
            return _variance(y_sorted)
        parent = np.empty(len(sizes))
        starts = [0] + (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
        for a, b in zip(starts, starts[1:] + [len(sizes)]):
            parent[a:b] = _variance(y_sorted[a:b, : sizes[a]])
        return parent

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
