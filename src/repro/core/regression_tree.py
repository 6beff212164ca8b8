"""CART regression trees.

The paper trains its RBF networks with "a regression tree based method"
(Section 2.2, citing Orr et al. 2000): the tree recursively partitions the
design space, every node contributes one candidate RBF unit (center and
radius from the node's bounding box), and the split structure doubles as a
parameter-importance measure —

    "The microarchitecture parameters which cause the most output
    variation tend to be split earliest and most often in the constructed
    regression tree."  (Section 4, Figure 11)

This module implements the tree with exact variance-reduction splitting,
records per-feature *first-split depth* and *split frequency*, and exposes
every node's bounding box for RBF center extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro._validation import as_2d_float_array
from repro.errors import ModelError, NotFittedError


@dataclass
class TreeNode:
    """One node of a fitted regression tree.

    Attributes
    ----------
    depth:
        Root is depth 0.
    value:
        Mean of the training targets reaching this node (the prediction
        for leaves).
    n_samples:
        Number of training rows reaching this node.
    sse:
        Sum of squared errors of ``value`` over those rows.
    lower, upper:
        The node's axis-aligned bounding box in input space.  The root box
        is the full training-data range; children inherit their parent's
        box cut at the split threshold.
    feature, threshold:
        Split definition (``None`` for leaves); rows with
        ``x[feature] <= threshold`` go left.
    """

    depth: int
    value: float
    n_samples: int
    sse: float
    lower: np.ndarray
    upper: np.ndarray
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class SplitRecord:
    """Bookkeeping for one split, in construction (breadth-first) order."""

    position: int
    depth: int
    feature: int
    threshold: float
    improvement: float


#: Padded elements (nodes x longest node x features) one vectorized
#: split-search block may hold; larger frontiers are searched in several
#: blocks so memory stays linear in the training-set size.
_BLOCK_ELEMENTS = 1 << 17


def check_fit_data(X, y):
    """Coerce a model's training data to ``(X (n, d), y (n,))`` floats.

    Raises :class:`~repro.errors.ModelError` for mismatched shapes, zero
    rows or non-finite targets (non-finite ``X`` is rejected by
    :func:`~repro._validation.as_2d_float_array`).
    """
    X = as_2d_float_array(X, name="X")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != X.shape[0]:
        raise ModelError(
            f"y must be 1-D with len(y) == X.shape[0], got {y.shape} vs {X.shape}"
        )
    if X.shape[0] == 0:
        raise ModelError("cannot fit a model on zero rows")
    if not np.all(np.isfinite(y)):
        raise ModelError("y contains non-finite values")
    return X, y


def _node_stats(y: np.ndarray):
    """``(mean, SSE about the mean)`` of one node's targets.

    ``np.add.reduce`` is the reduction ``np.mean`` and ``np.sum`` run, so
    calling it directly gives their bits without their wrapper overhead.
    """
    value = float(np.add.reduce(y) / y.size)
    return value, float(np.add.reduce((y - value) ** 2))


def _first_feature_by_margin(improvement: np.ndarray, has_valid: np.ndarray):
    """Per row, the feature a scan in feature order keeps, or ``-1``.

    The scan takes the first valid feature, then any later feature whose
    improvement beats the kept one by more than 1e-12.  That is the first
    argmax whenever the argmax beats ``fl(m + 1e-12)`` for ``m`` the
    best improvement before it (``fl`` is monotone, so no earlier pick
    can block it); rows where near-ties make that check fail replay the
    scan exactly.
    """
    scores = np.where(has_valid, improvement, -np.inf)
    top = scores.argmax(axis=1)
    rows = np.arange(top.size)
    # Best score before ``top`` (index -1 when top == 0 is masked below).
    before = np.maximum.accumulate(scores, axis=1)[rows, top - 1]
    clear = (top == 0) | (scores[rows, top] > before + 1e-12)
    feature = np.where(has_valid.any(axis=1), top, -1)
    for k in (~clear).nonzero()[0].tolist():
        kept, best = -1, 0.0
        for feat in has_valid[k].nonzero()[0].tolist():
            if kept < 0 or improvement[k, feat] > best + 1e-12:
                kept, best = feat, improvement[k, feat]
        feature[k] = kept
    return feature


def _block_best_splits(X: np.ndarray, y: np.ndarray, order: np.ndarray,
                       starts: np.ndarray, lens: np.ndarray,
                       node_sse: np.ndarray, min_leaf: int):
    """Best split of every node of one frontier block, all features at once.

    ``order[starts[k]:starts[k] + lens[k], f]`` lists node ``k``'s rows
    sorted stably by feature ``f``.  Each node's segment is gathered into
    a row of a ``(K, L, d)`` block padded past its end, so one
    ``cumsum`` along axis 1 yields every node's per-feature prefix sums
    with exactly the sequential additions a per-node scan would make;
    padded positions are masked out of the candidate set.

    Returns ``(feature, threshold, improvement)`` arrays of length ``K``;
    ``feature`` is ``-1`` where a node has no valid split.
    """
    n_nodes, n_feat = lens.size, X.shape[1]
    width = int(lens.max())
    node, feats = np.arange(n_nodes)[:, None], np.arange(n_feat)
    pos = starts[:, None] + np.minimum(np.arange(width), lens[:, None] - 1)
    rows = order[pos]                                  # (K, L, d)
    xs = X[rows, feats]
    ys = y[rows]
    csum = ys.cumsum(axis=1)
    csum2 = (ys * ys).cumsum(axis=1)
    total_sum = csum[node, lens[:, None] - 1]           # (K, 1, d)
    total_sum2 = csum2[node, lens[:, None] - 1]
    # Split after position i (count i+1 on the left).
    counts = np.arange(1, width)
    left_sum = csum[:, :-1]
    left_sse = csum2[:, :-1] - left_sum ** 2 / counts[:, None]
    right_cnt = lens[:, None] - counts
    right_sum = total_sum - left_sum
    right_sse = ((total_sum2 - csum2[:, :-1])
                 - right_sum ** 2 / np.maximum(right_cnt, 1)[:, :, None])
    sse = left_sse + right_sse
    valid = xs[:, :-1] < xs[:, 1:]
    valid &= ((counts >= min_leaf) & (right_cnt >= min_leaf))[:, :, None]
    sse = np.where(valid, sse, np.inf)
    best = sse.argmin(axis=1)                           # first minimum
    improvement = node_sse[:, None] - sse[node, best, feats]
    feature = _first_feature_by_margin(improvement, valid.any(axis=1))
    node, pick = node[:, 0], np.maximum(feature, 0)
    at = best[node, pick]
    threshold = 0.5 * (xs[node, at, pick] + xs[node, at + 1, pick])
    return feature, threshold, improvement[node, pick]


def _frontier_best_splits(X: np.ndarray, y: np.ndarray, order: np.ndarray,
                          lens: np.ndarray, node_sse: np.ndarray,
                          min_leaf: int):
    """Best split of every frontier node; see :func:`_block_best_splits`.

    Nodes are grouped longest first into blocks of at most
    ``_BLOCK_ELEMENTS`` padded elements (or one node, if larger), so a
    frontier of one large and many small nodes is not padded to a square.
    """
    starts = lens.cumsum() - lens
    n_nodes, n_feat = lens.size, X.shape[1]
    if n_nodes * int(lens.max()) * n_feat <= _BLOCK_ELEMENTS:
        return _block_best_splits(X, y, order, starts, lens, node_sse,
                                  min_leaf)
    feature = np.empty(n_nodes, dtype=int)
    threshold = np.empty(n_nodes)
    improvement = np.empty(n_nodes)
    by_len = np.argsort(-lens, kind="stable")
    i = 0
    while i < n_nodes:
        per_block = max(1, _BLOCK_ELEMENTS // (int(lens[by_len[i]]) * n_feat))
        block = by_len[i:i + per_block]
        feature[block], threshold[block], improvement[block] = (
            _block_best_splits(X, y, order, starts[block], lens[block],
                               node_sse[block], min_leaf))
        i += per_block
    return feature, threshold, improvement


class RegressionTree:
    """Least-squares CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = 0).
    min_samples_leaf:
        Minimum training rows in each child of a split.
    min_samples_split:
        Minimum rows required to consider splitting a node.
    min_impurity_decrease:
        Minimum absolute SSE reduction for a split to be accepted.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.linspace(0, 1, 64).reshape(-1, 1)
    >>> y = (X[:, 0] > 0.5).astype(float)
    >>> tree = RegressionTree(max_depth=2, min_samples_leaf=4).fit(X, y)
    >>> round(float(tree.predict([[0.9]])[0]), 6)
    1.0
    """

    def __init__(self, max_depth: int = 6, min_samples_leaf: int = 5,
                 min_samples_split: int = 10,
                 min_impurity_decrease: float = 1e-10):
        if max_depth < 0:
            raise ModelError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_leaf < 1:
            raise ModelError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = max(min_samples_split, 2 * min_samples_leaf)
        self.min_impurity_decrease = min_impurity_decrease
        self._root: Optional[TreeNode] = None
        self._n_features: Optional[int] = None
        self._splits: List[SplitRecord] = []
        self._lower: Optional[np.ndarray] = None
        self._upper: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "RegressionTree":
        """Fit the tree on ``X`` of shape (n, d) and targets ``y`` of shape (n,).

        The tree grows level by level from one stable argsort of every
        column of ``X``: a child's per-feature row order is the stable
        partition of its parent's, which equals a fresh stable argsort of
        the child's rows, so no node re-sorts.  Each level's frontier is
        split in one vectorized step and nodes are numbered breadth-first,
        so ``SplitRecord.position`` reflects the order in which the most
        significant partitions were made.
        """
        X, y = check_fit_data(X, y)
        n, d = X.shape
        self._n_features = d
        self._splits = []
        value, sse = _node_stats(y)
        # Per-node state, indexed by breadth-first node id.
        depths, values, sizes, sses = [0], [value], [n], [sse]
        split_of = {}                        # id -> (feature, threshold, left id)
        lowers, uppers = [X.min(axis=0)[None, :]], [X.max(axis=0)[None, :]]
        # The frontier: nodes of the current level still to be considered
        # for a split, as level-relative ids.  Column f < d of ``order``
        # holds each frontier node's rows, node after node, stably sorted
        # by feature f; column d holds them in row order.
        depth, level_start = 0, 0
        front, lens, front_sse = np.array([0]), np.array([n]), np.array([sse])
        grow = self.max_depth > 0 and n >= self.min_samples_split
        if grow:
            order = np.column_stack(
                [np.argsort(X, axis=0, kind="stable"), np.arange(n)])
        while grow:
            feature, threshold, improvement = _frontier_best_splits(
                X, y, order[:, :d], lens, front_sse, self.min_samples_leaf)
            parents = ((feature >= 0) & ~(
                improvement < self.min_impurity_decrease)).nonzero()[0]
            if parents.size == 0:
                break
            feat, thr = feature[parents], threshold[parents]
            next_start = len(depths)
            for j, (node, f, t, imp) in enumerate(zip(
                    (level_start + front[parents]).tolist(), feat.tolist(),
                    thr.tolist(), improvement[parents].tolist())):
                split_of[node] = (f, t, next_start + 2 * j)
                self._splits.append(SplitRecord(
                    position=len(self._splits), depth=depth, feature=f,
                    threshold=t, improvement=imp,
                ))
            # Child key of every frontier row: 2j left and 2j+1 right of
            # the j-th split node, -1 under nodes that stay leaves.
            rank = -np.ones(lens.size, dtype=int)
            rank[parents] = np.arange(parents.size)
            rows, r = order[:, d], rank.repeat(lens)
            f_row, t_row = feature.repeat(lens), threshold.repeat(lens)
            child = np.where(r >= 0, 2 * r + ~(X[rows, f_row] <= t_row), -1)
            # The narrowest signed keys make the stable sort a radix sort.
            row_key = np.empty(n, dtype=np.min_scalar_type(-2 * parents.size))
            row_key[rows] = child
            counts = np.bincount(child + 1, minlength=2 * parents.size + 1)[1:]
            keep = counts >= self.min_samples_split
            last = depth + 1 >= self.max_depth or not keep.any()
            if last:
                order = order[:, d:]       # no child splits: row order only
            # Stable partition of every column by child key: segments are
            # the children, and the last column lists each child's rows in
            # row order, the order node means and SSEs reduce in.
            keys = row_key[order]
            n_drop = int(np.count_nonzero(child < 0))
            order = order[keys.argsort(axis=0, kind="stable")[n_drop:],
                          np.arange(order.shape[1])]
            grouped = y[order[:, -1]]
            child_sse = np.empty(counts.size)
            end = 0
            for c, size in enumerate(counts.tolist()):
                value, sse = _node_stats(grouped[end:end + size])
                end += size
                values.append(value)
                sses.append(sse)
                child_sse[c] = sse
            sizes.extend(counts.tolist())
            depth += 1
            depths.extend([depth] * counts.size)
            lower = lowers[-1][front[parents]].repeat(2, axis=0)
            upper = uppers[-1][front[parents]].repeat(2, axis=0)
            left = 2 * np.arange(parents.size)
            upper[left, feat] = thr
            lower[left + 1, feat] = thr
            lowers.append(lower)
            uppers.append(upper)
            if last:
                break
            level_start = next_start
            front = keep.nonzero()[0]
            order = order[keep.repeat(counts)]
            lens, front_sse = counts[front], child_sse[front]
        self._lower, self._upper = np.vstack(lowers), np.vstack(uppers)
        nodes = [
            TreeNode(depth=depths[i], value=values[i], n_samples=sizes[i],
                     sse=sses[i], lower=self._lower[i], upper=self._upper[i])
            for i in range(len(depths))
        ]
        for i, (f, t, left) in split_of.items():
            node = nodes[i]
            node.feature, node.threshold = f, t
            node.left, node.right = nodes[left], nodes[left + 1]
        self._root = nodes[0]
        return self

    # ------------------------------------------------------------------
    # Prediction and introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> TreeNode:
        """The fitted root node."""
        self._check_fitted()
        return self._root

    @property
    def n_features(self) -> int:
        """Number of input features seen at fit time."""
        self._check_fitted()
        return self._n_features

    def predict(self, X) -> np.ndarray:
        """Predict targets for rows of ``X``.

        Routing is batched per node: every row reaching a split is
        partitioned with one vectorized comparison, so prediction costs
        O(n_nodes) numpy operations instead of a Python loop over rows
        — the explorer evaluates candidate batches of thousands of
        configurations through this path.
        """
        self._check_fitted()
        X = as_2d_float_array(X, name="X")
        if X.shape[1] != self._n_features:
            raise ModelError(
                f"X has {X.shape[1]} features, tree was fitted with {self._n_features}"
            )
        out = np.empty(X.shape[0], dtype=float)
        stack = [(self._root, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                out[rows] = node.value
                continue
            goes_left = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[goes_left]))
            stack.append((node.right, rows[~goes_left]))
        return out

    def nodes(self) -> Iterator[TreeNode]:
        """Yield every node, breadth-first from the root."""
        self._check_fitted()
        queue = [self._root]
        while queue:
            node = queue.pop(0)
            yield node
            if not node.is_leaf:
                queue.append(node.left)
                queue.append(node.right)

    def leaves(self) -> Iterator[TreeNode]:
        """Yield the leaf nodes."""
        return (n for n in self.nodes() if n.is_leaf)

    def node_boxes(self):
        """Every node's bounding box as ``(lower, upper)``, each ``(n_nodes, d)``.

        Rows follow :meth:`nodes` (breadth-first) order; each node's
        ``lower``/``upper`` attributes are views of these rows.
        """
        self._check_fitted()
        return self._lower, self._upper

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        self._check_fitted()
        return self._lower.shape[0]

    @property
    def depth(self) -> int:
        """Maximum depth over all nodes (0 for a stump)."""
        return max(n.depth for n in self.nodes())

    @property
    def splits(self) -> List[SplitRecord]:
        """Splits in construction (breadth-first) order."""
        self._check_fitted()
        return list(self._splits)

    # ------------------------------------------------------------------
    # Parameter-importance measures (Figure 11)
    # ------------------------------------------------------------------
    def split_counts(self) -> np.ndarray:
        """Number of splits on each feature ("split frequency")."""
        self._check_fitted()
        counts = np.zeros(self._n_features, dtype=int)
        for rec in self._splits:
            counts[rec.feature] += 1
        return counts

    def first_split_positions(self) -> np.ndarray:
        """Breadth-first position of each feature's earliest split.

        Features that are never split get position ``n_splits`` (i.e.,
        strictly after every real split), so lower is more important.
        """
        self._check_fitted()
        pos = np.full(self._n_features, len(self._splits), dtype=int)
        for rec in self._splits:
            if rec.position < pos[rec.feature]:
                pos[rec.feature] = rec.position
        return pos

    def split_order_scores(self) -> np.ndarray:
        """Importance in ``[0, 1]`` derived from first-split position.

        Features split earliest score near 1; never-split features score 0
        — the quantity visualised by spoke length in the paper's Figure
        11(a) star plots.
        """
        self._check_fitted()
        n = len(self._splits)
        if n == 0:
            return np.zeros(self._n_features)
        pos = self.first_split_positions().astype(float)
        return np.clip(1.0 - pos / n, 0.0, 1.0)

    def importance_by_improvement(self) -> np.ndarray:
        """Total SSE reduction attributed to each feature, normalized to sum 1."""
        self._check_fitted()
        gain = np.zeros(self._n_features, dtype=float)
        for rec in self._splits:
            gain[rec.feature] += rec.improvement
        total = gain.sum()
        return gain / total if total > 0 else gain

    def _check_fitted(self) -> None:
        if self._root is None:
            raise NotFittedError("RegressionTree.predict called before fit")
