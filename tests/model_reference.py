"""Per-node reference implementations of the model layer's fitting code.

These are the straightforward implementations that
:class:`repro.core.regression_tree.RegressionTree` and
:class:`repro.core.rbf.RBFNetwork` used before tree growth became
level-wise and the GCV scan became one array expression: a queue of
nodes, a per-node and per-feature argsort split search, a per-node
``vstack`` of RBF units and a per-lambda GCV loop.  They are kept here,
outside the package, as the oracle that
``tests/test_model_differential.py`` and
``benchmarks/bench_model_fit.py`` compare the package against bit for
bit.
"""

from typing import List

import numpy as np

from repro._validation import as_2d_float_array
from repro.core.rbf import RBFNetwork, _design_matrix
from repro.core.regression_tree import RegressionTree, SplitRecord, TreeNode


def reference_best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Exact best (improvement, feature, threshold) of one node, or ``None``."""
    n, d = X.shape
    if n < 2 * min_leaf:
        return None
    total_sse = float(np.sum((y - y.mean()) ** 2))
    best = None
    for feat in range(d):
        order = np.argsort(X[:, feat], kind="stable")
        xs = X[order, feat]
        ys = y[order]
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        total_sum, total_sum2 = csum[-1], csum2[-1]
        counts = np.arange(1, n)
        left_sum = csum[:-1]
        left_sse = csum2[:-1] - left_sum ** 2 / counts
        right_cnt = n - counts
        right_sum = total_sum - left_sum
        right_sse = (total_sum2 - csum2[:-1]) - right_sum ** 2 / right_cnt
        sse = left_sse + right_sse
        valid = (counts >= min_leaf) & (right_cnt >= min_leaf) & (xs[:-1] < xs[1:])
        if not np.any(valid):
            continue
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        improvement = total_sse - float(sse[i])
        if best is None or improvement > best[0] + 1e-12:
            threshold = 0.5 * (xs[i] + xs[i + 1])
            best = (improvement, feat, float(threshold))
    return best


def _make_node(y: np.ndarray, depth: int, lower: np.ndarray,
               upper: np.ndarray) -> TreeNode:
    value = float(y.mean())
    return TreeNode(depth=depth, value=value, n_samples=int(y.size),
                    sse=float(np.sum((y - value) ** 2)),
                    lower=lower, upper=upper)


class ReferenceTree(RegressionTree):
    """:class:`RegressionTree` grown node by node from a queue."""

    def fit(self, X, y) -> "ReferenceTree":
        X = as_2d_float_array(X, name="X")
        y = np.asarray(y, dtype=float)
        self._n_features = X.shape[1]
        self._splits = []
        lower = X.min(axis=0)
        upper = X.max(axis=0)
        root = _make_node(y, 0, lower.copy(), upper.copy())
        queue: List[tuple] = [(root, X, y)]
        while queue:
            node, Xn, yn = queue.pop(0)
            if node.depth >= self.max_depth or yn.size < self.min_samples_split:
                continue
            found = reference_best_split(Xn, yn, self.min_samples_leaf)
            if found is None:
                continue
            improvement, feat, thr = found
            if improvement < self.min_impurity_decrease:
                continue
            mask = Xn[:, feat] <= thr
            node.feature, node.threshold = feat, thr
            self._splits.append(SplitRecord(
                position=len(self._splits), depth=node.depth,
                feature=feat, threshold=thr, improvement=improvement,
            ))
            lo_l, up_l = node.lower.copy(), node.upper.copy()
            up_l[feat] = thr
            lo_r, up_r = node.lower.copy(), node.upper.copy()
            lo_r[feat] = thr
            node.left = _make_node(yn[mask], node.depth + 1, lo_l, up_l)
            node.right = _make_node(yn[~mask], node.depth + 1, lo_r, up_r)
            queue.append((node.left, Xn[mask], yn[mask]))
            queue.append((node.right, Xn[~mask], yn[~mask]))
        self._root = root
        nodes = list(self.nodes())
        self._lower = np.vstack([node.lower for node in nodes])
        self._upper = np.vstack([node.upper for node in nodes])
        return self


def reference_gcv_ridge(phi: np.ndarray, y: np.ndarray, lambda_grid):
    """Ridge weights with lambda chosen by GCV, one lambda at a time."""
    n = phi.shape[0]
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    uty = u.T @ y
    y_norm2 = float(y @ y)
    best = None
    for lam in lambda_grid:
        shrink = s * s / (s * s + lam)
        fitted_norm2 = float(np.sum((shrink * uty) ** 2))
        cross = float(np.sum(shrink * uty * uty))
        rss = max(y_norm2 - 2.0 * cross + fitted_norm2, 0.0)
        trace_s = float(np.sum(shrink))
        denom = max(n - trace_s, 1e-9)
        gcv = n * rss / denom ** 2
        if best is None or gcv < best[2]:
            coef = vt.T @ ((s / (s * s + lam)) * uty)
            best = (coef, lam, gcv)
    return best


def reference_forward_select(phi: np.ndarray, y: np.ndarray):
    """Greedy forward selection of columns of ``phi`` minimizing GCV."""
    n, m = phi.shape
    selected: list = []
    remaining = list(range(m))
    best_overall = None
    lam = 1e-6
    while remaining:
        best_step = None
        for j in remaining:
            coef, _, gcv = reference_gcv_ridge(phi[:, selected + [j]], y, (lam,))
            if best_step is None or gcv < best_step[2]:
                best_step = (j, coef, gcv)
        j, coef, gcv = best_step
        if best_overall is not None and gcv >= best_overall[2] - 1e-12:
            break
        selected.append(j)
        remaining.remove(j)
        best_overall = (list(selected), coef, gcv)
        if len(selected) >= min(n // 2, m):
            break
    cols, coef, gcv = best_overall
    weights = np.zeros(m)
    weights[cols] = coef
    return weights, lam, gcv


class ReferenceRBFNetwork(RBFNetwork):
    """:class:`RBFNetwork` fitted through the reference tree and GCV loop."""

    def fit(self, X, y) -> "ReferenceRBFNetwork":
        X = as_2d_float_array(X, name="X")
        y = np.asarray(y, dtype=float)
        self.tree_ = ReferenceTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
        ).fit(X, y)
        centers, radii = [], []
        for node in self.tree_.nodes():
            mid = (node.lower + node.upper) / 2.0
            half = (node.upper - node.lower) / 2.0
            centers.append(mid)
            radii.append(np.maximum(half * self.radius_scale, self.min_radius))
        self.centers_, self.radii_ = np.vstack(centers), np.vstack(radii)
        self.bias_ = float(y.mean())
        resid = y - self.bias_
        phi = _design_matrix(X, self.centers_, self.radii_)
        if self.include_bias:
            phi = np.hstack([phi, np.ones((phi.shape[0], 1))])
        if self.solver == "ridge_gcv":
            self.weights_, self.lambda_, self.gcv_ = reference_gcv_ridge(
                phi, resid, self.lambda_grid)
        else:
            self.weights_, self.lambda_, self.gcv_ = reference_forward_select(
                phi, resid)
        return self
