"""Unit and property tests for repro.core.regression_tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regression_tree import RegressionTree, SplitRecord
from repro.errors import ModelError, NotFittedError


def _step_data(n=64, d=3, split_feature=1, threshold=0.5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = (X[:, split_feature] > threshold).astype(float) * 10.0
    return X, y


class TestFitting:
    def test_recovers_single_split(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        assert not tree.root.is_leaf
        assert tree.root.feature == 1
        assert tree.root.threshold == pytest.approx(0.5, abs=0.08)

    def test_predictions_are_leaf_means(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        pred = tree.predict(X)
        assert np.allclose(np.unique(np.round(pred, 6)),
                           np.unique(np.round([y[y < 5].mean(), y[y >= 5].mean()], 6)))

    def test_max_depth_zero_gives_stump(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert tree.root.is_leaf
        assert tree.predict(X[:3]) == pytest.approx([y.mean()] * 3)

    def test_constant_target_never_splits(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(50, 4))
        tree = RegressionTree().fit(X, np.full(50, 3.0))
        assert tree.root.is_leaf
        assert tree.n_nodes == 1

    def test_min_samples_leaf_respected(self):
        X, y = _step_data(n=40)
        tree = RegressionTree(max_depth=8, min_samples_leaf=7).fit(X, y)
        for leaf in tree.leaves():
            assert leaf.n_samples >= 7

    def test_deeper_tree_fits_better(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(200, 2))
        y = np.sin(5 * X[:, 0]) * np.cos(3 * X[:, 1])
        shallow = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        deep = RegressionTree(max_depth=6, min_samples_leaf=2).fit(X, y)
        err_shallow = np.mean((shallow.predict(X) - y) ** 2)
        err_deep = np.mean((deep.predict(X) - y) ** 2)
        assert err_deep < err_shallow

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ModelError):
            RegressionTree(max_depth=-1)
        with pytest.raises(ModelError):
            RegressionTree(min_samples_leaf=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            RegressionTree().fit(np.ones((4, 2)), np.ones(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        X, y = _step_data()
        y[3] = bad
        with pytest.raises(ModelError, match="non-finite"):
            RegressionTree().fit(X, y)

    def test_zero_rows_rejected(self):
        with pytest.raises(ModelError, match="zero rows"):
            RegressionTree().fit(np.empty((0, 2)), np.empty(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            RegressionTree().predict([[1.0]])

    def test_predict_wrong_width_rejected(self):
        X, y = _step_data(d=3)
        tree = RegressionTree().fit(X, y)
        with pytest.raises(ModelError):
            tree.predict(np.ones((2, 5)))


class TestStructure:
    def test_bounding_boxes_nested(self):
        X, y = _step_data(n=128, d=2, seed=3)
        tree = RegressionTree(max_depth=4, min_samples_leaf=4).fit(X, y)
        for node in tree.nodes():
            if not node.is_leaf:
                for child in (node.left, node.right):
                    assert np.all(child.lower >= node.lower - 1e-12)
                    assert np.all(child.upper <= node.upper + 1e-12)

    def test_children_partition_samples(self):
        X, y = _step_data(n=100, seed=4)
        tree = RegressionTree(max_depth=5, min_samples_leaf=3).fit(X, y)
        for node in tree.nodes():
            if not node.is_leaf:
                assert node.left.n_samples + node.right.n_samples == node.n_samples

    def test_node_boxes_stack_node_bounds_breadth_first(self):
        X, y = _step_data(n=100, seed=7)
        tree = RegressionTree(max_depth=4, min_samples_leaf=3).fit(X, y)
        lower, upper = tree.node_boxes()
        nodes = list(tree.nodes())
        assert lower.shape == upper.shape == (tree.n_nodes, 3) == (len(nodes), 3)
        assert np.array_equal(lower, np.vstack([n.lower for n in nodes]))
        assert np.array_equal(upper, np.vstack([n.upper for n in nodes]))

    def test_leaf_count_bounds(self):
        X, y = _step_data(n=100, seed=5)
        tree = RegressionTree(max_depth=3, min_samples_leaf=5).fit(X, y)
        n_leaves = sum(1 for _ in tree.leaves())
        assert 1 <= n_leaves <= 2 ** 3

    def test_splits_are_records(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=2, min_samples_leaf=2).fit(X, y)
        assert all(isinstance(s, SplitRecord) for s in tree.splits)
        positions = [s.position for s in tree.splits]
        assert positions == sorted(positions)

    @given(st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_depth_never_exceeds_max_depth(self, max_depth):
        X, y = _step_data(n=80, seed=6)
        tree = RegressionTree(max_depth=max_depth, min_samples_leaf=2).fit(X, y)
        assert tree.depth <= max_depth


class TestImportance:
    def test_split_counts_identify_informative_feature(self):
        X, y = _step_data(n=200, d=4, split_feature=2, seed=7)
        tree = RegressionTree(max_depth=4, min_samples_leaf=4).fit(X, y)
        counts = tree.split_counts()
        assert counts[2] == counts.max()

    def test_first_split_positions(self):
        X, y = _step_data(n=200, d=4, split_feature=2, seed=8)
        tree = RegressionTree(max_depth=4, min_samples_leaf=4).fit(X, y)
        pos = tree.first_split_positions()
        assert pos[2] == 0  # most informative feature splits first

    def test_split_order_scores_in_unit_interval(self):
        X, y = _step_data(n=150, d=3, seed=9)
        tree = RegressionTree(max_depth=5, min_samples_leaf=4).fit(X, y)
        scores = tree.split_order_scores()
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)
        assert scores[1] == scores.max()  # the informative feature

    def test_importance_by_improvement_sums_to_one(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(size=(150, 3))
        y = 2 * X[:, 0] + np.sin(6 * X[:, 1])
        tree = RegressionTree(max_depth=5, min_samples_leaf=4).fit(X, y)
        imp = tree.importance_by_improvement()
        assert imp.sum() == pytest.approx(1.0)
        assert np.all(imp >= 0.0)
        assert imp[2] == pytest.approx(min(imp), abs=1e-9)  # noise feature least important

    def test_stump_importance_all_zero(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert np.all(tree.split_order_scores() == 0.0)
        assert np.all(tree.split_counts() == 0)


class TestVectorizedPredict:
    """Batched node routing must agree with a per-row reference walk."""

    @staticmethod
    def _reference_predict(tree, X):
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = tree.root
            while not node.is_leaf:
                node = (node.left if row[node.feature] <= node.threshold
                        else node.right)
            out[i] = node.value
        return out

    def test_matches_reference_walk(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(size=(300, 5))
        y = (np.sin(5 * X[:, 0]) + 2 * (X[:, 1] > 0.4)
             + 0.3 * rng.normal(size=300))
        tree = RegressionTree(max_depth=7, min_samples_leaf=3).fit(X, y)
        probe = rng.uniform(-0.2, 1.2, size=(500, 5))
        assert np.array_equal(tree.predict(probe),
                              self._reference_predict(tree, probe))

    def test_threshold_boundary_routes_left(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 4)
        y = (X[:, 0] > 1.5).astype(float)
        tree = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        threshold = tree.root.threshold
        assert tree.predict([[threshold]])[0] == tree.root.left.value

    def test_stump_predicts_mean(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(50, 2))
        y = rng.normal(size=50)
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert np.allclose(tree.predict(X), y.mean())
