"""Differential tests: level-wise tree growth and vectorized GCV vs per-node code.

:class:`repro.core.regression_tree.RegressionTree` grows level by level
from one presort and :func:`repro.core.rbf._gcv_ridge` scores the whole
lambda grid at once.  Both must reproduce the per-node reference
implementations in ``tests/model_reference.py`` byte for byte: split
records (including ``improvement``), node values, sizes, SSEs, boxes and
predictions, and RBF centers, radii, weights, ``lambda_`` and ``gcv_``.
"""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from model_reference import (ReferenceRBFNetwork, ReferenceTree,
                             reference_gcv_ridge)
from repro.core.rbf import RBFNetwork, _gcv_ridge
from repro.core import regression_tree
from repro.core.regression_tree import RegressionTree, _first_feature_by_margin

FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _bits(value) -> bytes:
    return struct.pack("<d", value)


def _record_bits(rec):
    return (rec.position, rec.depth, rec.feature, _bits(rec.threshold),
            _bits(rec.improvement))


def assert_trees_identical(tree, ref, X_query):
    assert [_record_bits(r) for r in tree.splits] == \
        [_record_bits(r) for r in ref.splits]
    nodes, ref_nodes = list(tree.nodes()), list(ref.nodes())
    assert len(nodes) == len(ref_nodes) == tree.n_nodes
    for node, expect in zip(nodes, ref_nodes):
        assert (node.depth, node.n_samples, node.feature) == \
            (expect.depth, expect.n_samples, expect.feature)
        assert _bits(node.value) == _bits(expect.value)
        assert _bits(node.sse) == _bits(expect.sse)
        if node.threshold is not None:
            assert _bits(node.threshold) == _bits(expect.threshold)
        assert node.lower.tobytes() == expect.lower.tobytes()
        assert node.upper.tobytes() == expect.upper.tobytes()
    lower, upper = tree.node_boxes()
    ref_lower, ref_upper = ref.node_boxes()
    assert lower.tobytes() == ref_lower.tobytes()
    assert upper.tobytes() == ref_upper.tobytes()
    assert tree.predict(X_query).tobytes() == ref.predict(X_query).tobytes()


def assert_networks_identical(net, ref):
    for name in ("centers_", "radii_", "weights_"):
        assert getattr(net, name).tobytes() == getattr(ref, name).tobytes(), name
    assert _bits(net.lambda_) == _bits(ref.lambda_)
    assert _bits(net.gcv_) == _bits(ref.gcv_)
    assert _bits(net.bias_) == _bits(ref.bias_)


@st.composite
def columns(draw, n):
    """One feature column: few tied levels, continuous, or constant."""
    kind = draw(st.sampled_from(["levels", "continuous", "constant"]))
    if kind == "levels":
        levels = draw(st.lists(FLOATS, min_size=2, max_size=5))
        picks = draw(st.lists(st.integers(0, len(levels) - 1),
                              min_size=n, max_size=n))
        return [levels[i] for i in picks]
    if kind == "continuous":
        return draw(st.lists(FLOATS, min_size=n, max_size=n))
    return [draw(FLOATS)] * n


@st.composite
def targets(draw, n):
    kind = draw(st.sampled_from(["continuous", "discrete", "constant"]))
    if kind == "continuous":
        return draw(st.lists(FLOATS, min_size=n, max_size=n))
    if kind == "discrete":
        values = draw(st.lists(FLOATS, min_size=1, max_size=3))
        picks = draw(st.lists(st.integers(0, len(values) - 1),
                              min_size=n, max_size=n))
        return [values[i] for i in picks]
    return [draw(FLOATS)] * n


@st.composite
def fit_cases(draw, max_rows=48):
    """``(X, y, tree parameters)`` with heavy ties."""
    min_leaf = draw(st.integers(1, 5))
    n = draw(st.one_of(
        st.integers(1, max_rows),
        st.integers(max(1, 2 * min_leaf - 2), 2 * min_leaf + 2)))
    d = draw(st.integers(1, 5))
    X = np.array([draw(columns(n)) for _ in range(d)], dtype=float).T
    y = np.array(draw(targets(n)), dtype=float)
    params = dict(max_depth=draw(st.integers(0, 8)), min_samples_leaf=min_leaf,
                  min_samples_split=draw(st.integers(2, 12)))
    return X, y, params


def _query_points(X):
    rng = np.random.default_rng(0)
    lo, hi = X.min(axis=0), X.max(axis=0)
    return np.vstack([X, rng.uniform(lo - 1.0, hi + 1.0, size=(16, X.shape[1]))])


@given(fit_cases())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_tree_matches_per_node_reference(case):
    X, y, params = case
    with warnings.catch_warnings():
        # A threshold rounded onto the upper value can leave a child
        # empty; both sides then warn on its mean the same way.
        warnings.simplefilter("ignore", RuntimeWarning)
        tree = RegressionTree(**params).fit(X, y)
        ref = ReferenceTree(**params).fit(X, y)
    assert_trees_identical(tree, ref, _query_points(X))


@given(fit_cases(max_rows=24), st.sampled_from(["ridge_gcv", "forward"]),
       st.floats(0.5, 5.0))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_rbf_matches_per_node_reference(case, solver, radius_scale):
    X, y, params = case
    kwargs = dict(max_depth=params["max_depth"],
                  min_samples_leaf=params["min_samples_leaf"],
                  radius_scale=radius_scale, solver=solver)
    with warnings.catch_warnings():
        # Degenerate designs can overflow the GCV arithmetic the same way
        # on both sides; only the bits matter here.
        warnings.simplefilter("ignore", RuntimeWarning)
        net = RBFNetwork(**kwargs).fit(X, y)
        ref = ReferenceRBFNetwork(**kwargs).fit(X, y)
    assert_networks_identical(net, ref)
    assert_trees_identical(net.tree_, ref.tree_, _query_points(X))


@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.0, 1e3), min_size=1, max_size=25))
@settings(max_examples=150, deadline=None)
def test_gcv_grid_matches_per_lambda_loop(n, m, seed, grid):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(n, m)) * rng.uniform(0.01, 10.0)
    y = rng.normal(size=n)
    coef, lam, gcv = _gcv_ridge(phi, y, tuple(grid))
    ref_coef, ref_lam, ref_gcv = reference_gcv_ridge(phi, y, tuple(grid))
    assert coef.tobytes() == ref_coef.tobytes()
    assert _bits(lam) == _bits(ref_lam)
    assert _bits(gcv) == _bits(ref_gcv)


@pytest.mark.parametrize("grid", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0, 2.0)])
def test_gcv_nan_scores_resolve_like_the_loop(grid):
    # A zero singular value at lambda 0 makes 0/0 shrinkage: NaN scores
    # must win or lose exactly where the per-lambda loop had them.
    phi = np.zeros((6, 3))
    phi[:, 0] = np.arange(6.0)
    y = np.linspace(-1.0, 1.0, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = _gcv_ridge(phi, y, grid)
        want = reference_gcv_ridge(phi, y, grid)
    assert got[0].tobytes() == want[0].tobytes()
    assert _bits(got[1]) == _bits(want[1])
    assert _bits(got[2]) == _bits(want[2])


def _scan(improvement, has_valid):
    """The per-feature scan ``_first_feature_by_margin`` must reproduce."""
    out = []
    for row, ok in zip(improvement, has_valid):
        kept, best = -1, 0.0
        for feat in range(row.size):
            if ok[feat] and (kept < 0 or row[feat] > best + 1e-12):
                kept, best = feat, row[feat]
        out.append(kept)
    return out


@given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 1.0, 1e3, 1e5]))
@settings(max_examples=200, deadline=None)
def test_feature_choice_replays_margin_scan_on_near_ties(rows, feats, seed, base):
    rng = np.random.default_rng(seed)
    # Improvements a few 1e-13 apart force the exact replay path.
    steps = rng.integers(-12, 13, size=(rows, feats)) * 4e-13
    improvement = base + steps
    has_valid = rng.random((rows, feats)) < 0.8
    got = _first_feature_by_margin(improvement, has_valid)
    assert got.tolist() == _scan(improvement, has_valid)


def test_same_partition_in_different_row_orders():
    # Both features induce the partition {0,1,2} | {3,4,5} but prefix
    # sums run through the rows in different orders, so the two
    # improvements can differ in their last bits: the margin scan, not
    # the argmax, must decide.
    X = np.array([[1, 3], [2, 2], [3, 1], [4, 6], [5, 5], [6, 4]], dtype=float)
    for seed in range(50):
        y = np.random.default_rng(seed).normal(size=6) * 1e3
        tree = RegressionTree(max_depth=3, min_samples_leaf=1,
                              min_samples_split=2).fit(X, y)
        ref = ReferenceTree(max_depth=3, min_samples_leaf=1,
                            min_samples_split=2).fit(X, y)
        assert_trees_identical(tree, ref, X)


def test_threshold_rounding_onto_the_upper_value():
    # The midpoint of two adjacent doubles can round to the upper one;
    # rows are then routed by ``x <= threshold`` exactly as before, even
    # when that leaves a child empty.
    a = 1.0 + 2.0 ** -52
    b = 1.0 + 2.0 ** -51
    assert 0.5 * (a + b) == b
    X = np.array([[a], [a], [a], [b], [b], [b]])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tree = RegressionTree(max_depth=2, min_samples_leaf=1,
                              min_samples_split=2).fit(X, y)
        ref = ReferenceTree(max_depth=2, min_samples_leaf=1,
                            min_samples_split=2).fit(X, y)
    assert tree.root.right.n_samples == 0
    assert_trees_identical(tree, ref, X)


@pytest.mark.parametrize("budget", [1, 40, 300])
def test_frontiers_searched_in_blocks(monkeypatch, budget):
    # A tiny block budget splits every level's frontier into many blocks
    # of mixed node lengths; the splits must not change.
    monkeypatch.setattr(regression_tree, "_BLOCK_ELEMENTS", budget)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 6, size=(150, 3)).astype(float)
        X[:60, 0] = 0.0
        y = rng.normal(size=150) * np.where(X[:, 0] == 0.0, 0.1, 5.0)
        params = dict(max_depth=7, min_samples_leaf=2, min_samples_split=4)
        tree = RegressionTree(**params).fit(X, y)
        ref = ReferenceTree(**params).fit(X, y)
        assert_trees_identical(tree, ref, X[:30])
