import functools
import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    knn_oracle,
    reference_best_stump,
    reference_fit_mlp,
    reference_fit_tree,
    reference_predict_knn,
    reference_predict_tree,
    tree_arrays,
)
from tpbench import attackers
from tpbench.attackers import adaboost, split
from tpbench.attackers.adaboost import fit_adaboost, predict_adaboost
from tpbench.attackers.forest import fit_forest, forest_votes
from tpbench.attackers.knn import block_rows, fit_knn, predict_knn
from tpbench.attackers.mlp import (
    BATCH_SIZE,
    TrainingDivergedError,
    _init_params,
    fit_mlp,
    loss_and_gradients,
    predict_mlp,
)
from tpbench.attackers.tree import fit_tree, predict_tree
from tpbench.harness import ClassifierSpec, cell_seeds, fit_cell, load_config, score_cell
from tpbench.rules import ConfigError
from tpbench.seeding import derive_seed


def blobs(rng, n_per_class, centers, spread=1.0, dims=12):
    X, y = [], []
    for label, center in centers:
        X.append(rng.normal(center, spread, size=(n_per_class, dims)))
        y += [label] * n_per_class
    return np.vstack(X), np.array(y, dtype=object)


# --- split --------------------------------------------------------------------

def test_split_balanced_two_class():
    y = ["a"] * 50 + ["b"] * 50
    train_idx, test_idx = split(y, 0.7, 1)
    labels = np.array(y, dtype=object)
    assert sorted(np.concatenate([train_idx, test_idx])) == list(range(100))
    assert (labels[train_idx] == "a").sum() == 35
    assert (labels[train_idx] == "b").sum() == 35
    assert test_idx.size == 30


def test_split_three_class_arithmetic():
    y = ["a"] * 30 + ["b"] * 30 + ["c"] * 30
    train_idx, _ = split(y, 0.7, 5)
    labels = np.array(y, dtype=object)
    for cls in "abc":
        assert (labels[train_idx] == cls).sum() == 21


def test_split_deterministic():
    y = ["a"] * 20 + ["b"] * 20
    first = split(y, 0.7, 9)
    second = split(y, 0.7, 9)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_split_small_class_named_in_error():
    with pytest.raises(ValueError, match="'tiny'"):
        split(["big"] * 10 + ["tiny"], 0.7, 0)
    with pytest.raises(ValueError, match=r"^only class\(es\) \['big'\] present"):
        split(["big"] * 10, 0.7, 0)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, float("nan"), True, "0.7"])
def test_split_rejects_a_fraction_outside_the_open_unit_interval(fraction):
    """The rule and message of a config's `train_fraction`."""
    named = rf"^train_fraction must be a number in \(0, 1\), got {re.escape(repr(fraction))}$"
    with pytest.raises(ConfigError, match=named):
        split(["a"] * 5 + ["b"] * 5, fraction, 0)


def test_split_keeps_every_class_in_both_sides():
    y = ["a"] * 3 + ["b"] * 97
    train_idx, test_idx = split(y, 0.9, 2)
    labels = np.array(y, dtype=object)
    for side in (train_idx, test_idx):
        assert {"a", "b"} <= set(labels[side])


# --- kNN ----------------------------------------------------------------------

def test_knn_training_row_is_its_own_neighbor():
    rng = np.random.default_rng(1)
    X, y = blobs(rng, 10, [("a", 0.0), ("b", 5.0)])
    model = attackers.train("knn", X, y, k=1)
    assert attackers.predict(model, X[3:4])[0] == y[3]


def test_knn_two_clusters():
    rng = np.random.default_rng(2)
    X, y = blobs(rng, 20, [("origin", 0.0), ("far", 10.0)], spread=0.5)
    model = attackers.train("knn", X, y, k=5)
    assert attackers.predict(model, np.full((1, 12), 0.2))[0] == "origin"


def test_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 6))
    y = np.array(list("abc"), dtype=object)[rng.integers(0, 3, size=30)]
    model = attackers.train("knn", np.hstack([X, np.zeros((30, 6))]), y, k=5)
    queries = rng.normal(size=(25, 6))
    queries_full = np.hstack([queries, np.zeros((25, 6))])
    got = attackers.predict(model, queries_full)
    Xs = model.standardizer.transform(np.hstack([X, np.zeros((30, 6))]))
    Qs = model.standardizer.transform(queries_full)
    for q, predicted in zip(Qs, got):
        assert predicted == knn_oracle(Xs, y, model.classes.tolist(), 5, q)


def _knn_case(rng, n_classes, n_features):
    """Integer-valued (heavily tied) columns, sometimes one coarsely rounded
    continuous column, duplicated training rows and queries that partly copy
    training rows, so distance ties at the k-th neighbour are common. Returns
    the training set and a query generator."""
    continuous = rng.random() < 0.5

    def rows(n):
        R = rng.integers(0, 3, size=(n, n_features)).astype(np.float64)
        if continuous:
            R[:, 0] = np.round(rng.normal(size=n), 1)
        return R

    n_train = int(rng.integers(200, 1200))
    X = rows(n_train)
    dup = int(rng.integers(1, n_train // 2 + 1))
    X[-dup:] = X[:dup]

    def queries(n):
        Q = rows(n)
        copies = rng.random(n) < 0.3
        Q[copies] = X[rng.integers(0, n_train, size=int(copies.sum()))]
        return Q

    return X, rng.integers(0, n_classes, size=n_train), queries


def _assert_knn_matches_reference(X, y, n_classes, k, Q, case):
    params = fit_knn(X, y, n_classes, k)
    assert np.array_equal(predict_knn(params, Q), reference_predict_knn(params, Q)), case


def test_knn_batched_predict_matches_per_row_reference():
    rng = np.random.default_rng(41)
    for n_features in range(1, 14):
        n_classes = 2 + n_features % 3
        X, y, queries = _knn_case(rng, n_classes, n_features)
        block = block_rows(*X.shape)
        for n_test in (1, block - 1, block, block + 1, 2 * block + 1):
            Q = queries(n_test)
            for k in (1, 2, 4, 5, X.shape[0]):
                _assert_knn_matches_reference(X, y, n_classes, k, Q, (n_features, k, n_test))
        # 1e6 from the training cloud the screen's ‖t‖² - 2·x·t cancels about
        # 12 of its 16 digits, while exact distances still tie.
        for k in (1, 5, 8):
            _assert_knn_matches_reference(
                X, y, n_classes, k, queries(block + 1) + 1e6, (n_features, k, "offset")
            )

    # Exact duplicate distances at the k-th neighbour: 2·m rows at distance
    # d around the query (d = 1, or a non-integer d) among farther rows, with
    # and without a large shared offset.
    for n_features in (1, 3, 12):
        for d in (1.0, 0.1 * 3, 1e-3 * 7):
            for offset in (0.0, 1e6):
                q = rng.integers(-5, 5, size=n_features).astype(np.float64) + offset
                ring = q + d * np.vstack([np.eye(n_features), -np.eye(n_features)])
                far = q + rng.uniform(2.0, 3.0, size=(40, n_features)) * d * 2
                X = rng.permutation(np.vstack([far, ring, far[:5]]))
                y = rng.integers(0, 3, size=X.shape[0])
                for k in range(1, 2 * n_features + 3):
                    _assert_knn_matches_reference(X, y, 3, k, q[None], (n_features, d, offset, k))

    # A vote tie between two classes of 11 neighbours whose summed distances
    # n·√2 differ only in rounding: np.sum's pairwise order makes class 1's
    # sum the smaller, where a running sum would make the two equal.
    n = np.array([1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 5] + [1, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5] + [9] * 4)
    X = np.repeat(n[:, None], 2, axis=1).astype(np.float64)
    y = np.array([1] * 11 + [0] * 11 + [2] * 4)
    for order in (np.arange(n.size), rng.permutation(n.size)):
        _assert_knn_matches_reference(X[order], y[order], 3, 22, np.zeros((1, 2)), "rounding tie")
        assert predict_knn(fit_knn(X[order], y[order], 3, 22), np.zeros((1, 2)))[0] == 1

    # Entries near 1e155 overflow the screen's ‖x‖² but no exact distance:
    # those queries take every row, and no overflow warning escapes.
    X = 1e155 + rng.integers(0, 3, size=(300, 12)) * 1e152
    y = rng.integers(0, 3, size=300)
    Q = np.vstack([X[:20] + 1e152, 1e155 + rng.integers(-2, 5, size=(20, 12)) * 1e152])
    for k in (1, 5, 300):
        _assert_knn_matches_reference(X, y, 3, k, Q, ("1e155", k))
    # Near 1e200 the exact distances of distinct rows overflow to inf too,
    # and tie; the vote falls to the reference's tie rule.
    X = 1e200 * (1 + rng.integers(0, 3, size=(300, 12)))
    Q = np.vstack([X[:20], 1e200 * (1 + rng.integers(0, 3, size=(20, 12)))])
    with np.errstate(over="ignore"):
        for k in (1, 5, 300):
            _assert_knn_matches_reference(X, y, 3, k, Q, ("1e200", k))


def test_knn_rejects_bad_k():
    rng = np.random.default_rng(4)
    X, y = blobs(rng, 5, [("a", 0.0), ("b", 3.0)])
    with pytest.raises(ValueError):
        attackers.train("knn", X, y, k=0)
    with pytest.raises(ValueError):
        attackers.train("knn", X, y, k=11)


# --- decision tree ---------------------------------------------------------------

def test_tree_pure_class_single_leaf():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 12))
    model = attackers.train("tree", X, ["only"] * 12)
    assert tree_arrays(model.params) == [[-1], [0.0], [0], [-1], [-1]]
    assert all(attackers.predict(model, rng.normal(size=(5, 12))) == "only")


def test_tree_separable_1d_threshold():
    X = np.zeros((4, 12))
    X[:, 0] = [0.0, 1.0, 10.0, 11.0]
    y = ["a", "a", "b", "b"]
    model = attackers.train("tree", X, y)
    tree = model.params
    assert tree.feature.tolist() == [0, -1, -1]
    # threshold lives strictly between the clusters (standardized space)
    standardized = model.standardizer.transform(X)[:, 0]
    assert standardized[1] <= tree.threshold[0] < standardized[2]
    assert attackers.evaluate(model, X, y) == 1.0


def test_tree_unlimited_depth_memorizes_consistent_data():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 4))
    y = np.array(list("ab"), dtype=object)[rng.integers(0, 2, size=20)]
    assert len(np.unique(X, axis=0)) == 20  # check label consistency first
    model = attackers.train("tree", np.hstack([X, np.zeros((20, 8))]), y)
    assert attackers.evaluate(model, np.hstack([X, np.zeros((20, 8))]), y) == 1.0


def _oracle_case(rng):
    """Random rows with continuous, heavily tied integer, constant and
    adjacent-float columns (whose midpoint rounds onto the upper value)."""
    n = int(rng.integers(2, 70))
    columns = {
        "continuous": lambda: rng.normal(size=n),
        "tied": lambda: rng.integers(0, 3, size=n).astype(np.float64),
        "constant": lambda: np.full(n, 1.5),
        "adjacent": lambda: 1.0 + np.spacing(1.0) * rng.integers(1, 3, size=n),
    }
    kinds = rng.choice(list(columns), size=int(rng.integers(1, 6)))
    X = np.column_stack([columns[kind]() for kind in kinds])
    n_classes = int(rng.integers(2, 13))  # from 8 on, numpy sums a class axis pairwise
    return X, rng.integers(0, n_classes, size=n), n_classes


def test_tree_split_search_matches_per_feature_oracle():
    rng = np.random.default_rng(40)
    for case in range(300):
        X, y, n_classes = _oracle_case(rng)
        kwargs = {"features_per_split": [None, 2, 3][case % 3]}
        seed = int(rng.integers(2**32))
        got = fit_tree(X, y, n_classes, rng=np.random.default_rng(seed), **kwargs)
        want = reference_fit_tree(X, y, n_classes, rng=np.random.default_rng(seed), **kwargs)
        assert tree_arrays(got) == tree_arrays(want), (case, kwargs)


def test_tree_row_weights_match_the_oracle_on_repeated_rows():
    rng = np.random.default_rng(42)
    for case in range(270):
        X, y, n_classes = _oracle_case(rng)
        w = rng.integers(1, 5, size=y.size)
        kwargs = {"features_per_split": [None, 2, 3][case % 3]}
        seed = int(rng.integers(2**32))
        got = fit_tree(X, y, n_classes, rng=np.random.default_rng(seed), weights=w, **kwargs)
        want = reference_fit_tree(
            np.repeat(X, w, axis=0), np.repeat(y, w), n_classes,
            rng=np.random.default_rng(seed), **kwargs,
        )
        assert tree_arrays(got) == tree_arrays(want), (case, kwargs)
    # One row per class along a feature, with mirror-symmetric weights: a cut
    # and its mirror leave the same class weights on swapped sides, so their
    # gains tie exactly and only the bits of the class sum choose between
    # them. From 8 classes on numpy adds a trailing class axis pairwise.
    for case in range(500):
        n_classes = 8 + case % 5
        half = rng.integers(1, 7, size=(n_classes + 1) // 2)
        w = np.concatenate([half, half[: n_classes // 2][::-1]])
        X, y = np.arange(n_classes, dtype=np.float64)[:, None], np.arange(n_classes)
        got = fit_tree(X, y, n_classes, weights=w)
        want = reference_fit_tree(np.repeat(X, w, axis=0), np.repeat(y, w), n_classes)
        assert tree_arrays(got) == tree_arrays(want), (case, w.tolist())


def test_a_nan_feature_value_never_opens_a_cut():
    # sorted, the NaNs follow 1.0; a cut there would split the right child's classes
    X = np.array([[0.0], [0.0], [1.0], [np.nan], [np.nan], [np.nan]])
    y = np.array([0, 0, 0, 1, 1, 1])
    want = [[0, -1, -1], [0.5, 0.0, 0.0], [-1, 0, 1], [1, -1, -1], [2, -1, -1]]
    assert tree_arrays(reference_fit_tree(X, y, 2)) == want
    assert tree_arrays(fit_tree(X, y, 2)) == want
    assert tree_arrays(fit_tree(X, y, 2, weights=np.array([1, 2, 1, 3, 1, 1]))) == want


def test_forest_matches_per_feature_oracle():
    rng = np.random.default_rng(41)
    X = np.column_stack([rng.normal(size=90), rng.integers(0, 4, size=90), rng.normal(size=90)])
    y = rng.integers(0, 3, size=90)
    # ceil(sqrt(3)) = 2 features per split
    for seed in (5, 6, 7):
        forest = fit_forest(X, y, 3, n_trees=12, seed=seed)
        for t, tree in enumerate(forest.trees):
            tree_rng = np.random.default_rng(derive_seed(seed, "tree", t))
            rows = tree_rng.integers(0, y.size, size=y.size)
            want = reference_fit_tree(X[rows], y[rows], 3, rng=tree_rng, features_per_split=2)
            assert tree_arrays(tree) == tree_arrays(want), (seed, t)


@pytest.mark.parametrize("n_classes", [3, 7, 8, 12])
def test_forest_matches_the_oracle_tree_by_tree_below_and_from_8_classes(n_classes):
    """numpy adds a trailing axis of 8 or more classes pairwise, not left to
    right; the split kernel's Gini must keep the per-cut sum's bits on both
    sides of that line. Noisy, heavily tied data grows deep trees with many
    near-equal gains."""
    rng = np.random.default_rng(43)
    y = rng.integers(0, n_classes, size=150)
    X = np.column_stack([
        y + rng.normal(scale=3.0, size=y.size),
        np.round(y / 3 + rng.normal(size=y.size)),
        rng.integers(0, 3, size=y.size),
        rng.normal(size=y.size),
        np.round(rng.normal(size=y.size), 1),
    ])
    # ceil(sqrt(5)) = 3 features per split
    forest = fit_forest(X, y, n_classes, n_trees=24, seed=n_classes)
    for t, tree in enumerate(forest.trees):
        tree_rng = np.random.default_rng(derive_seed(n_classes, "tree", t))
        rows = tree_rng.integers(0, y.size, size=y.size)
        want = reference_fit_tree(X[rows], y[rows], n_classes, rng=tree_rng, features_per_split=3)
        assert tree_arrays(tree) == tree_arrays(want), t


def _tree_depth(tree) -> int:
    """Levels below the root of a tree's deepest leaf; a child's id exceeds its parent's."""
    depth = np.zeros(tree.feature.size, dtype=np.int64)
    for node in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


def _threshold_queries(tree, rng, n_rows, n_features):
    """Rows whose every value is one of the tree's thresholds on that
    feature (or noise where it has none), so many meet a cut with equality."""
    queries = rng.normal(size=(n_rows, n_features))
    for f in range(n_features):
        cuts = tree.threshold[tree.feature == f]
        if cuts.size:
            queries[:, f] = rng.choice(cuts, size=n_rows)
    return queries


def test_tree_predict_descends_as_the_node_by_node_walk():
    """Level by level, every row reaches the leaf a walk of one node and its
    row subset at a time reaches: on noisy rows that grow trees more than 20
    levels deep, on rows equal to a threshold (which go left), on no rows,
    and on a tree of one leaf."""
    rng = np.random.default_rng(44)
    depths = []
    for n_rows, n_features, n_classes in ((300, 2, 3), (500, 3, 3), (200, 5, 9)):
        X = rng.normal(size=(n_rows, n_features))
        X[:, 0] = np.round(X[:, 0], 1)  # ties
        tree = fit_tree(X, rng.integers(0, n_classes, size=n_rows), n_classes)
        depths.append(_tree_depth(tree))
        for queries in (X, rng.normal(size=(400, n_features)),
                        _threshold_queries(tree, rng, 400, n_features), X[:0]):
            got = predict_tree(tree, queries)
            assert got.dtype == np.int64 and got.shape == (queries.shape[0],)
            assert np.array_equal(got, reference_predict_tree(tree, queries))
    assert max(depths) > 20, depths

    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    tree = fit_tree(X, np.array([0, 0, 1, 1]), 2)
    at = tree.threshold[0]
    queries = np.array([[at], [np.nextafter(at, np.inf)], [np.nextafter(at, -np.inf)]])
    assert predict_tree(tree, queries).tolist() == [0, 1, 0]

    leaf = fit_tree(X, np.array([2, 2, 2, 2]), 3)
    assert tree_arrays(leaf) == [[-1], [0.0], [2], [-1], [-1]]
    assert predict_tree(leaf, rng.normal(size=(5, 1))).tolist() == [2] * 5
    assert predict_tree(leaf, X[:0]).tolist() == []


def test_forest_votes_count_the_node_by_node_walk_of_every_tree():
    """A forest's `attackers.votes` are, per row and class, the count of its
    trees whose node-by-node walk of the standardized row ends at that class."""
    rng = np.random.default_rng(45)
    X = rng.normal(size=(240, 5))
    X[:, 1] = np.round(X[:, 1])
    y = np.array(list("abcd"), dtype=object)[rng.integers(0, 4, size=240)]
    model = attackers.train("forest", X, y, n_trees=9, seed=3)
    queries = np.vstack([X[:60], rng.normal(size=(60, 5))])
    standardized = model.standardizer.transform(queries)
    want = np.zeros((queries.shape[0], 4), dtype=np.int64)
    for tree in model.params.trees:
        want[np.arange(queries.shape[0]), reference_predict_tree(tree, standardized)] += 1
    assert np.array_equal(attackers.votes(model, queries), want)
    assert np.array_equal(attackers.votes(model, queries[:0]), want[:0])


# --- random forest ----------------------------------------------------------------

def test_forest_single_tree_reduces_to_cart_on_its_bootstrap_draw():
    """A one-tree forest on two features, which at ceil(sqrt(2)) = 2 per
    split sees every feature, predicts as plain CART grown on the tree's
    bootstrap draw, each row repeated as often as it was drawn: not as CART
    on the distinct drawn rows (seed 6)."""
    rng = np.random.default_rng(8)
    X, labels = blobs(rng, 25, [("a", 0.0), ("b", 2.0)], spread=1.5, dims=2)
    y = (labels == "b").astype(np.int64)
    queries = rng.normal(1.0, 1.5, size=(40, 2))
    for seed in range(10):
        forest = fit_forest(X, y, 2, n_trees=1, seed=seed)
        rows = np.random.default_rng(derive_seed(seed, "tree", 0)).integers(0, y.size, y.size)
        predicted = np.argmax(forest_votes(forest, queries), axis=1)
        assert np.array_equal(predicted, predict_tree(fit_tree(X[rows], y[rows], 2), queries))
        if seed == 6:
            distinct = np.unique(rows)
            unweighted = fit_tree(X[distinct], y[distinct], 2)
            assert not np.array_equal(predicted, predict_tree(unweighted, queries))


@pytest.mark.parametrize("trees", [range(0), range(3, 3), range(0, 4, 2), range(-1, 2),
                                   range(2, 5), [0, 1]], ids=str)
def test_forest_refuses_a_trees_range_that_is_no_contiguous_part_of_its_trees(trees):
    """Empty, strided, outside range(n_trees) or no range: refused by the kernel and by
    `train`, whose `trees` hook passes through to it."""
    X, y = np.random.default_rng(3).normal(size=(12, 4)), np.repeat(["a", "b"], 6)
    message = rf"^trees must be a non-empty contiguous part of range\(4\), got {re.escape(str(trees))}$"
    with pytest.raises(ValueError, match=message):
        fit_forest(X, np.repeat([0, 1], 6), 2, n_trees=4, trees=trees)
    with pytest.raises(ValueError, match=message):
        attackers.train("forest", X, y, n_trees=4, trees=trees)
    assert len(attackers.train("forest", X, y, n_trees=4, trees=range(1, 4)).params.trees) == 3


def test_forest_deterministic_per_seed():
    rng = np.random.default_rng(9)
    X, y = blobs(rng, 30, [("a", 0.0), ("b", 1.5)], spread=1.2)
    queries = rng.normal(0.7, 1.0, size=(50, 12))
    a = attackers.train("forest", X, y, n_trees=15, seed=21)
    b = attackers.train("forest", X, y, n_trees=15, seed=21)
    c = attackers.train("forest", X, y, n_trees=15, seed=22)
    assert np.array_equal(attackers.predict(a, queries), attackers.predict(b, queries))

    def nodes(model):
        return [tree_arrays(tree) for tree in model.params.trees]

    assert nodes(a) == nodes(b)
    # every tree differs: each one draws its bootstrap and feature subsets
    # from its own seed
    assert all(ta != tc for ta, tc in zip(nodes(a), nodes(c)))


def test_forest_separable_accuracy():
    rng = np.random.default_rng(10)
    X, y = blobs(rng, 40, [("a", 0.0), ("b", 8.0)], spread=0.8)
    Xt, yt = blobs(np.random.default_rng(11), 20, [("a", 0.0), ("b", 8.0)], spread=0.8)
    model = attackers.train("forest", X, y, n_trees=30, seed=1)
    assert attackers.evaluate(model, Xt, yt) == 1.0


# --- AdaBoost ----------------------------------------------------------------------

def test_adaboost_perfect_stump_halts_after_one_round():
    X = np.zeros((4, 12))
    X[:, 2] = [0.0, 1.0, 10.0, 11.0]
    y = ["a", "a", "b", "b"]
    model = attackers.train("adaboost", X, y, rounds=50)
    assert len(model.params.stumps) == 1
    assert attackers.evaluate(model, X, y) == 1.0


def test_adaboost_two_class_alpha_reduces_to_classic():
    # best stump errs on exactly one of four uniformly weighted rows:
    # eps = 1/4, so alpha = ln((1-eps)/eps) + ln(K-1) = ln 3 for K=2
    X = np.zeros((4, 12))
    X[:, 0] = [0.0, 1.0, 2.0, 3.0]
    y = ["a", "b", "a", "a"]
    model = attackers.train("adaboost", X, y, rounds=1)
    assert model.params.alphas[0] == pytest.approx(math.log(3.0), rel=1e-12)


def adaboost_round_errors(model, X, y) -> list[float]:
    """Training error after each boosting round r: `predict_adaboost` on the
    first r stumps makes the fit's score additions in the fit's order."""
    params = model.params
    Xs = model.standardizer.transform(X)
    codes = np.unique(y, return_inverse=True)[1]
    return [
        float(np.mean(predict_adaboost(
            replace(params, stumps=params.stumps[:r], alphas=params.alphas[:r]), Xs
        ) != codes))
        for r in range(1, len(params.stumps) + 1)
    ]


def test_adaboost_xor_like_needs_multiple_rounds():
    X = np.zeros((4, 12))
    X[:, 0] = [0.0, 1.0, 2.0, 3.0]
    y = ["a", "b", "b", "a"]  # no single threshold separates this
    model = attackers.train("adaboost", X, y, rounds=30)
    assert len(model.params.stumps) >= 2
    errors = adaboost_round_errors(model, X, y)
    assert errors[0] >= 0.25  # one stump must err somewhere
    assert errors[-1] < errors[0]


def test_adaboost_training_error_non_increasing_on_fixed_data():
    X = np.zeros((4, 12))
    X[:, 0] = [0.0, 1.0, 2.0, 3.0]
    y = ["a", "b", "b", "a"]
    model = attackers.train("adaboost", X, y, rounds=30)
    errors = adaboost_round_errors(model, X, y)
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_adaboost_three_class_runs():
    rng = np.random.default_rng(13)
    X, y = blobs(rng, 30, [("a", 0.0), ("b", 4.0), ("c", 8.0)], spread=0.8)
    model = attackers.train("adaboost", X, y, rounds=30)
    assert attackers.evaluate(model, X, y) >= 0.95


def test_adaboost_requires_two_classes():
    with pytest.raises(ValueError):
        fit_adaboost(np.zeros((3, 2)), np.zeros(3, dtype=int), n_classes=1)


def test_adaboost_presorted_search_matches_per_feature_reference(monkeypatch):
    rng = np.random.default_rng(31)
    cases = []
    for n_classes in (2, 3, 4):
        n = 40 * n_classes
        y = rng.integers(0, n_classes, n)
        continuous = rng.normal(size=(n, 6)) + 0.4 * y[:, None]
        tied = rng.integers(0, 4, size=(n, 6)).astype(np.float64)  # heavily tied
        tied[:, 2] = 7.0  # constant column
        cases += [(continuous, y, n_classes, 25), (tied, y, n_classes, 25)]
    separable = np.zeros((20, 3))
    separable[:, 1] = np.arange(20)
    cases.append((separable, (np.arange(20) >= 10).astype(np.int64), 2, 10))  # perfect stump
    cases.append((np.ones((20, 3)), np.arange(20) % 2, 2, 10))  # all constant: coin toss
    halted = 0
    for X, y, n_classes, rounds in cases:
        got = fit_adaboost(X, y, n_classes, rounds)
        with monkeypatch.context() as patch:
            patch.setattr(
                adaboost,
                "_best_stump",
                lambda cuts, y, w, n_classes, X=X: reference_best_stump(X, y, w, n_classes),
            )
            want = fit_adaboost(X, y, n_classes, rounds)
        assert got.stumps == want.stumps
        assert got.alphas == want.alphas
        halted += len(got.stumps) < rounds
    assert halted >= 2


# --- MLP -----------------------------------------------------------------------------

def test_mlp_separable_blobs_high_train_accuracy():
    rng = np.random.default_rng(14)
    X, y = blobs(rng, 100, [("a", 0.0), ("b", 3.0)], spread=1.0)
    model = attackers.train("mlp", X, y, epochs=200, seed=0)
    assert attackers.evaluate(model, X, y) >= 0.98
    assert len(model.params.loss_curve) == 200


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    weights, biases = _init_params(rng, [12, 8, 8, 3])
    X = rng.normal(size=(3, 12))
    targets = np.zeros((3, 3))
    targets[np.arange(3), [0, 1, 2]] = 1.0
    _, grad_w, grad_b = loss_and_gradients(weights, biases, X, targets)
    h = 1e-5
    worst = 0.0
    for arrays, grads in ((weights, grad_w), (biases, grad_b)):
        for array, grad in zip(arrays, grads):
            it = np.nditer(array, flags=["multi_index"])
            for _ in it:
                index = it.multi_index
                saved = array[index]
                array[index] = saved + h
                up, _, _ = loss_and_gradients(weights, biases, X, targets)
                array[index] = saved - h
                down, _, _ = loss_and_gradients(weights, biases, X, targets)
                array[index] = saved
                numeric = (up - down) / (2 * h)
                analytic = grad[index]
                if max(abs(numeric), abs(analytic)) >= 1e-7:
                    worst = max(
                        worst,
                        abs(numeric - analytic) / max(abs(numeric), abs(analytic)),
                    )
    assert worst < 1e-4


def test_mlp_loss_curve_deterministic():
    rng = np.random.default_rng(15)
    X, y = blobs(rng, 40, [("a", 0.0), ("b", 2.0)])
    a = attackers.train("mlp", X, y, epochs=20, seed=7)
    b = attackers.train("mlp", X, y, epochs=20, seed=7)
    assert a.params.loss_curve == b.params.loss_curve


def test_fit_mlp_matches_reference_loop():
    """`fit_mlp` trains as the plain loop does, bit for bit, in batches of
    BATCH_SIZE rows; the row counts give fewer rows than a batch, a partial
    last batch and a last batch of one row. A diverging run fails alike."""
    assert BATCH_SIZE == 32
    cases = [  # (rows, hidden, classes, epochs)
        (7, (5,), 2, 30),  # fewer rows than one batch
        (45, (8, 8, 8), 3, 10),  # partial last batch, of 13 rows
        (33, (), 4, 5),  # a one-row last batch, no hidden layer
        (130, (64, 64), 3, 12),  # the sweep's default net
        (1433, (64, 64), 3, 1),
    ]
    for rows, hidden, n_classes, epochs in cases:
        rng = np.random.default_rng(rows)
        y = np.arange(rows) % n_classes
        X = rng.normal(size=(rows, 12)) + y[:, None]
        kwargs = dict(hidden=hidden, epochs=epochs, learning_rate=1e-2, seed=rows)
        got = fit_mlp(X, y, n_classes, **kwargs)
        want = reference_fit_mlp(X, y, n_classes, **kwargs)
        assert len(got.weights) == len(want.weights) == len(hidden) + 1
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
        assert got.loss_curve == want.loss_curve
    y = np.arange(20) % 2
    X = np.random.default_rng(5).normal(size=(20, 12)) + y[:, None]
    with pytest.raises(TrainingDivergedError) as got:
        fit_mlp(X, y, 2, hidden=(8,), epochs=5, learning_rate=1e200)
    with pytest.raises(TrainingDivergedError) as want:
        reference_fit_mlp(X, y, 2, hidden=(8,), epochs=5, learning_rate=1e200)
    assert str(got.value) == str(want.value)


def test_fit_mlp_rejects_bad_learning_rate():
    X = np.random.default_rng(6).normal(size=(10, 12))
    y = np.arange(10) % 2
    for rate in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="learning_rate must be a finite number > 0"):
            attackers.train("mlp", X, y, epochs=1, learning_rate=rate)


def test_mlp_divergence_names_epoch():
    rng = np.random.default_rng(16)
    X, y = blobs(rng, 10, [("a", 0.0), ("b", 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # divergence is reported by the error alone
        with pytest.raises(TrainingDivergedError, match="epoch"):
            attackers.train("mlp", X, y, epochs=5, learning_rate=1e200, seed=1)


# --- evaluation and shared contract -------------------------------------------------

def test_evaluate_constant_model_hits_coin_toss_baselines():
    rng = np.random.default_rng(17)
    single = attackers.train("tree", rng.normal(size=(10, 12)), ["only"] * 10)
    test2 = rng.normal(size=(40, 12))
    labels2 = np.array(["only"] * 20 + ["other"] * 20, dtype=object)
    assert attackers.evaluate(single, test2, labels2) == 0.5
    test3 = rng.normal(size=(30, 12))
    labels3 = np.array(["only"] * 10 + ["b"] * 10 + ["c"] * 10, dtype=object)
    assert attackers.evaluate(single, test3, labels3) == pytest.approx(1.0 / 3.0)


def test_evaluate_perfect_model():
    rng = np.random.default_rng(18)
    X, y = blobs(rng, 20, [("a", 0.0), ("b", 6.0)], spread=0.5)
    model = attackers.train("knn", X, y, k=1)
    assert attackers.evaluate(model, X, y) == 1.0


def test_standardization_absorbs_affine_rescaling():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(80, 12))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=80) > 0, "p", "q")
    queries = rng.normal(size=(30, 12))
    scaled_X, scaled_queries = X.copy(), queries.copy()
    scaled_X[:, 4] = 1000.0 * scaled_X[:, 4] - 7.0
    scaled_queries[:, 4] = 1000.0 * scaled_queries[:, 4] - 7.0
    for trainer in (
        lambda X_, y_: attackers.train("knn", X_, y_, k=5),
        lambda X_, y_: attackers.train("mlp", X_, y_, epochs=30, seed=5),
    ):
        plain = attackers.predict(trainer(X, y), queries)
        rescaled = attackers.predict(trainer(scaled_X, y), scaled_queries)
        assert np.array_equal(plain, rescaled)


def test_all_classifiers_deterministic():
    rng = np.random.default_rng(19)
    X, y = blobs(rng, 30, [("a", 0.0), ("b", 1.2)], spread=1.5)
    queries = rng.normal(0.6, 1.0, size=(40, 12))
    trainers = {
        "knn": lambda: attackers.train("knn", X, y),
        "tree": lambda: attackers.train("tree", X, y),
        "forest": lambda: attackers.train("forest", X, y, n_trees=10, seed=4),
        "adaboost": lambda: attackers.train("adaboost", X, y, rounds=10),
        "mlp": lambda: attackers.train("mlp", X, y, epochs=15, seed=4),
    }
    for kind, make in trainers.items():
        first = attackers.predict(make(), queries)
        second = attackers.predict(make(), queries)
        assert np.array_equal(first, second), kind


def test_train_dispatch_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown classifier kind"):
        attackers.train("svm", np.zeros((4, 12)), ["a", "a", "b", "b"])


def test_every_hyperparameter_has_one_rule():
    """The rule table covers every key a kind takes, and only those."""
    keys = {key for params in attackers.HYPERPARAMETERS.values() for key in params}
    assert set(attackers.HYPERPARAMETER_RULES) == keys
    for kind, params in attackers.HYPERPARAMETERS.items():
        attackers.check_params(kind, params)  # every default meets its rule


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def test_every_hyperparameter_is_set_by_a_shipped_config():
    """A config key that no shipped config sets is a knob kept for no run:
    each key of `HYPERPARAMETERS` is set by some classifier entry of
    `configs/*.json`. `learning_rate` alone is kept unset: it is the one key
    through which an MLP can diverge, and `TrainingDivergedError` must stay
    reachable, also once the MLP stops early on a slice of its train rows
    (ROADMAP, "The MLP stops on a held-out slice")."""
    assert SHIPPED_CONFIGS
    set_keys = {(entry["kind"], key)
                for path in SHIPPED_CONFIGS
                for entry in json.loads(path.read_text(encoding="utf-8"))["classifiers"]
                for key in entry if key != "kind"}
    unset = {(kind, key) for kind, params in attackers.HYPERPARAMETERS.items()
             for key in params} - set_keys
    assert unset == {("mlp", "learning_rate")}


BAD_HYPERPARAMETERS = [  # (kind, params, message after "classifier '<kind>': ")
    ("knn", {"k": True}, "k must be an integer >= 1, got True"),
    ("knn", {"k": 2.5}, r"k must be an integer >= 1, got 2\.5"),
    ("forest", {"n_trees": 2.5}, r"n_trees must be an integer >= 1, got 2\.5"),
    ("mlp", {"epochs": True}, "epochs must be an integer >= 1, got True"),
    ("mlp", {"learning_rate": True}, "learning_rate must be a finite number > 0, got True"),
    ("adaboost", {"rounds": True}, "rounds must be an integer >= 1, got True"),
    # the removed growth knobs fail by name whatever their value: a tree
    # grows to purity and a forest draws ceil(sqrt(F)) features per split
    ("tree", {"min_leaf": 0}, r"unknown key\(s\) \['min_leaf'\]; expected none"),
    ("tree", {"max_depth": 0}, r"unknown key\(s\) \['max_depth'\]; expected none"),
    ("forest", {"features_per_split": 0},
     r"unknown key\(s\) \['features_per_split'\]; expected some of \['n_trees'\]"),
    ("forest", {"max_depth": None},
     r"unknown key\(s\) \['max_depth'\]; expected some of \['n_trees'\]"),
    ("forest", {"min_leaf": 1},
     r"unknown key\(s\) \['min_leaf'\]; expected some of \['n_trees'\]"),
    # the MLP's batch size is its kernel's, no config key
    ("mlp", {"batch_size": 32},
     r"unknown key\(s\) \['batch_size'\]; expected some of \['epochs', 'hidden', 'learning_rate'\]"),
    ("mlp", {"hidden": (0,)}, r"hidden must be a list of integers >= 1, got \(0,\)"),
    ("knn", {"kk": 3}, r"unknown key\(s\) \['kk'\]; expected some of \['k'\]"),
]


@pytest.mark.parametrize("kind, params, named", BAD_HYPERPARAMETERS,
                         ids=[f"{kind}-{name}={value!r}" for kind, params, _ in BAD_HYPERPARAMETERS
                              for name, value in params.items()])
def test_train_and_a_config_reject_a_bad_hyperparameter_alike(tmp_path, kind, params, named):
    """`attackers.train` and a config's `classifiers[i]` meet one rule per
    hyperparameter and raise one message; no value reaches a kernel."""
    rng = np.random.default_rng(25)
    X, y = rng.normal(size=(40, 12)), np.repeat(["a", "b"], 20)
    with pytest.raises(ConfigError, match=rf"^classifier '{kind}': {named}$") as direct:
        attackers.train(kind, X, y, **params)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "mic_onoff", "burst_sizes": [100],
                                "classifiers": [{"kind": "knn"}, {"kind": kind, **params}]}))
    with pytest.raises(ConfigError) as loaded:
        load_config(path)
    assert str(loaded.value) == f"classifiers[1]: {direct.value}"


@pytest.mark.parametrize("kind", attackers.CLASSIFIER_KINDS)
def test_train_checks_its_seed_and_hands_it_only_to_fits_that_draw(kind, monkeypatch):
    """`seed` is a hook of `train`, no hyperparameter: every kind checks it,
    a forest's and an MLP's fit get it, and the others' fits never see it;
    as a config key it is unknown."""
    rng = np.random.default_rng(26)
    X, y = rng.normal(size=(40, 12)), np.repeat(["a", "b"], 20)
    for bad in (-1, 1.5, True):
        with pytest.raises(ConfigError, match=rf"^seed must be an integer >= 0, got {bad!r}$"):
            attackers.train(kind, X, y, seed=bad)
    fit, predict = attackers._KINDS[kind]
    seen = []

    @functools.wraps(fit)  # keeps the signature `train` reads its hooks off
    def spy(*args, **kwargs):
        seen.append(kwargs.get("seed"))
        return fit(*args, **kwargs)

    monkeypatch.setitem(attackers._KINDS, kind, (spy, predict))
    attackers.train(kind, X, y, seed=9)
    assert seen == [9 if kind in ("forest", "mlp") else None]
    with pytest.raises(ConfigError, match=r"^classifier '\w+': unknown key\(s\) \['seed'\]"):
        ClassifierSpec(kind, {"seed": 9})


@pytest.mark.parametrize("n_classes", [3, 12])
def test_labels_and_their_codes_split_and_train_alike(n_classes):
    """Class order is the labels' value order, one `np.unique` for split and
    train: string labels and their codes give the same rows and predictions.
    With 12 classes `c10` sorts before `c2`, yet code 10 sorts after code 2."""
    rng = np.random.default_rng(n_classes)
    labels = np.repeat([f"c{i}" for i in range(n_classes)], 6 + np.arange(n_classes))
    labels = labels.astype(object)
    classes, codes = np.unique(labels, return_inverse=True)
    X = rng.normal(size=(labels.size, 12)) + codes[:, None]
    train_idx, test_idx = split(labels, 0.7, 4)
    for by_label, by_code in zip((train_idx, test_idx), split(codes, 0.7, 4)):
        assert np.array_equal(by_label, by_code)
    train_seed = cell_seeds(0)[1]  # fit_cell's seed of cell 0
    for kind, params in (("knn", {}), ("tree", {}), ("forest", {"n_trees": 5}),
                         ("adaboost", {"rounds": 5}), ("mlp", {"epochs": 3})):
        by_label = attackers.train(kind, X[train_idx], labels[train_idx], seed=train_seed, **params)
        by_code = attackers.train(kind, X[train_idx], codes[train_idx], seed=train_seed, **params)
        assert np.array_equal(by_label.classes, classes)
        assert np.array_equal(by_code.classes, np.arange(n_classes))
        predicted = attackers.predict(by_code, X[test_idx])
        assert list(attackers.predict(by_label, X[test_idx])) == [classes[c] for c in predicted]
        assert attackers.evaluate(by_label, X[test_idx], labels[test_idx]) == attackers.evaluate(
            by_code, X[test_idx], codes[test_idx])
        spec = ClassifierSpec(kind, params)
        cell_votes = fit_cell(X, codes, spec, train_idx, test_idx, 0)
        assert np.array_equal(fit_cell(X, labels, spec, train_idx, test_idx, 0), cell_votes)
        assert score_cell([cell_votes], codes[test_idx]) == attackers.evaluate(
            by_label, X[test_idx], labels[test_idx])


CELL_PARAMS = {
    "knn": {"k": 3},
    "forest": {"n_trees": 6},
    "adaboost": {"rounds": 6},
    "mlp": {"epochs": 5},
}


# each kind's own predicted codes, which its one-hot votes must hold
KERNEL_PREDICT = {"knn": predict_knn, "tree": predict_tree, "adaboost": predict_adaboost,
                  "mlp": predict_mlp}


@pytest.mark.parametrize("kind", attackers.CLASSIFIER_KINDS)
def test_fit_cell_returns_the_predictions_of_its_one_fit(kind, monkeypatch):
    """Every kind in the table: `fit_cell` fits once on the train rows, with
    the train seed `cell_seeds(cell_seed)[1]`, and returns that model's
    votes on the test rows, for labels and codes alike: a (test rows,
    classes) int64 matrix whose rows are the one-hot of the kind's own
    prediction, or sum to a forest's tree count, and whose first-max column
    is `attackers.predict`'s class."""
    rng = np.random.default_rng(24)
    X, labels = blobs(rng, 20, [("a", 0.0), ("b", 1.5), ("c", 3.0)], spread=1.0)
    codes = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    spec = ClassifierSpec(kind, CELL_PARAMS.get(kind, {}))
    split_seed, train_seed = cell_seeds(31)
    train_idx, test_idx = split(codes, 0.7, split_seed)
    real_train = attackers.train
    for y in (labels, codes):
        fits = []
        monkeypatch.setattr(attackers, "train", lambda *a, **k: (
            fits.append((a[0], k.get("seed"))) or real_train(*a, **k)))
        got = fit_cell(X, y, spec, train_idx, test_idx, 31)
        monkeypatch.setattr(attackers, "train", real_train)
        assert fits == [(kind, train_seed)]
        model = attackers.train(kind, X[train_idx], y[train_idx], seed=train_seed,
                                **CELL_PARAMS.get(kind, {}))
        assert got.dtype == np.int64 and got.shape == (test_idx.size, 3)
        assert np.array_equal(got, attackers.votes(model, X[test_idx]))
        if kind == "forest":
            assert np.all(got.sum(axis=1) == CELL_PARAMS["forest"]["n_trees"])
        else:
            codes_of_kind = KERNEL_PREDICT[kind](model.params,
                                                 model.standardizer.transform(X[test_idx]))
            assert np.array_equal(got, np.eye(3, dtype=np.int64)[codes_of_kind])
        assert np.array_equal(model.classes[got.argmax(axis=1)],
                              attackers.predict(model, X[test_idx]))
