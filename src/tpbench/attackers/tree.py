"""CART decision tree: binary axis-aligned splits maximizing Gini decrease.

A tree grows until every leaf is pure or no cut of its rows gains: it has
no depth limit and no minimum leaf size, and so no hyperparameters.
Candidate thresholds are midpoints of sorted distinct feature values. All
ties break deterministically: lowest feature index, then lowest threshold,
and leaf majorities fall back to the lowest class index.
A forest tree grows on the distinct rows of its bootstrap draw, weighted by
multiplicity, and is node for node the tree of the repeated rows.

The split search cumsums a class-major tally, (classes + 1, rows), into one
buffer for both sides of every cut; its gains keep the bits of a
cut-by-cut search, which sums classes over a trailing axis (`_best_split`).

A fitted tree is five flat node arrays (`TreeParams`), root first; a node
that splits gives its children the next two free ids, left then right.
`predict_tree` moves all rows still on a split node down one level per step.
A forest (int64 weights 1) and AdaBoost (float64 alphas, depth-1 trees) are
each a `TreeEnsemble`, whose one vote loop is `ensemble_votes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MIN_GAIN = 1e-12  # guards against float-noise splits


@dataclass
class TreeParams:
    feature: np.ndarray  # per node id; -1 marks a leaf
    threshold: np.ndarray  # a row whose feature value is <= threshold goes left
    klass: np.ndarray  # a leaf's class; -1 at a split node
    left: np.ndarray  # child node ids; -1 at a leaf
    right: np.ndarray


@dataclass
class TreeEnsemble:
    trees: list[TreeParams]
    weights: np.ndarray  # one per tree; its dtype is the votes'
    n_classes: int


def cut_threshold(low, high):
    """The threshold between sorted values low < high (elementwise): their
    midpoint, or low where the float midpoint rounds onto high, so that
    low <= threshold < high."""
    mid = (low + high) / 2.0
    return np.where(mid >= high, low, mid)


def _best_split(XT, idx, tally, counts, gini, feature_ids):
    """Best split of the rows `idx` of a node with class weights and size
    `counts` and Gini impurity `gini`, or None.

    One pass over all candidate features: a sort of the (k, n) candidate
    matrix, then the class-major tally `tally` (C + 1, rows) taken in that
    order and its cumulative sum give every cut's left class counts and
    size. Both sides of every cut share one (2, C + 1, k, n - 1) buffer, the
    right side as `counts` less the left in one subtract, so one divide, one
    square and one class sum give both sides' Gini. Gains are scored on the
    whole (k, n - 1) cut grid; a cut counts only where the sorted value steps
    up. Row weights are positive integers, so each side of a cut weighs at
    least 1. Returns (feature, threshold, (left, right)), each child as
    (rows, counts, gini), its counts a copy.

    The gains have the bits of a sum over a trailing class axis. Below 8
    classes numpy adds a trailing class axis left to right, and so does the
    sum over the leading class axis here. From 8 classes on numpy adds a
    trailing axis pairwise, so the squares are first copied to a trailing
    class axis. The sort need not be stable: tied rows never straddle a
    cut, and counts of integer weights are exact in any order.
    """
    features = feature_ids[:, None]
    rows = idx[XT[features, idx].argsort(axis=1)]
    xs = XT[features, rows]
    # [side, class then size, f, c]: cut after sorted row c
    sides = np.empty((2, counts.size, rows.shape[0], rows.shape[1] - 1))
    left = sides[0]
    tally.take(rows[:, :-1], axis=1, out=left)
    np.add.accumulate(left, axis=-1, out=left)
    np.subtract(counts[:, None, None], left, out=sides[1])
    sizes = sides[:, -1]
    squares = sides[:, :-1] / sides[:, -1:]
    squares *= squares
    if squares.shape[1] < 8:
        gini_sides = np.add.reduce(squares, axis=1)
    else:
        gini_sides = np.add.reduce(np.moveaxis(squares, 1, -1).copy(), axis=-1)
    np.subtract(1.0, gini_sides, out=gini_sides)
    weighted = sizes * gini_sides
    gains = weighted[0] + weighted[1]
    gains /= counts[-1]
    np.subtract(gini, gains, out=gains)
    # not-greater rather than <=, so that a NaN value never opens a cut
    gains[~(xs[:, 1:] > xs[:, :-1])] = -np.inf
    f, c = divmod(int(gains.argmax()), gains.shape[1])  # first max: lowest feature, then cut
    if gains[f, c] <= _MIN_GAIN:
        return None
    low, high = float(xs[f, c]), float(xs[f, c + 1])
    mid = (low + high) / 2.0  # cut_threshold's rule, on Python floats
    # low <= threshold < high, so the left child is exactly the first c + 1 rows.
    # Row order inside a node does not matter: the class counts at a cut
    # between distinct values are the same for any order of tied rows.
    return int(feature_ids[f]), low if mid >= high else mid, (
        (rows[f, : c + 1], left[:, f, c].copy(), float(gini_sides[0, f, c])),
        (rows[f, c + 1 :], sides[1, :, f, c].copy(), float(gini_sides[1, f, c])),
    )


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
    weights: np.ndarray | None = None,
) -> TreeParams:
    """Grow a tree on encoded labels until its leaves are pure or no cut
    gains. The keyword-only rng and features_per_split, no config keys,
    enable the per-split random feature subsets used by the forest; `weights`
    (default all ones), also no config key, are positive integer row
    multiplicities."""
    n_features = X.shape[1]
    XT = np.ascontiguousarray(X.T)
    tally = np.zeros((n_classes + 1, y.size))  # weighted one-hot labels, then the weight
    tally[-1] = 1.0 if weights is None else weights
    tally[y, np.arange(y.size)] = tally[-1]
    all_features = np.arange(n_features)
    draws = rng is not None and bool(features_per_split) and features_per_split < n_features
    blank = (-1, 0.0, -1, -1, -1)  # a new node: a leaf keeps its split blank, a split its class
    columns = feature, threshold, klass, left, right = [[value] for value in blank]
    counts = tally.sum(axis=1)
    gini = 1.0 - float(np.add.reduce((counts[:-1] / counts[-1]) ** 2))
    stack = [(0, np.arange(y.size), counts, gini)]
    while stack:
        node, idx, counts, gini = stack.pop()
        *class_counts, size = counts.tolist()
        majority = class_counts.index(max(class_counts))
        if class_counts[majority] == size:  # pure, as a node of one row is
            klass[node] = majority
            continue
        if draws:
            feature_ids = rng.choice(n_features, size=features_per_split, replace=False)
            feature_ids.sort()
        else:
            feature_ids = all_features
        found = _best_split(XT, idx, tally, counts, gini, feature_ids)
        if found is None:
            klass[node] = majority
            continue
        feature[node], threshold[node], (left_rows, right_rows) = found
        left[node], right[node] = len(feature), len(feature) + 1
        for column, value in zip(columns, blank):
            column += (value, value)
        # push right first so the left child is expanded first (keeps the
        # rng consumption order deterministic for forest trees)
        stack.append((right[node], *right_rows))
        stack.append((left[node], *left_rows))
    return TreeParams(*map(np.array, columns))


def predict_tree(params: TreeParams, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    while (rows := rows[params.feature[node[rows]] >= 0]).size:  # rows still on a split node
        at = node[rows]
        goes_left = X[rows, params.feature[at]] <= params.threshold[at]
        node[rows] = np.where(goes_left, params.left[at], params.right[at])
    return params.klass[node]


def ensemble_votes(params: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """(rows, classes) sum, tree by tree, of each tree's weight at its class."""
    votes = np.zeros((X.shape[0], params.n_classes), dtype=params.weights.dtype)
    rows = np.arange(X.shape[0])
    for tree, weight in zip(params.trees, params.weights):
        votes[rows, predict_tree(tree, X)] += weight
    return votes
