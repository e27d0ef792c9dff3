"""CART decision tree: binary axis-aligned splits maximizing Gini decrease.

Candidate thresholds are midpoints of sorted distinct feature values. All
ties break deterministically: lowest feature index, then lowest threshold,
and leaf majorities fall back to the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MIN_GAIN = 1e-12  # guards against float-noise splits


@dataclass
class TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    klass: int = -1
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class TreeParams:
    root: TreeNode
    n_classes: int


def cut_threshold(low, high):
    """The threshold between sorted values low < high (elementwise): their
    midpoint, or low where the float midpoint rounds onto high, so that
    low <= threshold < high."""
    mid = (low + high) / 2.0
    return np.where(mid >= high, low, mid)


def _best_split(XT, idx, onehot, counts, feature_ids, min_leaf):
    """Best split of the rows `idx`, or None.

    One pass over all candidate features: a stable sort of the (k, n)
    candidate matrix and one cumulative sum of the one-hot labels taken in
    that order give the left class counts at every cut. Gains are evaluated
    only where the sorted value steps up and both sides keep min_leaf rows.
    Returns (feature, threshold, left rows, right rows, left class counts).
    """
    n = idx.size
    parent_gini = 1.0 - float(np.add.reduce((counts / n) ** 2))
    features = feature_ids[:, None]
    rows = idx[XT[features, idx].argsort(axis=1, kind="stable")]
    xs = XT[features, rows]
    valid = xs[:, 1:] > xs[:, :-1]  # column p-1 is the cut before sorted row p
    valid[:, : min_leaf - 1] = False
    valid[:, n - min_leaf :] = False
    col, row = np.nonzero(valid)  # feature-major, positions ascending
    if col.size == 0:
        return None
    left_counts = onehot[rows].cumsum(axis=1)[col, row]
    n_left = row + 1.0
    n_right = n - n_left
    gini_left = 1.0 - np.add.reduce((left_counts / n_left[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.add.reduce(
        ((counts - left_counts) / n_right[:, None]) ** 2, axis=1
    )
    gains = parent_gini - (n_left * gini_left + n_right * gini_right) / n
    j = gains.argmax()  # first max = lowest feature, then lowest threshold
    if gains[j] <= _MIN_GAIN:
        return None
    f, p = col[j], row[j] + 1
    threshold = cut_threshold(xs[f, p - 1], xs[f, p])
    # xs[f, p - 1] <= threshold < xs[f, p], so the left child is exactly the first p rows.
    # Row order inside a node does not matter: the class counts at a cut
    # between distinct values are the same for any order of tied rows.
    return int(feature_ids[f]), float(threshold), rows[f, :p], rows[f, p:], left_counts[j]


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: int | None = None,
    min_leaf: int = 1,
    *,
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
) -> TreeParams:
    """Grow a tree on encoded labels. The keyword-only rng and
    features_per_split, no config keys, enable the per-split random feature
    subsets used by the forest."""
    n_features = X.shape[1]
    XT = np.ascontiguousarray(X.T)
    onehot = np.zeros((y.size, n_classes))
    onehot[np.arange(y.size), y] = 1.0
    all_features = np.arange(n_features)
    root = TreeNode()
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    stack = [(root, np.arange(y.size), counts, 0)]
    while stack:
        node, idx, counts, depth = stack.pop()
        majority = int(counts.argmax())
        if (
            counts[majority] == idx.size  # pure
            or (max_depth is not None and depth >= max_depth)
            or idx.size < 2 * min_leaf
        ):
            node.klass = majority
            continue
        if rng is not None and features_per_split and features_per_split < n_features:
            feature_ids = rng.choice(n_features, size=features_per_split, replace=False)
            feature_ids.sort()
        else:
            feature_ids = all_features
        found = _best_split(XT, idx, onehot, counts, feature_ids, min_leaf)
        if found is None:
            node.klass = majority
            continue
        node.feature, node.threshold, left, right, left_counts = found
        node.left = TreeNode()
        node.right = TreeNode()
        # push right first so the left child is expanded first (keeps the
        # rng consumption order deterministic for forest trees)
        stack.append((node.right, right, counts - left_counts, depth + 1))
        stack.append((node.left, left, left_counts, depth + 1))
    return TreeParams(root=root, n_classes=n_classes)


def predict_tree(params: TreeParams, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(params.root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.klass
            continue
        goes_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[goes_left]))
        stack.append((node.right, idx[~goes_left]))
    return out
