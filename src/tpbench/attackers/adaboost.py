"""Multi-class AdaBoost (SAMME) over depth-1 decision stumps.

Round weight alpha = ln((1 - eps) / eps) + ln(K - 1); with K = 2 this is the
classic two-class AdaBoost weight. eps is floored at 1e-10 and boosting
halts early when the best stump is no better than random guessing
(eps >= 1 - 1/K). The fit is a `TreeEnsemble` of each round's stump as a
depth-1 tree at weight alpha, scored by `ensemble_votes` in round order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tpbench.attackers.tree import (
    TreeEnsemble,
    TreeParams,
    cut_threshold,
    ensemble_votes,
    predict_tree,
)

EPS_FLOOR = 1e-10


def _leaf(klass: int) -> TreeParams:
    """The one-node tree predicting `klass` for every row."""
    return TreeParams(*map(np.array, ([-1], [0.0], [klass], [-1], [-1])))


def _stump(feature: int, threshold: float, left_class: int, right_class: int) -> TreeParams:
    """The depth-1 tree predicting left_class where x[feature] <= threshold."""
    return TreeParams(*map(np.array, ([feature, -1, -1], [threshold, 0.0, 0.0],
                                      [-1, left_class, right_class], [1, -1, -1], [2, -1, -1])))


@dataclass
class _Cuts:
    """What the stump search needs of the fixed training set, found once per
    fit: each feature's stable order, the labels in that order, and every cut
    between distinct sorted values, listed feature by feature in ascending
    threshold order."""

    orders: np.ndarray  # (features, rows) stable argsort of each column
    sorted_onehot: np.ndarray  # (K, features, rows) one-hot labels in each order
    left_rows: np.ndarray  # (cuts,) flat (feature, rows) index of a cut's last left row
    thresholds: np.ndarray  # (cuts,)
    features: np.ndarray  # (cuts,)
    bounds: list[int]  # cuts of feature f are bounds[f]:bounds[f + 1]

    @classmethod
    def of(cls, X: np.ndarray, y: np.ndarray, n_classes: int) -> "_Cuts":
        n, n_features = X.shape
        orders = np.argsort(X.T, axis=1, kind="stable")
        xs = np.take_along_axis(X.T, orders, axis=1)
        features, positions = np.nonzero(xs[:, 1:] > xs[:, :-1])
        thresholds = cut_threshold(xs[features, positions], xs[features, positions + 1])
        sorted_y = y[orders]
        return cls(
            orders=orders,
            sorted_onehot=np.stack([sorted_y == k for k in range(n_classes)]).astype(np.float64),
            left_rows=features * n + positions,
            thresholds=thresholds,
            features=features,
            bounds=np.searchsorted(features, np.arange(n_features + 1)).tolist(),
        )


def _best_stump(cuts: _Cuts, y: np.ndarray, w: np.ndarray, n_classes: int) -> TreeParams:
    """Stump minimizing weighted 0-1 error; ties break on lowest feature
    index, then lowest threshold. Leaf classes are weighted majorities."""
    totals = np.bincount(y, weights=w, minlength=n_classes)
    # per class and feature, the running weight of the rows in sorted order
    cum = np.cumsum(cuts.sorted_onehot * w[cuts.orders], axis=2)
    left = np.take(cum.reshape(n_classes, -1), cuts.left_rows, axis=1)  # (K, cuts)
    right = totals[:, None] - left
    err = totals.sum() - left.max(axis=0) - right.max(axis=0)
    best_err = np.inf
    best = -1
    for lo, hi in zip(cuts.bounds[:-1], cuts.bounds[1:]):
        if lo == hi:
            continue
        j = lo + int(np.argmin(err[lo:hi]))  # first min = lowest threshold
        if err[j] < best_err - 1e-15:
            best_err = float(err[j])
            best = j
    if best < 0:  # every feature constant: predict the weighted majority
        return _leaf(int(np.argmax(totals)))
    return _stump(int(cuts.features[best]), float(cuts.thresholds[best]),
                  int(np.argmax(left[:, best])), int(np.argmax(right[:, best])))


def fit_adaboost(
    X: np.ndarray, y: np.ndarray, n_classes: int, rounds: int = 50
) -> TreeEnsemble:
    if n_classes < 2:
        raise ValueError("boosting needs at least 2 classes")

    n = y.size
    w = np.full(n, 1.0 / n)
    stumps, alphas = [], []
    cuts = _Cuts.of(X, y, n_classes)  # X is fixed across rounds; only the weights change
    for _ in range(rounds):
        stump = _best_stump(cuts, y, w, n_classes)
        incorrect = predict_tree(stump, X) != y
        eps = float(w @ incorrect)
        if eps >= 1.0 - 1.0 / n_classes - 1e-12:
            break  # no better than random: halt without recording
        eps_floored = max(eps, EPS_FLOOR)
        alpha = float(np.log((1.0 - eps_floored) / eps_floored) + np.log(n_classes - 1))
        stumps.append(stump)
        alphas.append(alpha)
        if eps <= EPS_FLOOR:
            break  # perfect stump: nothing left to reweight
        w = w * np.exp(alpha * incorrect)
        w /= w.sum()
    if not stumps:  # no round: the training majority (first-max) at weight 1.0
        stumps, alphas = [_leaf(int(np.argmax(np.bincount(y, minlength=n_classes))))], [1.0]
    return TreeEnsemble(stumps, np.array(alphas), n_classes)


def predict_adaboost(params: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    return np.argmax(ensemble_votes(params, X), axis=1)
