"""Multi-class AdaBoost (SAMME) over depth-1 decision stumps.

Round weight alpha = ln((1 - eps) / eps) + ln(K - 1); with K = 2 this is the
classic two-class AdaBoost weight. eps is floored at 1e-10 and boosting
halts early when the best stump is no better than random guessing
(eps >= 1 - 1/K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tpbench.attackers.tree import cut_threshold

EPS_FLOOR = 1e-10


@dataclass
class Stump:
    feature: int  # -1 means a constant stump (no usable split existed)
    threshold: float
    left_class: int  # prediction for x[feature] <= threshold; also the
    right_class: int  # constant prediction when feature == -1


@dataclass
class AdaBoostParams:
    stumps: list[Stump]
    alphas: list[float]
    fallback_class: int
    n_classes: int


def _predict_stump(stump: Stump, X: np.ndarray) -> np.ndarray:
    if stump.feature < 0:
        return np.full(X.shape[0], stump.left_class, dtype=np.int64)
    goes_left = X[:, stump.feature] <= stump.threshold
    return np.where(goes_left, stump.left_class, stump.right_class).astype(np.int64)


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


def _best_stump(cuts: _Cuts, y: np.ndarray, w: np.ndarray, n_classes: int) -> Stump:
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
        majority = int(np.argmax(totals))
        return Stump(feature=-1, threshold=0.0, left_class=majority, right_class=majority)
    return Stump(
        feature=int(cuts.features[best]),
        threshold=float(cuts.thresholds[best]),
        left_class=int(np.argmax(left[:, best])),
        right_class=int(np.argmax(right[:, best])),
    )


def fit_adaboost(
    X: np.ndarray, y: np.ndarray, n_classes: int, rounds: int = 50
) -> AdaBoostParams:
    if n_classes < 2:
        raise ValueError("boosting needs at least 2 classes")

    n = y.size
    w = np.full(n, 1.0 / n)
    fallback = int(np.argmax(np.bincount(y, minlength=n_classes)))
    params = AdaBoostParams(
        stumps=[], alphas=[], fallback_class=fallback, n_classes=n_classes
    )
    cuts = _Cuts.of(X, y, n_classes)  # X is fixed across rounds; only the weights change
    for _ in range(rounds):
        stump = _best_stump(cuts, y, w, n_classes)
        pred = _predict_stump(stump, X)
        incorrect = pred != y
        eps = float(w @ incorrect)
        if eps >= 1.0 - 1.0 / n_classes - 1e-12:
            break  # no better than random: halt without recording
        eps_floored = max(eps, EPS_FLOOR)
        alpha = float(np.log((1.0 - eps_floored) / eps_floored) + np.log(n_classes - 1))
        params.stumps.append(stump)
        params.alphas.append(alpha)
        if eps <= EPS_FLOOR:
            break  # perfect stump: nothing left to reweight
        w = w * np.exp(alpha * incorrect)
        w /= w.sum()
    return params


def predict_adaboost(params: AdaBoostParams, X: np.ndarray) -> np.ndarray:
    if not params.stumps:
        return np.full(X.shape[0], params.fallback_class, dtype=np.int64)
    scores = np.zeros((X.shape[0], params.n_classes))
    for stump, alpha in zip(params.stumps, params.alphas):
        pred = _predict_stump(stump, X)
        scores[np.arange(X.shape[0]), pred] += alpha
    return np.argmax(scores, axis=1)
