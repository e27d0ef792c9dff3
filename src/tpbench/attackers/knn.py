"""k-nearest-neighbors on standardized features.

Majority vote among the k nearest training rows by Euclidean distance;
vote ties go to the class with the smaller summed distance, then to the
lowest class index. Distance ties at the k-boundary resolve by training-row
order (stable sort), matching the brute-force oracle used in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KnnParams:
    train_x: np.ndarray
    train_y: np.ndarray
    k: int


def fit_knn(X: np.ndarray, y: np.ndarray, k: int) -> KnnParams:
    if k <= 0:
        raise ValueError("k must be positive")
    if k > X.shape[0]:
        raise ValueError(f"k={k} exceeds training size {X.shape[0]}")
    return KnnParams(
        train_x=np.asarray(X, dtype=np.float64),
        train_y=np.asarray(y, dtype=np.int64),
        k=k,
    )


# Element budget of one query block's (queries, train rows, features)
# difference array: 512 KiB of float64.
BLOCK_ELEMENTS = 1 << 16


def block_rows(n_train: int, n_features: int) -> int:
    """Queries per block under BLOCK_ELEMENTS (at least one)."""
    return max(1, BLOCK_ELEMENTS // max(1, n_train * n_features))


def predict_knn(params: KnnParams, X: np.ndarray, n_classes: int) -> np.ndarray:
    """Predicts a block of queries at a time. A row keeps the block's one-hot
    vote only when exactly k training rows lie at or below its k-th distance
    and one class leads; every other row is decided by `_vote`."""
    X = np.asarray(X, dtype=np.float64)
    train_x, k = params.train_x, params.k
    onehot = np.eye(n_classes, dtype=np.int64)[params.train_y]
    out = np.empty(X.shape[0], dtype=np.int64)
    step = block_rows(*train_x.shape)
    for lo in range(0, X.shape[0], step):
        diff = train_x[None] - X[lo : lo + step, None]
        sq = np.sum(np.square(diff, out=diff), axis=2)
        part = np.argpartition(sq, k - 1, axis=1)
        kth = np.take_along_axis(sq, part[:, k - 1 : k], axis=1)
        votes = onehot[part[:, :k]].sum(axis=1)
        top = votes.max(axis=1, keepdims=True)
        exact = (np.count_nonzero(sq <= kth, axis=1) == k) & (
            np.count_nonzero(votes == top, axis=1) == 1
        )
        block = votes.argmax(axis=1)
        for row in np.flatnonzero(~exact):
            block[row] = _vote(params, sq[row], n_classes)
        out[lo : lo + step] = block
    return out


def _vote(params: KnnParams, sq: np.ndarray, n_classes: int) -> int:
    """One query's class from its squared distances to every training row."""
    nearest = np.argsort(sq, kind="stable")[: params.k]
    votes = np.bincount(params.train_y[nearest], minlength=n_classes)
    tied = np.nonzero(votes == votes.max())[0]
    if tied.size == 1:
        return int(tied[0])
    dists = np.sqrt(sq[nearest])
    sums = np.full(n_classes, np.inf)
    for cls in tied:
        sums[cls] = float(np.sum(dists[params.train_y[nearest] == cls]))
    return int(np.argmin(sums))  # first min = lowest class index
