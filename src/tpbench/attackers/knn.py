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
    n_classes: int


def fit_knn(X: np.ndarray, y: np.ndarray, n_classes: int, k: int = 5) -> KnnParams:
    if k <= 0:
        raise ValueError("k must be positive")
    if k > X.shape[0]:
        raise ValueError(f"k={k} exceeds training size {X.shape[0]}")
    return KnnParams(
        train_x=np.asarray(X, dtype=np.float64),
        train_y=np.asarray(y, dtype=np.int64),
        k=k,
        n_classes=n_classes,
    )


# Multiply-adds of one query block's screen matmul. OpenBLAS runs a gemm this
# small on one thread, so forked sweep workers do not compete for the CPUs
# with BLAS helper threads.
BLOCK_ELEMENTS = 1 << 18

_FINFO = np.finfo(np.float64)
# Below this ‖x‖² + max ‖t‖², no screen value or exact distance overflows.
_SCALE_LIMIT = _FINFO.max / 8


def block_rows(n_train: int, n_features: int) -> int:
    """Queries per block under BLOCK_ELEMENTS (at least one)."""
    return max(1, BLOCK_ELEMENTS // max(1, n_train * n_features))


def predict_knn(params: KnnParams, X: np.ndarray) -> np.ndarray:
    """Exact kNN through a matmul screen, a block of queries at a time.

    The screen ranks training rows t by s = ‖t‖² - 2·x·t, which is the
    squared distance less ‖x‖², with one matmul per block. With m features,
    s and the exact distance less ‖x‖² each differ from the true value by
    at most (m + 2)·eps·S to first order, plus 2m subnormals from underflow,
    where S = ‖x‖² + max ‖t‖²; so delta = (4m + 16)·(eps·S + smallest
    subnormal) bounds their gap with room for the rounding of the bound
    itself. A row whose s exceeds the k-th smallest s by more than 2·delta is
    then farther, exactly, than each of the k rows the screen ranked nearest:
    the remaining candidates hold every row at or below the exact k-th
    distance, ties included. Only the candidates get exact distances, with
    the reference's expression, and sort by (query, distance, training row).
    A query whose S is not below _SCALE_LIMIT (huge, infinite or nan
    entries) takes every training row as a candidate."""
    X = np.asarray(X, dtype=np.float64)
    train_x, k = params.train_x, params.k
    n_train, n_features = train_x.shape
    slack = 4 * n_features + 16
    with np.errstate(over="ignore", invalid="ignore"):
        tt = np.einsum("ij,ij->i", train_x, train_x)
        tt_max = tt.max()
        neg2t = -2.0 * np.ascontiguousarray(train_x.T)  # row-major: the faster gemm
    near = np.empty((X.shape[0], k), dtype=np.int64)
    near_sq = np.empty((X.shape[0], k))
    step = block_rows(n_train, n_features)
    for lo in range(0, X.shape[0], step):
        Xb = X[lo : lo + step]
        with np.errstate(over="ignore", invalid="ignore"):
            screen = Xb @ neg2t
            screen += tt
            scale = np.einsum("ij,ij->i", Xb, Xb) + tt_max
            bound = np.partition(screen, k - 1, axis=1)[:, k - 1]
            bound += 2 * slack * (_FINFO.eps * scale + _FINFO.smallest_subnormal)
            cand = screen <= bound[:, None]
        cand[~(scale < _SCALE_LIMIT)] = True
        rows, cols = np.divmod(np.flatnonzero(cand), n_train)
        sq = np.sum(np.square(train_x[cols] - Xb[rows]), axis=1)
        order = np.lexsort((sq, rows))  # stable: equal distances keep row order
        counts = np.bincount(rows, minlength=Xb.shape[0])
        first = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        near[lo : lo + step] = cols[first]
        near_sq[lo : lo + step] = sq[first]
    return _elect(params, near, near_sq)


def _elect(params: KnnParams, near: np.ndarray, near_sq: np.ndarray) -> np.ndarray:
    """Each query's class from its k nearest training rows (nearest first)
    and their squared distances."""
    n_classes = params.n_classes
    seg = params.train_y[near] + n_classes * np.arange(near.shape[0])[:, None]
    votes = np.bincount(seg.ravel(), minlength=near.shape[0] * n_classes)
    votes = votes.reshape(-1, n_classes)
    lead = votes == votes.max(axis=1, keepdims=True)
    # Summed distance per (query, class): np.sum over the class's neighbours
    # in nearest order, as the reference sums them, so float ties break
    # alike. Segments of one length sum as the rows of one matrix.
    order = np.argsort(seg, axis=None, kind="stable")
    dists = np.sqrt(near_sq).ravel()[order]
    ids, starts, lengths = np.unique(seg.ravel()[order], return_index=True, return_counts=True)
    sums = np.full(votes.size, np.inf)
    for length in np.unique(lengths):
        at = lengths == length
        sums[ids[at]] = np.sum(dists[starts[at, None] + np.arange(length)], axis=1)
    sums = np.where(lead, sums.reshape(votes.shape), np.inf)
    # A single leading class wins outright; a tie goes to the first least sum.
    return np.where(lead.sum(axis=1) == 1, votes.argmax(axis=1), sums.argmin(axis=1))
