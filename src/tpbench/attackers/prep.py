"""Shared training plumbing: standardization and the stratified split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tpbench.rules import FRACTION, check

STD_FLOOR = 1e-9


@dataclass
class Standardizer:
    """Per-feature (x - mean) / std with std floored at STD_FLOOR."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=np.float64)
        return cls(
            mean=np.mean(X, axis=0),
            std=np.maximum(np.std(X, axis=0), STD_FLOOR),
        )

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


def class_codes(y) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(y, return_inverse=True)`: the sorted distinct labels and each
    row's code into them. Fewer than 2 classes, or a class of fewer than 2
    rows (the first in label order is named), raises ValueError: no
    stratified split exists, and with one class every prediction would score 1.0."""
    classes, codes = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ValueError(f"only class(es) {classes.tolist()} present; need at least 2 classes")
    counts = np.bincount(codes, minlength=classes.size)
    if (short := np.flatnonzero(counts < 2)).size:
        c = short[0]
        raise ValueError(f"class {classes.tolist()[c]!r} has {counts[c]} row(s); need at least 2")
    return classes, codes


def split(y, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test row indices.

    Per class, round(train_fraction * n) rows go to train (clamped so both
    splits stay non-empty); the per-class shuffle is drawn from `seed` with
    the classes in value order, so the split is a pure function of (labels,
    train_fraction, seed), and labels and their `class_codes` split alike.
    `class_codes` raises where the labels give no split.
    """
    check(train_fraction, FRACTION, "train_fraction")
    classes, codes = class_codes(y)
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for c in range(classes.size):
        idx = np.flatnonzero(codes == c)
        perm = idx[rng.permutation(idx.size)]
        n_train = int(round(train_fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    return np.concatenate(train_parts), np.concatenate(test_parts)
