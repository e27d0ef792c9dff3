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


def split(y, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test row indices.

    Per class, round(train_fraction * n) rows go to train (clamped so both
    splits stay non-empty); the per-class shuffle is drawn from `seed` with
    the classes in value order, so the split is a pure function of (labels,
    train_fraction, seed), and labels and their `np.unique` codes split alike.
    """
    check(train_fraction, FRACTION, "train_fraction")
    classes, codes = np.unique(y, return_inverse=True)
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for c, cls in enumerate(classes.tolist()):
        idx = np.flatnonzero(codes == c)
        if idx.size < 2:
            raise ValueError(f"class {cls!r} has {idx.size} row(s); need at least 2")
        perm = idx[rng.permutation(idx.size)]
        n_train = int(round(train_fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    return np.concatenate(train_parts), np.concatenate(test_parts)
