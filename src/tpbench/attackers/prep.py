"""Shared training plumbing: standardization and the stratified split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")


def split(y, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test row indices.

    Per class, round(fraction * n) rows go to train (clamped so both splits
    stay non-empty); the per-class shuffle is drawn from the spec seed with
    the classes in value order, so the split is a pure function of (labels,
    spec), and labels and their `np.unique` codes split alike.
    """
    classes, codes = np.unique(y, return_inverse=True)
    rng = np.random.default_rng(spec.seed)
    train_parts, test_parts = [], []
    for c, cls in enumerate(classes.tolist()):
        idx = np.flatnonzero(codes == c)
        if idx.size < 2:
            raise ValueError(f"class {cls!r} has {idx.size} row(s); need at least 2")
        perm = idx[rng.permutation(idx.size)]
        n_train = int(round(spec.train_fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    return np.concatenate(train_parts), np.concatenate(test_parts)
