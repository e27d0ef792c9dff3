"""Random forest: bagged CART trees with per-split random feature subsets.

As in Breiman (2001), every tree grows to purity on its own bootstrap draw
and each split picks among ceil(sqrt(F)) of the F features, drawn afresh.
A tree grows on the distinct rows of its draw, weighted by multiplicity,
which is node for node the tree of the drawn rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tpbench.attackers.tree import TreeParams, fit_tree, predict_tree
from tpbench.rules import check, part_of_range
from tpbench.seeding import derive_seed


@dataclass
class ForestParams:
    trees: list[TreeParams]
    n_classes: int


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_trees: int = 100,
    *,
    seed: int = 0,
    trees: range | None = None,
) -> ForestParams:
    """Each tree gets a seed derived from `seed` for its bootstrap resample
    and feature subsets, so the forest is reproducible and trees are
    order-independent. `trees`, like `seed` keyword-only and so no config
    key, grows only those tree indices of the n_trees (default all); as a
    forest's votes are the sum of its trees' votes, forests grown on
    disjoint ranges sum to the whole one (`forest_votes`)."""
    trees = range(n_trees) if trees is None else trees
    check(trees, part_of_range(n_trees), "trees")
    features_per_split = int(np.ceil(np.sqrt(X.shape[1])))
    grown = []
    for t in trees:
        rng = np.random.default_rng(derive_seed(seed, "tree", t))
        weights = np.bincount(rng.integers(0, y.size, size=y.size), minlength=y.size)
        rows = np.flatnonzero(weights)
        grown.append(fit_tree(X[rows], y[rows], n_classes, rng=rng,
                              features_per_split=features_per_split, weights=weights[rows]))
    return ForestParams(trees=grown, n_classes=n_classes)


def forest_votes(params: ForestParams, X: np.ndarray) -> np.ndarray:
    """(rows, classes) int64 count of the trees that vote for each class."""
    votes = np.zeros((X.shape[0], params.n_classes), dtype=np.int64)
    for tree in params.trees:
        pred = predict_tree(tree, X)
        votes[np.arange(X.shape[0]), pred] += 1
    return votes
