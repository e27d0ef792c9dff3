"""Random forest: bagged CART trees with per-split random feature subsets.

As in Breiman (2001), every tree grows to purity on its own bootstrap draw
and each split picks among ceil(sqrt(F)) of the F features, drawn afresh.
A tree grows on the distinct rows of its draw, weighted by multiplicity,
which is node for node the tree of the drawn rows. The trees grow in
lockstep (`grow_trees`), at most `GROUP_TREES` at once: at each step every
tree pops the next node of its own depth-first order and draws its
features from its own rng, so each tree's draws, node ids and splits are
those of the tree grown alone. A node's size alone picks its search: the
step's nodes of at most `SMALL_NODE_ROWS` rows share one split search of
at most `SEARCH_ELEMENTS` values, and larger ones keep the per-row sort.
A cut's threshold is the midpoint of the values either side, or the lower
value where that midpoint rounds onto the upper one, overflows or is NaN
(`cut_threshold`). The forest is a `TreeEnsemble` of int64 weights 1: its
`ensemble_votes` are tree counts."""

from __future__ import annotations

import numpy as np

from tpbench.attackers.tree import TreeEnsemble, grow_trees
from tpbench.rules import check, part_of_range
from tpbench.seeding import derive_seed


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_trees: int = 100,
    *,
    seed: int = 0,
    trees: range | None = None,
) -> TreeEnsemble:
    """Each tree gets a seed derived from `seed` for its bootstrap resample
    and feature subsets, so the forest is reproducible and trees are
    order-independent. `trees`, like `seed` keyword-only and so no config
    key, grows only those tree indices of the n_trees (default all); as a
    forest's votes are the sum of its trees' votes, forests grown on
    disjoint ranges sum to the whole one (`ensemble_votes`)."""
    trees = range(n_trees) if trees is None else trees
    check(trees, part_of_range(n_trees), "trees")

    def bootstrap(i):
        rng = np.random.default_rng(derive_seed(seed, "tree", trees[i]))
        return np.bincount(rng.integers(0, y.size, size=y.size), minlength=y.size), rng

    grown = grow_trees(X, y, n_classes, len(trees), bootstrap, int(np.ceil(np.sqrt(X.shape[1]))))
    return TreeEnsemble(grown, np.ones(len(grown), dtype=np.int64), n_classes)
