"""CART decision tree: binary axis-aligned splits maximizing Gini decrease.

A tree grows until every leaf is pure or no cut of its rows gains: it has
no depth limit and no minimum leaf size, and so no hyperparameters.
Candidate thresholds are midpoints of sorted distinct feature values. All
ties break deterministically: lowest feature index, then lowest threshold,
and leaf majorities fall back to the lowest class index.
A forest tree grows on the distinct rows of its bootstrap draw, weighted by
multiplicity, and is node for node the tree of the repeated rows.

`grow_trees` grows a group of trees in lockstep, and `fit_tree` is its
one-tree case. At each step every tree pops the next node of its own
depth-first order and takes its next feature draw, so each tree's draws,
node ids and splits are those of the tree grown alone. A tree's draws are
those of `rng.choice`, after its first few taken `_DRAW_NODES` nodes at a
time (`_feature_draws`). A node of more than `SMALL_NODE_ROWS` rows is searched
alone (`_best_split`): one sort per feature row of its (features, rows)
matrix beats a flat sort of all its values. The step's smaller nodes,
which are most of a deep tree's nodes, share one search (`_best_splits`)
of at most `SEARCH_ELEMENTS` (node, feature, row) values, so the numpy
call overhead of a search is paid once per step, not once per node. A
node's size alone picks its search, however many nodes its step holds,
so a lone tree's small nodes take `_best_splits` too. At most `GROUP_TREES`
trees grow at once, all reading one transposed X and one class tally by
row id, each holding only its row weights, its draws and its depth-first
stack; so the memory of a fit does not grow with its number of trees. A
child that is pure when its parent splits becomes a leaf at once and is
never pushed.

Both searches cumsum a class-major tally, (classes + 1, values), into one
buffer for both sides of every cut and score it with one helper (`_gains`);
their gains keep the bits of a cut-by-cut search, which sums classes over a
trailing axis. Both take a cut's threshold from `cut_threshold`: the
midpoint of the values either side, or the lower value where the midpoint
does not lie in [low, high), as where it rounds onto the upper value,
overflows to an infinity, or is NaN between -inf and inf.

A fitted tree is five flat node arrays (`TreeParams`), root first; a node
that splits gives its children the next two free ids, left then right.
`predict_tree` moves all rows still on a split node down one level per step.
A forest (int64 weights 1) and AdaBoost (float64 alphas, depth-1 trees) are
each a `TreeEnsemble`, whose one vote loop is `ensemble_votes`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

_MIN_GAIN = 1e-12  # guards against float-noise splits
SMALL_NODE_ROWS = 64  # a node of at most this many rows joins its step's shared search
SEARCH_ELEMENTS = 8192  # the most (node, feature, row) values one shared search takes
GROUP_TREES = 64  # the most trees grown at once
_CHOICE_DRAWS = 8  # a tree's first draws call choice: a chunk pays from about this many on
_DRAW_NODES = 64  # a tree's later feature draws are taken this many nodes at a time
_BLANK = (-1, 0.0, -1, -1, -1)  # a new node: a leaf keeps its split blank, a split its class


@dataclass
class TreeParams:
    feature: np.ndarray  # per node id; -1 marks a leaf
    threshold: np.ndarray  # a row whose feature value is <= threshold goes left
    klass: np.ndarray  # a leaf's class; -1 at a split node
    left: np.ndarray  # child node ids; -1 at a leaf
    right: np.ndarray


@dataclass
class TreeEnsemble:
    trees: list[TreeParams]
    weights: np.ndarray  # one per tree; its dtype is the votes'
    n_classes: int


def cut_threshold(low, high):
    """The threshold between sorted values low < high (elementwise): their
    midpoint where low <= midpoint < high, else low, so that a row at low
    goes left and a row at high goes right. The midpoint misses that range
    where it rounds onto high, where the sum overflows (an infinity) and
    between -inf and inf (NaN); none of these warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (low + high) / 2.0
        return np.where((low <= mid) & (mid < high), mid, low)


def _gains(sides, size, gini):
    """Gini gain of every cut of `sides`, (2, C + 1, *cuts): the left then
    the right side's class weights and size. `size` and `gini` are the
    node's, one or one per cut. Returns (gains, gini_sides), the second
    (2, *cuts).

    One divide, one square and one class sum give both sides' Gini. The
    gains have the bits of a sum over a trailing class axis. Below 8
    classes numpy adds a trailing class axis left to right, and so does the
    sum over the leading class axis here. From 8 classes on numpy adds a
    trailing axis pairwise, so the squares are first copied to a trailing
    class axis."""
    squares = sides[:, :-1] / sides[:, -1:]
    squares *= squares
    if squares.shape[1] < 8:
        gini_sides = np.add.reduce(squares, axis=1)
    else:
        gini_sides = np.add.reduce(np.moveaxis(squares, 1, -1).copy(), axis=-1)
    np.subtract(1.0, gini_sides, out=gini_sides)
    weighted = sides[:, -1] * gini_sides
    gains = weighted[0] + weighted[1]
    gains /= size
    np.subtract(gini, gains, out=gains)
    return gains, gini_sides


def _best_split(XT, idx, tally, weights, counts, gini, feature_ids):
    """Best split of the rows `idx` of a node with class weights and size
    `counts` and Gini impurity `gini`, or None.

    One pass over all candidate features: a sort of the (k, n) candidate
    matrix, then the class-major tally (C + 1, rows) taken in that order,
    times the row `weights`, and its cumulative sum give every cut's left
    class weights and size. Both sides of every cut share one
    (2, C + 1, k, n - 1) buffer, the right side as `counts` less the left in
    one subtract. Gains are scored on the whole (k, n - 1) cut grid; a cut
    counts only where the sorted value steps up. Row weights are positive
    integers, so each side of a cut weighs at least 1. Returns (feature,
    threshold, (left, right)), each child as (rows, counts, gini).

    The sort need not be stable: tied rows never straddle a cut, and counts
    of integer weights are exact in any order.
    """
    features = feature_ids[:, None]
    rows = idx[XT[features, idx].argsort(axis=1)]
    xs = XT[features, rows]
    # [side, class then size, f, c]: cut after sorted row c
    sides = np.empty((2, counts.size, rows.shape[0], rows.shape[1] - 1))
    left = sides[0]
    tally.take(rows[:, :-1], axis=1, out=left)
    left *= weights[rows[:, :-1]]
    np.add.accumulate(left, axis=-1, out=left)
    np.subtract(counts[:, None, None], left, out=sides[1])
    gains, gini_sides = _gains(sides, counts[-1], gini)
    # not-greater rather than <=, so that a NaN value never opens a cut
    gains[~(xs[:, 1:] > xs[:, :-1])] = -np.inf
    f, c = divmod(int(gains.argmax()), gains.shape[1])  # first max: lowest feature, then cut
    if gains[f, c] <= _MIN_GAIN:
        return None
    # low <= threshold < high, so the left child is exactly the first c + 1 rows.
    # Row order inside a node does not matter: the class counts at a cut
    # between distinct values are the same for any order of tied rows.
    return int(feature_ids[f]), float(cut_threshold(xs[f, c], xs[f, c + 1])), (
        (rows[f, : c + 1].copy(), left[:, f, c].copy(), float(gini_sides[0, f, c])),
        (rows[f, c + 1 :].copy(), sides[1, :, f, c].copy(), float(gini_sides[1, f, c])),
    )


def _best_splits(XT, idx, tally, weights, offsets, counts, ginis, feature_ids):
    """`_best_split` of every node i, of rows `idx[i]`, with its tree's row
    weights at `weights[offsets[i]:]`, in one search. Every node has k
    feature ids.

    The values lie flat, node by node, then feature by feature: one segment
    of a node's rows per feature. One sort orders them by value and a
    stable radix sort of the segment ids puts each segment back in place,
    sorted. A tree's row weights are `weights[offset + row]`. The cumulative
    sum runs over all segments at once, and each segment start subtracts the
    segment before it, which sums to that segment's node counts, so every
    cut reads its own segment's left side exactly (integer weights). A cut
    after a segment's last value is masked with the cuts between tied
    values, and each node takes its first maximum: lowest feature, then
    lowest cut.
    """
    n = XT.shape[1]
    k = feature_ids[0].size
    sizes = np.array([rows.size for rows in idx])
    seg_sizes = np.repeat(sizes, k)
    seg_ends = np.cumsum(seg_sizes)
    seg_starts = seg_ends - seg_sizes
    # the narrowest ids that hold the segment count, so k too (a lone tree's
    # node has one segment per feature); up to 16 bits the stable sort is a radix sort
    seg = np.repeat(np.arange(seg_sizes.size, dtype=np.min_scalar_type(seg_sizes.size)), seg_sizes)
    node = seg // k
    rows = np.concatenate([rows for rows in idx for _ in range(k)])
    features = np.concatenate(feature_ids)[seg]
    xs = XT.take(features * n + rows)
    order = xs.argsort()
    order = order[seg[order].argsort(kind="stable")]
    rows, xs = rows[order], xs[order]

    counts = np.array(counts).T  # (C + 1, nodes)
    sides = np.empty((2, counts.shape[0], seg.size))  # [side, class then size, value]
    left = sides[0]
    tally.take(rows, axis=1, out=left)
    left *= weights[np.array(offsets)[node] + rows]
    left[:, seg_starts[1:]] -= np.repeat(counts, k, axis=1)[:, :-1]
    np.add.accumulate(left, axis=1, out=left)
    counts.take(node, axis=1, out=sides[1])
    sides[1] -= left
    with np.errstate(invalid="ignore"):  # a segment's last cut has an empty right side
        gains, gini_sides = _gains(sides, counts[-1].take(node), np.array(ginis)[node])
    opens = np.empty(seg.size, dtype=bool)
    np.greater(xs[1:], xs[:-1], out=opens[:-1])  # not-greater: NaN opens no cut
    opens[seg_ends - 1] = False
    gains[~opens] = -np.inf
    node_starts = seg_starts[::k]
    at = np.where(gains == np.maximum.reduceat(gains, node_starts)[node], np.arange(seg.size), seg.size)
    at = np.minimum.reduceat(at, node_starts)  # first max: lowest feature, then cut
    splits = gains[at] > _MIN_GAIN
    thresholds = cut_threshold(xs[at], xs[at + 1])
    left_counts, right_counts = left.T[at], sides[1].T[at]
    found = []
    for i, (split, f, threshold, start, cut, end, gini_left, gini_right) in enumerate(zip(
            splits.tolist(), features[at].tolist(), thresholds.tolist(), seg_starts[seg[at]].tolist(),
            (at + 1).tolist(), seg_ends[seg[at]].tolist(), *gini_sides[:, at].tolist())):
        found.append((f, threshold, (
            (rows[start:cut].copy(), left_counts[i], gini_left),
            (rows[cut:end].copy(), right_counts[i], gini_right),
        )) if split else None)
    return found


def _feature_draws(rng, n_features, k):
    """Each split's k feature ids, sorted, in turn: the draws of
    `np.sort(rng.choice(n_features, size=k, replace=False))`, call after
    call, from the same stream.

    `Generator.choice` without replacement takes Floyd's algorithm: for
    j = n - k, ..., n - 1 a bounded integer in [0, j], or j where that value
    is already taken; then it shuffles the k values with a bounded integer in
    [0, i] for i = k - 1, ..., 1. One `integers` call with those bounds,
    tiled for `_DRAW_NODES` nodes, draws the same integers in the same
    order, and the sort makes the shuffle's order moot. (Choice shuffles a
    tail of all n instead when n > 10,000 and k > n // 50, which a forest's
    k = ceil(sqrt(n)) never is.) A chunk costs about as much as
    `_CHOICE_DRAWS` calls of choice, so a tree's first draws, all that a
    shallow tree makes, are choice's own."""
    for _ in range(_CHOICE_DRAWS):
        yield np.sort(rng.choice(n_features, size=k, replace=False))
    first = n_features - k
    bounds = np.tile(np.r_[first:n_features, k - 1 : 0 : -1], _DRAW_NODES)
    while True:
        values = rng.integers(0, bounds, endpoint=True).reshape(_DRAW_NODES, -1)[:, :k]
        ids = values.copy()
        for c in range(1, k):
            taken = (values[:, c : c + 1] == ids[:, :c]).any(axis=1)
            ids[:, c] = np.where(taken, first + c, values[:, c])
        ids.sort(axis=1)
        yield from ids


class _Growing:
    """A tree being grown: its feature ids for each split in turn, the
    offset of its row weights, its five node columns and its depth-first
    stack of impure nodes, each as (node, rows, counts, gini, majority)."""

    __slots__ = ("features", "offset", "columns", "stack")

    def __init__(self, features, offset):
        self.features, self.offset, self.stack = features, offset, []
        self.columns = tuple(array("d" if isinstance(v, float) else "q", [v]) for v in _BLANK)

    def place(self, node, rows, counts, gini):
        """Make a new node a leaf if it is pure, as a node of one row is, or
        push it to be split."""
        *class_counts, size = counts.tolist()
        majority = class_counts.index(max(class_counts))
        if class_counts[majority] == size:
            self.columns[2][node] = majority
        else:
            self.stack.append((node, rows, counts, gini, majority))

    def settle(self, node, majority, found):
        """Make `node` a leaf of its majority class, or split it as found."""
        feature, threshold, klass, left, right = self.columns
        if found is None:
            klass[node] = majority
            return
        feature[node], threshold[node], (left_child, right_child) = found
        left[node], right[node] = len(feature), len(feature) + 1
        for column, value in zip(self.columns, _BLANK):
            column.extend((value, value))
        # place right first so the left child is expanded first (keeps the
        # rng consumption order deterministic for forest trees)
        self.place(right[node], *right_child)
        self.place(left[node], *left_child)


def grow_trees(X, y, n_classes, n_trees, start, features_per_split=None) -> list[TreeParams]:
    """Grow `n_trees` trees on encoded labels in lockstep, each until its
    leaves are pure or no cut gains. `start(t)` gives tree t's row weights,
    positive integers or zero for a row the tree does not hold, and its rng;
    with `features_per_split` below the feature count, each split searches
    that many features drawn from the rng (sorted, without replacement),
    else all of them."""
    n, n_features = X.shape
    XT = np.ascontiguousarray(X.T)
    tally = np.zeros((n_classes + 1, n))  # one-hot labels, then ones
    tally[-1] = 1.0
    tally[y, np.arange(n)] = 1.0
    draws = bool(features_per_split) and features_per_split < n_features
    all_features = np.arange(n_features)
    weights = np.empty(min(n_trees, GROUP_TREES) * n)  # one row of weights per growing tree
    free = list(range(0, weights.size, n))
    started, growing, grown = 0, {}, [None] * n_trees

    def search(batch):
        trees, nodes, majorities, idx, counts, ginis, feature_ids = zip(*batch)
        offsets = [tree.offset for tree in trees]
        found = _best_splits(XT, idx, tally, weights, offsets, counts, ginis, feature_ids)
        for tree, node, majority, split in zip(trees, nodes, majorities, found):
            tree.settle(node, majority, split)

    while True:
        while free and started < n_trees:
            w, rng = start(started)
            features = _feature_draws(rng, n_features, features_per_split) if draws else repeat(all_features)
            growing[started] = tree = _Growing(features, free.pop())
            started += 1
            tree_weights = weights[tree.offset : tree.offset + n]
            tree_weights[:] = w
            counts = tally @ tree_weights
            gini = 1.0 - float(np.add.reduce((counts[:-1] / counts[-1]) ** 2))
            tree.place(0, np.flatnonzero(w), counts, gini)
        for t in [t for t, tree in growing.items() if not tree.stack]:
            tree = growing.pop(t)
            free.append(tree.offset)
            grown[t] = TreeParams(*map(np.array, tree.columns))
        if not growing and started == n_trees:
            return grown
        batch, load = [], 0
        for tree in growing.values():
            node, idx, counts, gini, majority = tree.stack.pop()
            feature_ids = next(tree.features)
            if idx.size > SMALL_NODE_ROWS:
                tree.settle(node, majority, _best_split(
                    XT, idx, tally, weights[tree.offset : tree.offset + n], counts, gini, feature_ids))
                continue
            if batch and load + idx.size * feature_ids.size > SEARCH_ELEMENTS:
                search(batch)
                batch, load = [], 0
            batch.append((tree, node, majority, idx, counts, gini, feature_ids))
            load += idx.size * feature_ids.size
        if batch:
            search(batch)


def fit_tree(X: np.ndarray, y: np.ndarray, n_classes: int) -> TreeParams:
    """Grow a tree on encoded labels, every split searching every feature,
    until its leaves are pure or no cut gains."""
    return grow_trees(X, y, n_classes, 1, lambda _: (np.ones(y.size), None))[0]


def predict_tree(params: TreeParams, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    while (rows := rows[params.feature[node[rows]] >= 0]).size:  # rows still on a split node
        at = node[rows]
        goes_left = X[rows, params.feature[at]] <= params.threshold[at]
        node[rows] = np.where(goes_left, params.left[at], params.right[at])
    return params.klass[node]


def ensemble_votes(params: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """(rows, classes) sum, tree by tree, of each tree's weight at its class."""
    votes = np.zeros((X.shape[0], params.n_classes), dtype=params.weights.dtype)
    rows = np.arange(X.shape[0])
    for tree, weight in zip(params.trees, params.weights):
        votes[rows, predict_tree(tree, X)] += weight
    return votes
