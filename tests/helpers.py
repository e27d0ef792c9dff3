"""Shared test utilities: independent oracles, byte-level pcap builders,
`trace_from_packets`, which builds a trace from its `PacketRecord` rows, and
`worst_gradient_error`, which checks the MLP kernel's analytic gradients
(`loss_and_gradients`) against central finite differences.

The oracles here deliberately avoid the library's code paths: smoothing
weights come from exact rational arithmetic on the normal equations, feature
statistics from plain Python loops or from one window at a time (the
bit-exact oracle of the blocked extractor), nearest-neighbor votes from an
exhaustive scan or one query at a time, tree splits and boosting stumps from
a search over one feature at a time, tree predictions from a walk of one
node and its row subset at a time, AdaBoost scores from a loop over rounds
that reads each stump's threshold itself, MLP training from a loop that
allocates every array and updates each weight and bias array on its own, and
pcap parsing from a loop that decodes one record at a time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from tpbench.attackers.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BATCH_SIZE,
    MlpParams,
    TrainingDivergedError,
    _backprop,
    _hidden_buffers,
    _init_params,
)
from tpbench.attackers.tree import TreeParams
from tpbench.features import WindowSpec, _window_bounds
from tpbench.pcap import PcapFormatError, PcapStats, parse_global_header
from tpbench.seeding import derive_seed
from tpbench.traffic import (
    _COLUMN_DTYPES,
    ClassProfile,
    PacketRecord,
    Protocol,
    Trace,
    generate_trace,
)


# --- exact Savitzky-Golay oracle -------------------------------------------

def exact_savgol_weights(window: int, degree: int) -> list[float]:
    """Central smoothing weights via exact rational normal equations."""
    m = (window - 1) // 2
    size = degree + 1
    ata = [
        [sum(Fraction(k) ** (i + j) for k in range(-m, m + 1)) for j in range(size)]
        for i in range(size)
    ]
    rhs = [Fraction(1 if i == 0 else 0) for i in range(size)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(ata[r][col]))
        ata[col], ata[pivot] = ata[pivot], ata[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for row in range(col + 1, size):
            factor = ata[row][col] / ata[col][col]
            for c in range(col, size):
                ata[row][c] -= factor * ata[col][c]
            rhs[row] -= factor * rhs[col]
    coeffs = [Fraction(0)] * size
    for row in range(size - 1, -1, -1):
        acc = rhs[row] - sum(ata[row][k] * coeffs[k] for k in range(row + 1, size))
        coeffs[row] = acc / ata[row][row]
    return [
        float(sum(coeffs[j] * Fraction(i) ** j for j in range(size)))
        for i in range(-m, m + 1)
    ]


# --- brute-force feature oracle ---------------------------------------------

def brute_force_features(packets: list[PacketRecord]) -> dict[str, float]:
    """The 12 indicators recomputed with plain loops and math functions."""
    ips = {p.src_ip for p in packets} | {p.dst_ip for p in packets}
    ports: set[int] = set()
    for p in packets:
        if p.protocol in (Protocol.TCP, Protocol.UDP):
            ports.add(p.src_port)
            ports.add(p.dst_port)
    ports.discard(0)

    gaps = [b.timestamp - a.timestamp for a, b in zip(packets, packets[1:])]
    tcp_windows = [p.tcp_window for p in packets if p.protocol is Protocol.TCP]
    lengths = [p.length for p in packets]

    def mean(values):
        return sum(values) / len(values)

    def population_std(values):
        mu = mean(values)
        return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))

    return {
        "n_ip_unique": float(len(ips)),
        "n_port_unique": float(len(ports)),
        "n_pack_tcp": float(sum(p.protocol is Protocol.TCP for p in packets)),
        "n_pack_udp": float(sum(p.protocol is Protocol.UDP for p in packets)),
        "n_pack_icmp": float(sum(p.protocol is Protocol.ICMP for p in packets)),
        "max_diff_time": max(gaps),
        "mean_window": mean(tcp_windows) if tcp_windows else 0.0,
        "std_window": population_std(tcp_windows) if tcp_windows else 0.0,
        "mean_ipt": mean(gaps),
        "std_ipt": population_std(gaps),
        "mean_len_pack": mean(lengths),
        "std_len_pack": population_std(lengths),
    }


class FeatureVector(NamedTuple):
    n_ip_unique: float
    n_port_unique: float
    n_pack_tcp: float
    n_pack_udp: float
    n_pack_icmp: float
    max_diff_time: float
    mean_window: float
    std_window: float
    mean_ipt: float
    std_ipt: float
    mean_len_pack: float
    std_len_pack: float

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=np.float64)


def reference_timespan_bounds(trace: Trace, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (start, stop) packet indices of a time-span spec's non-empty windows,
    cut with one float64 bound k * dt per interval: the windows
    `_window_bounds` must match with memory per packet, not per interval."""
    times = trace.timestamps
    last = int(times[-1] // spec.size)
    if (last + 1) * spec.size <= times[-1]:  # a last packet on a bound `//` rounds down
        last += 1
    bounds = np.arange(last + 2, dtype=np.float64) * spec.size
    cuts = np.searchsorted(times, bounds, side="left")
    nonempty = cuts[1:] > cuts[:-1]
    return cuts[:-1][nonempty], cuts[1:][nonempty]


def window_packets(trace: Trace, spec: WindowSpec) -> list[tuple[int, int]]:
    """The (start, stop) packet ranges `extract_series` windows a trace into,
    before it drops the windows of fewer than 2 packets."""
    starts, stops = _window_bounds(trace, spec)
    return list(zip(starts.tolist(), stops.tolist()))


def compute_features(trace: Trace, index_range: tuple[int, int]) -> FeatureVector:
    """The 12 indicators over packets[start:stop], one numpy reduction per
    feature: the per-window computation `extract_series` must match bit for
    bit. The range must hold >= 2 packets, all inside the trace: numpy would
    silently clip a range that runs past the end."""
    start, stop = index_range
    n_packets = trace.timestamps.size
    if start < 0 or stop > n_packets:
        raise ValueError(
            f"window range ({start}, {stop}) lies outside the trace of {n_packets} packets"
        )
    if stop - start < 2:
        raise ValueError("window must contain at least 2 packets")
    ts = trace.timestamps[start:stop]
    proto = trace.protocols[start:stop]
    tcp = proto == Protocol.TCP
    udp = proto == Protocol.UDP

    ips = np.union1d(trace.src_ip[start:stop], trace.dst_ip[start:stop])
    ported = tcp | udp  # port 0 means "no port"
    sport = trace.src_port[start:stop][ported]
    dport = trace.dst_port[start:stop][ported]
    ports = np.union1d(sport, dport)

    gaps = np.diff(ts)
    tcp_windows = trace.tcp_window[start:stop][tcp]
    if tcp_windows.size:
        mean_window = float(np.mean(tcp_windows))
        std_window = float(np.std(tcp_windows))
    else:
        mean_window = std_window = 0.0

    lengths = trace.lengths[start:stop]
    return FeatureVector(
        n_ip_unique=float(ips.size),
        n_port_unique=float(np.count_nonzero(ports)),  # drop port 0 if present
        n_pack_tcp=float(np.count_nonzero(tcp)),
        n_pack_udp=float(np.count_nonzero(udp)),
        n_pack_icmp=float(np.count_nonzero(proto == Protocol.ICMP)),
        max_diff_time=float(np.max(gaps)),
        mean_window=mean_window,
        std_window=std_window,
        mean_ipt=float(np.mean(gaps)),
        std_ipt=float(np.std(gaps)),
        mean_len_pack=float(np.mean(lengths)),
        std_len_pack=float(np.std(lengths)),
    )


def trace_from_packets(packets: list[PacketRecord], label: str, trace_id: str = "") -> Trace:
    """A trace built from its rows, each column in PacketRecord field order."""
    columns = {
        name: [getattr(p, field.name) for p in packets]
        for name, field in zip(_COLUMN_DTYPES, fields(PacketRecord))
    }
    return Trace(**columns, label=label, trace_id=trace_id)


def random_small_trace(
    rng: np.random.Generator, max_packets: int = 50, min_packets: int = 2
) -> Trace:
    """Random trace exercising all protocols, shared ports, zero-port cases."""
    n = int(rng.integers(min_packets, max_packets + 1))
    t = 0.0
    packets = []
    for _ in range(n):
        t = round(t + float(rng.uniform(1e-4, 0.8)), 6)
        proto = (Protocol.TCP, Protocol.UDP, Protocol.ICMP, Protocol.OTHER)[
            int(rng.integers(0, 4))
        ]
        ported = proto in (Protocol.TCP, Protocol.UDP)
        packets.append(
            PacketRecord(
                timestamp=t,
                length=int(rng.integers(40, 1515)),
                protocol=proto,
                src_ip=int(rng.integers(1, 8)),
                dst_ip=int(rng.integers(1, 8)),
                src_port=int(rng.integers(1, 2000)) if ported else 0,
                dst_port=int(rng.integers(1, 2000)) if ported else 0,
                tcp_window=int(rng.integers(0, 65536)) if proto is Protocol.TCP else 0,
            )
        )
    return trace_from_packets(packets, label="rand")


# --- exhaustive kNN oracle ---------------------------------------------------

def knn_oracle(train_x, train_labels, classes, k, query) -> str:
    """Majority over the k nearest by an all-pairs scan; vote ties by smaller
    summed distance, then class order. Distance ties keep training-row order."""
    scored = []
    for i, row in enumerate(train_x):
        d2 = sum((a - b) ** 2 for a, b in zip(row, query))
        scored.append((d2, i))
    scored.sort(key=lambda pair: pair[0])  # stable: equal distances keep row order
    nearest = scored[:k]
    votes: dict[str, int] = {}
    sums: dict[str, float] = {}
    for d2, i in nearest:
        label = str(train_labels[i])
        votes[label] = votes.get(label, 0) + 1
        sums[label] = sums.get(label, 0.0) + math.sqrt(d2)
    top = max(votes.values())
    tied = [c for c in classes if votes.get(c, 0) == top]
    return min(tied, key=lambda c: (sums[c], classes.index(c)))


def reference_predict_knn(params, X) -> np.ndarray:
    """kNN predict one query at a time: full stable argsort of its squared
    distances, majority of the first k, vote ties by smaller summed distance,
    then lowest class index."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.int64)
    for row, query in enumerate(X):
        sq = np.sum((params.train_x - query) ** 2, axis=1)
        nearest = np.argsort(sq, kind="stable")[: params.k]
        votes = np.bincount(params.train_y[nearest], minlength=params.n_classes)
        top = votes.max()
        tied = np.nonzero(votes == top)[0]
        if tied.size == 1:
            out[row] = tied[0]
            continue
        dists = np.sqrt(sq[nearest])
        sums = np.full(params.n_classes, np.inf)
        for cls in tied:
            sums[cls] = float(np.sum(dists[params.train_y[nearest] == cls]))
        out[row] = int(np.argmin(sums))  # first min = lowest class index
    return out


# --- per-feature CART oracle -------------------------------------------------

def reference_best_split(X, y, parent_counts, feature_ids):
    """The split search one feature at a time: sort, cumulative class counts,
    Gini gain at every cut between distinct values. Ties go to the first
    feature searched, then the lowest threshold."""
    n = y.size
    n_classes = parent_counts.size
    parent_gini = 1.0 - float(np.sum((parent_counts / n) ** 2))
    best_gain = 1e-12
    best = None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for f in feature_ids:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        positions = np.nonzero(xs[1:] > xs[:-1])[0] + 1
        if positions.size == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        left_counts = cum[positions - 1]
        n_left = positions.astype(np.float64)
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum(
            ((parent_counts - left_counts) / n_right[:, None]) ** 2, axis=1
        )
        gains = parent_gini - (n_left * gini_left + n_right * gini_right) / n
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            low, high = float(xs[positions[j] - 1]), float(xs[positions[j]])
            threshold = (low + high) / 2.0
            # a midpoint that rounds onto high, overflows or is nan (-inf to inf) gives low
            if not low <= threshold < high:
                threshold = low
            best_gain = float(gains[j])
            best = (best_gain, int(f), float(threshold))
    return best


def reference_fit_tree(X, y, n_classes, *, rng=None, features_per_split=None) -> TreeParams:
    """Depth-first CART growth to purity that recounts classes at every node
    and draws the forest's feature subset (if any) before each split search:
    a node is a leaf when its rows are one class or no cut gains. Node rows
    are dicts; a split node's children take the next two ids, left then right."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_features = X.shape[1]

    def new_node():
        return {"feature": -1, "threshold": 0.0, "klass": -1, "left": -1, "right": -1}

    nodes = [new_node()]
    stack = [(0, np.arange(y.size))]
    while stack:
        i, idx = stack.pop()
        node = nodes[i]
        counts = np.bincount(y[idx], minlength=n_classes)
        majority = int(np.argmax(counts))
        if counts[majority] == idx.size:
            node["klass"] = majority
            continue
        if rng is not None and features_per_split and features_per_split < n_features:
            feature_ids = np.sort(rng.choice(n_features, size=features_per_split, replace=False))
        else:
            feature_ids = np.arange(n_features)
        found = reference_best_split(X[idx], y[idx], counts.astype(np.float64), feature_ids)
        if found is None:
            node["klass"] = majority
            continue
        _, node["feature"], node["threshold"] = found
        goes_left = X[idx, node["feature"]] <= node["threshold"]
        node["left"], node["right"] = len(nodes), len(nodes) + 1
        nodes += [new_node(), new_node()]
        stack.append((node["right"], idx[~goes_left]))
        stack.append((node["left"], idx[goes_left]))
    return TreeParams(**{key: np.array([node[key] for node in nodes]) for key in nodes[0]})


def reference_predict_tree(params: TreeParams, X) -> np.ndarray:
    """Each row's leaf class by a walk of one node and its row subset at a time."""
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if params.feature[node] < 0:
            out[idx] = params.klass[node]
            continue
        goes_left = X[idx, params.feature[node]] <= params.threshold[node]
        stack.append((params.left[node], idx[goes_left]))
        stack.append((params.right[node], idx[~goes_left]))
    return out


def tree_arrays(params: TreeParams) -> list:
    """A tree's five node arrays as lists, which compare with ==."""
    return [array.tolist() for array in vars(params).values()]


# --- per-feature boosting stump oracle ---------------------------------------

def reference_best_stump(X, y, w, n_classes) -> TreeParams:
    """Stump minimizing weighted 0-1 error, sorting each feature on every
    call; ties break on lowest feature index, then lowest threshold. It is
    a split node and two leaves, or one leaf of the weighted majority when
    every feature is constant."""
    n = y.size
    totals = np.bincount(y, weights=w, minlength=n_classes)
    best_err = np.inf
    best = TreeParams(*map(np.array, ([-1], [0.0], [int(np.argmax(totals))], [-1], [-1])))
    weighted = np.zeros((n, n_classes))
    weighted[np.arange(n), y] = w
    for f in range(X.shape[1]):
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        positions = np.nonzero(xs[1:] > xs[:-1])[0] + 1
        if positions.size == 0:
            continue
        cum = np.cumsum(weighted[order], axis=0)
        left = cum[positions - 1]
        right = totals - left
        err = totals.sum() - left.max(axis=1) - right.max(axis=1)
        j = int(np.argmin(err))
        if err[j] < best_err - 1e-15:
            low, high = xs[positions[j] - 1], xs[positions[j]]
            threshold = (low + high) / 2.0
            if threshold >= high:
                threshold = low
            best_err = float(err[j])
            best = TreeParams(
                feature=np.array([f, -1, -1]),
                threshold=np.array([float(threshold), 0.0, 0.0]),
                klass=np.array([-1, int(np.argmax(left[j])), int(np.argmax(right[j]))]),
                left=np.array([1, -1, -1]),
                right=np.array([2, -1, -1]),
            )
    return best


def reference_boosted_scores(params, X) -> np.ndarray:
    """(rows, classes) float64 scores of a fitted AdaBoost model by the
    per-round loop: each round's stump sends a row with X[:, f] <= t to its
    left class, else to its right (a leaf to its one class), and that
    class's score takes += alpha, round by round."""
    scores = np.zeros((X.shape[0], params.n_classes))
    for stump, alpha in zip(params.trees, params.weights.tolist()):
        if stump.feature[0] < 0:
            predicted = np.full(X.shape[0], stump.klass[0])
        else:
            goes_left = X[:, stump.feature[0]] <= stump.threshold[0]
            predicted = np.where(goes_left, stump.klass[stump.left[0]], stump.klass[stump.right[0]])
        scores[np.arange(X.shape[0]), predicted] += alpha
    return scores


# --- per-array MLP training oracle -------------------------------------------

def _reference_loss_and_gradients(weights, biases, X, targets_onehot):
    activations = [X]
    for W, b in zip(weights[:-1], biases[:-1]):
        X = np.maximum(X @ W + b, 0.0)
        activations.append(X)
    logits = X @ weights[-1] + biases[-1]
    n = activations[0].shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    loss = -float(np.sum(targets_onehot * log_probs)) / n
    delta = (np.exp(log_probs) - targets_onehot) / n
    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = activations[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0.0)
    return loss, grad_w, grad_b


def loss_and_gradients(weights, biases, X, targets_onehot):
    """Mean cross-entropy over the batch and its gradients, by the training
    step's own kernel (`_backprop`) with freshly allocated buffers."""
    X = np.asarray(X, dtype=np.float64)
    grad_w = [np.empty_like(W) for W in weights]
    grad_b = [np.empty_like(b) for b in biases]
    hidden = _hidden_buffers(X.shape[0], weights)
    deltas = _hidden_buffers(X.shape[0], weights)
    loss = _backprop(weights, biases, X, targets_onehot, hidden, deltas, grad_w, grad_b)
    return loss, grad_w, grad_b


def worst_gradient_error(weights, biases, X, targets_onehot, h: float) -> float:
    """The largest relative gap between `loss_and_gradients`' analytic
    gradient and the central difference (loss(w + h) - loss(w - h)) / 2h,
    over every weight and bias whose larger side is at least 1e-7. Each
    entry is moved in place and put back."""
    _, grad_w, grad_b = loss_and_gradients(weights, biases, X, targets_onehot)
    worst = 0.0
    for arrays, grads in ((weights, grad_w), (biases, grad_b)):
        for array, grad in zip(arrays, grads):
            it = np.nditer(array, flags=["multi_index"])
            for _ in it:
                index = it.multi_index
                saved = array[index]
                array[index] = saved + h
                up, _, _ = loss_and_gradients(weights, biases, X, targets_onehot)
                array[index] = saved - h
                down, _, _ = loss_and_gradients(weights, biases, X, targets_onehot)
                array[index] = saved
                numeric = (up - down) / (2 * h)
                analytic = grad[index]
                if max(abs(numeric), abs(analytic)) >= 1e-7:
                    worst = max(
                        worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic))
                    )
    return worst


def reference_fit_mlp(
    X, y, n_classes, hidden=(64, 64), epochs=200, learning_rate=1e-3, seed=0
) -> MlpParams:
    """Mini-batch Adam with a fresh gather per batch and one m/v/parameter
    update per weight and bias array."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    weights, biases = _init_params(rng, [X.shape[1], *hidden, n_classes])
    onehot = np.zeros((y.size, n_classes))
    onehot[np.arange(y.size), y] = 1.0
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step = 0
    curve = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            perm = rng.permutation(y.size)
            epoch_loss = 0.0
            for start in range(0, y.size, BATCH_SIZE):
                rows = perm[start : start + BATCH_SIZE]
                loss, grad_w, grad_b = _reference_loss_and_gradients(
                    weights, biases, X[rows], onehot[rows]
                )
                epoch_loss += loss * rows.size
                step += 1
                correction1 = 1.0 - ADAM_BETA1**step
                correction2 = 1.0 - ADAM_BETA2**step
                for layer in range(len(weights)):
                    for param, grad, m, v in (
                        (weights[layer], grad_w[layer], m_w[layer], v_w[layer]),
                        (biases[layer], grad_b[layer], m_b[layer], v_b[layer]),
                    ):
                        m *= ADAM_BETA1
                        m += (1.0 - ADAM_BETA1) * grad
                        v *= ADAM_BETA2
                        v += (1.0 - ADAM_BETA2) * grad**2
                        param -= learning_rate * (m / correction1) / (
                            np.sqrt(v / correction2) + ADAM_EPS
                        )
            epoch_loss /= y.size
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
            curve.append(epoch_loss)
    return MlpParams(weights=weights, biases=biases, loss_curve=curve)


# --- alternating-burst traces -------------------------------------------------
#
# Traces whose class identity lives purely in high-frequency alternation.
# All classes share one base packet stream per trace index (common random
# numbers); each class then shifts its designated feature by +/-delta in
# alternating blocks of seg_packets packets. Burst windows of the same size
# see a per-window square wave in that feature, while every other column is
# bit-identical across classes, so no incidental low-frequency signal (trace-
# level sampling noise) can stand in for the class label.

def exact_count_trace(profile: ClassProfile, n_packets: int, seed: int) -> Trace:
    duration = (n_packets + 6.0 * math.sqrt(n_packets) + 10.0) / profile.rate
    trace = generate_trace(profile, duration, seed)
    while trace.timestamps.size < n_packets:
        duration *= 1.5
        trace = generate_trace(profile, duration, seed)
    return replace(trace, **{name: getattr(trace, name)[:n_packets] for name in _COLUMN_DTYPES})


def apply_alternation(
    base: Trace, seg_packets: int, field: str | None, delta: float, label: str
) -> Trace:
    """Class variant of `base`: +/-delta on `field` in alternating blocks.

    field is "length", "window", or None (control class, unmodified stream).
    """
    n = base.timestamps.size
    sign = np.where((np.arange(n) // seg_packets) % 2 == 0, 1.0, -1.0)
    lengths, windows = base.lengths, base.tcp_window
    if field == "length":
        lengths = np.clip(lengths + sign * delta, 40, 1514).astype(np.int64)
    elif field == "window":
        shifted = np.clip(windows + sign * delta, 0, 65535).astype(np.int64)
        windows = np.where(base.protocols == Protocol.TCP, shifted, windows)
    return replace(base, lengths=lengths, tcp_window=windows, label=label,
                   trace_id=f"{label}-{base.trace_id}")


def alternating_burst_dataset(
    base_profile: ClassProfile,
    class_fields: dict[str, tuple[str | None, float]],
    traces_per_class: int,
    n_segments: int,
    seg_packets: int,
    seed: int,
) -> list[Trace]:
    """One alternating-burst dataset: class -> (field, delta) spec."""
    traces = []
    for k in range(traces_per_class):
        base = replace(exact_count_trace(
            base_profile, n_segments * seg_packets, derive_seed(seed, "base", k)
        ), trace_id=f"base-{k}")
        for label, (field, delta) in class_fields.items():
            traces.append(apply_alternation(base, seg_packets, field, delta, label))
    return traces


# --- per-record pcap oracle --------------------------------------------------

_GLOBAL_HEADER_LEN = 24
_RECORD_HEADER_LEN = 16
_ETHERTYPE_IPV4 = 0x0800
_VLAN_ETHERTYPES = (0x8100, 0x88A8)
_IP_PROTO = {6: Protocol.TCP, 17: Protocol.UDP, 1: Protocol.ICMP}


def _decode_frame(frame: bytes) -> tuple[Protocol, int, int, int, int, int]:
    """(protocol, src_ip, dst_ip, src_port, dst_port, tcp_window) from one
    Ethernet frame; OTHER with zeroed fields when not decodable IPv4."""
    other = (Protocol.OTHER, 0, 0, 0, 0, 0)
    if len(frame) < 14:
        return other
    ethertype = struct.unpack(">H", frame[12:14])[0]
    offset = 14
    while ethertype in _VLAN_ETHERTYPES:
        if len(frame) < offset + 4:
            return other
        ethertype = struct.unpack(">H", frame[offset + 2 : offset + 4])[0]
        offset += 4
    if ethertype != _ETHERTYPE_IPV4 or len(frame) < offset + 20:
        return other

    ip = frame[offset:]
    version_ihl = ip[0]
    if version_ihl >> 4 != 4:
        return other
    header_len = (version_ihl & 0x0F) * 4
    if header_len < 20 or len(ip) < header_len:
        return other
    proto = _IP_PROTO.get(ip[9])
    if proto is None:
        return other
    src_ip = struct.unpack(">I", ip[12:16])[0]
    dst_ip = struct.unpack(">I", ip[16:20])[0]
    frag_offset = struct.unpack(">H", ip[6:8])[0] & 0x1FFF
    if frag_offset != 0:  # non-first fragment: no L4 header present
        return (proto, src_ip, dst_ip, 0, 0, 0)

    l4 = ip[header_len:]
    if proto is Protocol.ICMP:
        return (proto, src_ip, dst_ip, 0, 0, 0)
    if proto is Protocol.TCP:
        if len(l4) < 16:  # window field needs the first 16 bytes
            return (proto, src_ip, dst_ip, 0, 0, 0)
        src_port, dst_port = struct.unpack(">HH", l4[0:4])
        window = struct.unpack(">H", l4[14:16])[0]
        return (proto, src_ip, dst_ip, src_port, dst_port, window)
    if len(l4) < 4:
        return (proto, src_ip, dst_ip, 0, 0, 0)
    src_port, dst_port = struct.unpack(">HH", l4[0:4])
    return (proto, src_ip, dst_ip, src_port, dst_port, 0)


def reference_parse_pcap_with_stats(
    data: bytes, label: str, trace_id: str = ""
) -> tuple[Trace, PcapStats]:
    """`parse_pcap_with_stats` one record at a time: each record header is
    unpacked, each frame sliced and decoded field by field, and the packets
    are sorted as Python tuples. It does not check sub-second fields."""
    header = parse_global_header(data)
    stats = PcapStats()
    subsec_unit = 1_000_000_000 if header.nanosecond else 1_000_000
    record_fmt = header.byte_order + "IIII"

    raw: list[tuple[int, int, int, int, int, int, int, int, int]] = []
    pos = _GLOBAL_HEADER_LEN
    while pos < len(data):
        if pos + _RECORD_HEADER_LEN > len(data):
            stats.truncated_records += 1
            break
        ts_sec, ts_sub, incl_len, orig_len = struct.unpack(
            record_fmt, data[pos : pos + _RECORD_HEADER_LEN]
        )
        pos += _RECORD_HEADER_LEN
        if pos + incl_len > len(data):
            stats.truncated_records += 1
            break
        frame = data[pos : pos + incl_len]
        pos += incl_len
        proto, src_ip, dst_ip, src_port, dst_port, window = _decode_frame(frame)
        if proto is Protocol.OTHER:
            stats.unrecognized_packets += 1
        raw.append(
            (ts_sec, ts_sub, orig_len, proto, src_ip, dst_ip, src_port, dst_port, window)
        )

    if not raw:
        raise PcapFormatError("capture contains no decodable packets")

    max_seen = None
    for ts_sec, ts_sub, *_ in raw:
        key = (ts_sec, ts_sub)
        if max_seen is not None and key < max_seen:
            stats.reordered_packets += 1
        elif max_seen is None or key > max_seen:
            max_seen = key
    raw.sort(key=lambda rec: (rec[0], rec[1]))  # stable: equal stamps keep order

    ts_sec, ts_sub, *columns = (np.array(column, dtype=np.int64) for column in zip(*raw))
    rel = (ts_sec - ts_sec[0]) + (ts_sub - ts_sub[0]) / subsec_unit
    digits = 9 if header.nanosecond else 6
    # round(), not np.round: np.round scales by 10**digits first, which can
    # land one ulp away from the correctly rounded value.
    timestamps = [round(t, digits) for t in rel.tolist()]
    stats.packets = len(raw)
    trace = Trace(timestamps, *columns, label=label, trace_id=trace_id)
    return trace, stats


def assert_same_parse(got: tuple[Trace, PcapStats], expected: tuple[Trace, PcapStats]) -> None:
    """Equal stats, trace metadata and every column in dtype and bytes."""
    (trace, stats), (want, want_stats) = got, expected
    assert stats == want_stats
    assert (trace.label, trace.trace_id) == (want.label, want.trace_id)
    for name in _COLUMN_DTYPES:
        column, want_column = getattr(trace, name), getattr(want, name)
        assert column.dtype == want_column.dtype, name
        assert column.tobytes() == want_column.tobytes(), name


# --- pcap fixture builders ---------------------------------------------------

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D


def ipv4_frame(
    protocol: Protocol,
    src_ip: int,
    dst_ip: int,
    src_port: int = 0,
    dst_port: int = 0,
    tcp_window: int = 0,
    payload: bytes = b"",
    vlan: bool = False,
) -> bytes:
    """Hand-built Ethernet/IPv4 frame with a minimal L4 header."""
    if protocol is Protocol.TCP:
        l4 = struct.pack(">HHIIBBHHH", src_port, dst_port, 0, 0, 5 << 4, 0,
                         tcp_window, 0, 0)
        proto_num = 6
    elif protocol is Protocol.UDP:
        l4 = struct.pack(">HHHH", src_port, dst_port, 8 + len(payload), 0)
        proto_num = 17
    elif protocol is Protocol.ICMP:
        l4 = struct.pack(">BBHI", 8, 0, 0, 0)
        proto_num = 1
    else:
        raise ValueError("use raw bytes for non-IP frames")
    total_len = 20 + len(l4) + len(payload)
    ip = struct.pack(
        ">BBHHHBBHII", 0x45, 0, total_len, 1, 0, 64, proto_num, 0, src_ip, dst_ip
    ) + l4 + payload
    ether = b"\x02" * 6 + b"\x04" * 6
    if vlan:
        return ether + struct.pack(">HH", 0x8100, 100) + struct.pack(">H", 0x0800) + ip
    return ether + struct.pack(">H", 0x0800) + ip


def raw_frame(ethertype: int, payload: bytes = b"\x00" * 20) -> bytes:
    return b"\x02" * 6 + b"\x04" * 6 + struct.pack(">H", ethertype) + payload


def build_pcap(
    records: list[tuple[float, bytes]],
    byte_order: str = "<",
    nanos: bool = False,
    snaplen: int = 65535,
    orig_lengths: list[int] | None = None,
) -> bytes:
    """Classic pcap bytes: (timestamp seconds, frame) records, Ethernet link."""
    magic = MAGIC_NANOS if nanos else MAGIC_MICROS
    unit = 1_000_000_000 if nanos else 1_000_000
    blob = struct.pack(byte_order + "IHHiIII", magic, 2, 4, 0, 0, snaplen, 1)
    for idx, (ts, frame) in enumerate(records):
        sec = int(ts)
        sub = int(round((ts - sec) * unit))
        sec, sub = sec + sub // unit, sub % unit  # rounding can reach a whole second
        orig = orig_lengths[idx] if orig_lengths else len(frame)
        blob += struct.pack(byte_order + "IIII", sec, sub, len(frame), orig)
        blob += frame
    return blob


# Three traces of unequal length, in neither id nor label order, as
# `save_features_csv` writes them: the header, `repr` floats, and
# `window_index` counting from 0 in each trace.
GOLDEN_FEATURES_CSV = (
    "n_ip_unique,n_port_unique,n_pack_tcp,n_pack_udp,n_pack_icmp,max_diff_time,mean_window,"
    "std_window,mean_ipt,std_ipt,mean_len_pack,std_len_pack,label,window_index,trace_id\n"
    "3.0,4.0,10.0,2.0,0.0,0.1,4000.5,12.25,0.30000000000000004,1e-05,220.0,80.125,b,0,z-1\n"
    "2.0,5.0,9.0,3.0,1.0,0.25,3999.0,0.0,0.0625,2.5e-06,1514.0,0.0,b,1,z-1\n"
    "1.0,1.0,0.0,12.0,0.0,1.5,0.0,0.0,0.125,0.03125,60.0,1.0,a,0,a-0\n"
    "4.0,2.0,7.0,6.0,0.0,1e+20,65535.0,1.0,0.1,0.2,1000.0,123.456,a,1,a-0\n"
    "2.0,3.0,8.0,4.0,0.0,0.7,2048.0,3.5,0.3333333333333333,0.05,512.0,7.0,a,2,a-0\n"
    "5.0,6.0,1.0,11.0,1.0,2.0,100.0,0.5,0.002,0.001,90.0,30.0,b,0,m-2\n"
)
