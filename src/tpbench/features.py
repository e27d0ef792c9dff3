"""Windowing and the 12 per-window statistical traffic indicators.

Packets are grouped either into bursts of exactly N packets or into
half-open time spans of width dt: a `WindowSpec` is a mode and one `size`,
N as an int or dt as a float, which its key and the reports print. For
each retained window the extractor computes endpoint/port uniqueness
counts, protocol counts, inter-packet-time statistics, TCP window
statistics and packet length statistics. All standard deviations use the
population convention (divide by count), so single-value subsets are well
defined and oracle tests can agree bit-for-bit.
`extract_series` is the one extractor: it computes a block of equal-sized
windows at a time, each feature as the same reduction in the same order as
a one-window-at-a-time loop would take it. Block means and standard
deviations call numpy's reductions directly, the same operations `np.mean`
and `np.std` run, without those functions' per-call Python overhead.
`extract_series` returns one trace's `WindowTable`, with no row when no
window holds 2 packets; `stack_series` concatenates such tables, so many
traces' windows take the same shape, the one the sweep, the feature CSV
and the CLI share, which keeps each row's trace. The feature CSV is written
by `rules.write_csv`, in the dialect of every CSV the package writes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tpbench.rules import POSITIVE, check, integer_at_least, read_text, write_csv
from tpbench.traffic import Protocol, Trace

_TCP, _UDP, _ICMP = Protocol.TCP.code, Protocol.UDP.code, Protocol.ICMP.code

FEATURE_NAMES: tuple[str, ...] = (
    "n_ip_unique",
    "n_port_unique",
    "n_pack_tcp",
    "n_pack_udp",
    "n_pack_icmp",
    "max_diff_time",
    "mean_window",
    "std_window",
    "mean_ipt",
    "std_ipt",
    "mean_len_pack",
    "std_len_pack",
)

FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}
N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class WindowSpec:
    """Packet grouping rule: bursts of `size` packets or time spans of `size`
    seconds. `size` is held as an int for a burst and as a float for a time
    span, so one window has one spec, one key and one printed size."""

    mode: str  # "burst" | "timespan"
    size: int | float

    def __post_init__(self):
        if self.mode == "burst":
            check(self.size, integer_at_least(2), "burst size")
            object.__setattr__(self, "size", int(self.size))
        elif self.mode == "timespan":
            check(self.size, POSITIVE, "timespan")
            object.__setattr__(self, "size", float(self.size))
        else:
            raise ValueError(f"unknown window mode {self.mode!r}")

    @classmethod
    def burst(cls, n: int) -> "WindowSpec":
        return cls("burst", n)

    @classmethod
    def time_span(cls, dt: float) -> "WindowSpec":
        return cls("timespan", dt)

    def size_repr(self) -> str:
        """The window size as keys and report CSVs print it."""
        return repr(self.size)

    def key(self) -> str:
        return f"{self.mode}:{self.size_repr()}"


@dataclass(frozen=True, eq=False)  # numpy fields: compare them one by one
class WindowTable:
    """The windows of one trace or of several: the one shape
    `extract_series`, the sweep, the feature CSV and the CLI share."""

    X: np.ndarray  # (n_rows, 12) float64, each trace's rows together in window order
    labels: np.ndarray  # each row's class label (object)
    trace: np.ndarray  # each row's trace, as its position in trace_ids (int64, non-decreasing)
    trace_ids: list[str]  # the traces that keep a window, in row order
    dropped_windows: int  # windows of fewer than 2 packets, by `extract_series`' rule

    def __len__(self) -> int:
        return self.trace.size


# Time-span windows estimate each packet's interval as floor(t / dt) in
# float64. Below this many intervals every index is exact and the estimate
# is off by at most one.
MAX_INTERVALS = 2.0**52


def _window_bounds(trace: Trace, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop packet indices of each non-empty window, half open.

    Burst mode yields consecutive ranges of exactly N packets and discards the
    trailing partial group. Time-span mode gives each packet the interval k
    with k*dt <= t < (k+1)*dt, as those float64 products round, and cuts a
    window wherever k changes, so empty intervals give no window (windows
    with a single packet are kept here; the extractor drops them with its
    dropped-window counter). Memory follows the packets, not the intervals.
    """
    times = trace.timestamps
    if spec.mode == "burst":
        starts = np.arange(times.size // spec.size, dtype=np.int64) * spec.size
        return starts, starts + spec.size
    dt = spec.size
    k = np.floor(times / dt)
    if not k[-1] < MAX_INTERVALS:
        raise ValueError(
            f"trace {trace.trace_id or trace.label!r}: time span {dt!r} cuts its "
            f"{float(times[-1])!r} s into more than 2**52 intervals, past exact float64 indices"
        )
    # Rounding leaves the estimate within one of k (at dt = 0.1, floor(1.7 / dt)
    # is 17 but 17 * dt > 1.7, and floor(4.3 / dt) is 42 but 43 * dt == 4.3),
    # so one step down and one step up correct it.
    k -= k * dt > times
    k += (k + 1) * dt <= times
    cuts = np.flatnonzero(k[1:] != k[:-1]) + 1
    return np.concatenate(([0], cuts)), np.append(cuts, times.size)


def extract_series(trace: Trace, spec: WindowSpec) -> WindowTable:
    """The table of one trace: a row of the 12 features per retained window,
    in window order, each of trace position 0. Windows of fewer than 2
    packets are dropped and counted, at least one when none is kept (a burst
    trace shorter than N drops its one group); a longer burst trace's
    trailing partial group is not a window and is not counted."""
    starts, stops = _window_bounds(trace, spec)
    kept = stops - starts >= 2
    n = int(np.count_nonzero(kept))
    return WindowTable(
        X=_window_matrix(trace, starts[kept], stops[kept]),
        labels=np.full(n, trace.label, dtype=object),
        trace=np.zeros(n, dtype=np.int64),
        trace_ids=[trace.trace_id] if n else [],
        dropped_windows=max(starts.size - n, 0 if n else 1),
    )


# Element budget of one gathered (windows, packets) block of a column in
# `_window_matrix`: 64 KiB of int64 or float64.
BLOCK_ELEMENTS = 1 << 13


def _blocks(sizes: np.ndarray):
    """(rows, size): indices of windows that share one size, in window order,
    at most BLOCK_ELEMENTS // size of them at a time; nothing for no window."""
    order = np.argsort(sizes, kind="stable")
    for rows in filter(len, np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1)):
        size = int(sizes[rows[0]])
        step = max(1, BLOCK_ELEMENTS // max(1, size))
        for lo in range(0, rows.size, step):
            yield rows[lo : lo + step], size


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Distinct values per row of a row-wise sorted matrix."""
    return 1 + np.add.reduce(rows[:, 1:] != rows[:, :-1], axis=1)


def _mean_std(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.mean(x, axis=1)` and `np.std(x, axis=1)` of a 2-D block, bit for
    bit: the reductions those two run, with the mean summed once."""
    n = x.shape[1]
    mean = np.add.reduce(x, axis=1, dtype=np.float64, keepdims=True)
    mean /= n
    dev = x - mean
    np.multiply(dev, dev, out=dev)
    return mean[:, 0], np.sqrt(np.add.reduce(dev, axis=1) / n)


def _window_matrix(trace: Trace, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The feature rows of windows [starts[i], stops[i]) (each of >= 2
    packets), one block of equal-sized windows at a time. Each feature is the
    same reduction over the same values in the same order as a per-window
    computation, taken along axis 1 of a (windows, packets) matrix, so the
    two agree bit for bit."""
    out = np.zeros((starts.size, N_FEATURES))
    f = FEATURE_INDEX
    for rows, size in _blocks(stops - starts):
        packets = starts[rows, None] + np.arange(size)
        proto = trace.protocols[packets]
        tcp, udp = proto == _TCP, proto == _UDP
        ips = np.concatenate([trace.src_ip[packets], trace.dst_ip[packets]], axis=1)
        ips.sort(axis=1)
        ports = np.concatenate([trace.src_port[packets], trace.dst_port[packets]], axis=1)
        ports.sort(axis=1)
        gaps = np.diff(trace.timestamps[packets], axis=1)
        lengths = trace.lengths[packets]
        out[rows, f["n_ip_unique"]] = _distinct(ips)
        out[rows, f["n_port_unique"]] = _distinct(ports) - (ports == 0).any(axis=1)  # 0 is no port
        out[rows, f["n_pack_tcp"]] = np.add.reduce(tcp, axis=1)
        out[rows, f["n_pack_udp"]] = np.add.reduce(udp, axis=1)
        out[rows, f["n_pack_icmp"]] = np.add.reduce(proto == _ICMP, axis=1)
        out[rows, f["max_diff_time"]] = gaps.max(axis=1)
        out[rows, f["mean_ipt"]], out[rows, f["std_ipt"]] = _mean_std(gaps)
        out[rows, f["mean_len_pack"]], out[rows, f["std_len_pack"]] = _mean_std(lengths)

    # TCP window statistics: each window's TCP packets, in packet order, are
    # a contiguous run of the TCP-only column.
    tcp_at = np.flatnonzero(trace.protocols == _TCP)
    tcp_windows = trace.tcp_window[tcp_at]
    first_tcp = np.searchsorted(tcp_at, starts)
    for rows, size in _blocks(np.searchsorted(tcp_at, stops) - first_tcp):
        if size == 0:
            continue  # no TCP packet: mean and std stay 0.0
        windows = tcp_windows[first_tcp[rows, None] + np.arange(size)]
        out[rows, f["mean_window"]], out[rows, f["std_window"]] = _mean_std(windows)
    return out


def stack_series(tables: list[WindowTable]) -> WindowTable:
    """The tables concatenated in order: each table's trace positions shift
    by the number of traces before it, and the dropped windows add up."""
    offsets = np.cumsum([0, *(len(t.trace_ids) for t in tables)])
    return WindowTable(
        X=np.concatenate([np.zeros((0, N_FEATURES)), *(t.X for t in tables)]),
        labels=np.concatenate([np.zeros(0, dtype=object), *(t.labels for t in tables)]),
        trace=np.concatenate([np.zeros(0, dtype=np.int64),
                              *(t.trace + k for t, k in zip(tables, offsets))]),
        trace_ids=[trace_id for t in tables for trace_id in t.trace_ids],
        dropped_windows=sum(t.dropped_windows for t in tables),
    )


# --- CSV interchange --------------------------------------------------------

_BASE_COLUMNS = list(FEATURE_NAMES) + ["label", "window_index", "trace_id"]


def save_features_csv(table: WindowTable, path: str | Path, transform: str | None = None) -> None:
    """One line per row of `table`: its features, label, index within its
    trace and trace id, then `transform` in a last column when given."""
    if not table.trace.size:
        raise ValueError("nothing to write")
    columns = _BASE_COLUMNS + ([] if transform is None else ["transform"])
    tail = [] if transform is None else [transform]
    window_index = np.arange(table.trace.size) - np.searchsorted(table.trace, table.trace)
    rows = zip(table.X.tolist(), table.labels, window_index.tolist(), table.trace.tolist())
    write_csv(path, columns, ([*map(repr, x), label, k, table.trace_ids[t], *tail]
                              for x, label, k, t in rows))


def load_features_csv(path: str | Path) -> WindowTable:
    """The table of a feature CSV, with each trace_id's rows together in file
    order, the traces in order of first appearance, `dropped_windows` 0 (the
    file keeps no count) and a `transform` column left unread. Text that
    `read_text` refuses or that is not CSV, or a header naming a column
    twice, fails as a ValueError naming the file."""
    rows, trace, traces = [], [], {}  # traces: trace_id -> (position, label)
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
        header = reader.fieldnames or []
        missing = [name for name in _BASE_COLUMNS if name not in header]
        if missing:
            raise ValueError(f"{path}: missing feature CSV columns {missing}")
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:  # DictReader would keep the last of them
            raise ValueError(f"{path}: feature CSV header repeats columns {repeated}")
        for lineno, row in enumerate(reader, 2):
            if None in row or None in row.values():  # DictReader's marks of a ragged row
                side = "many" if None in row else "few"
                raise ValueError(
                    f"{path}:{lineno}: too {side} fields for the "
                    f"{len(reader.fieldnames)}-column header"
                )
            try:
                vec = [float(row[name]) for name in FEATURE_NAMES]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            for name, value in zip(FEATURE_NAMES, vec):
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: {name} is {row[name]!r}, not finite")
            position, label = traces.setdefault(row["trace_id"], (len(traces), row["label"]))
            if label != row["label"]:
                raise ValueError(
                    f"{path}:{lineno}: trace {row['trace_id']!r} has conflicting labels"
                )
            rows.append(vec)
            trace.append(position)
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        # the inner reader's count: DictReader's own lags a row behind a failed read
        raise ValueError(f"{path}:{reader.reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    order = np.argsort(trace, kind="stable")
    trace = np.array(trace, dtype=np.int64)[order]
    labels = np.array([label for _, label in traces.values()], dtype=object)
    return WindowTable(np.array(rows)[order], labels[trace], trace, list(traces), dropped_windows=0)
