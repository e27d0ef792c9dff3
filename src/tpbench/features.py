"""Windowing and the 12 per-window statistical traffic indicators.

Packets are grouped either into bursts of exactly N packets or into
half-open time spans of width dt. For each retained window the extractor
computes endpoint/port uniqueness counts, protocol counts, inter-packet-time
statistics, TCP window statistics and packet length statistics. All standard
deviations use the population convention (divide by count), so single-value
subsets are well defined and oracle tests can agree bit-for-bit.
`extract_series` is the one extractor: it computes a block of equal-sized
windows at a time, each feature as the same reduction in the same order as
a one-window-at-a-time loop would take it. Block means and standard
deviations call numpy's reductions directly, the same operations `np.mean`
and `np.std` run, without those functions' per-call Python overhead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from tpbench.rules import POSITIVE, check, integer_at_least
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

# Features that are integer counts at extraction time (transforms may break
# integrality; the optional clamp floors these at zero).
COUNT_FEATURES: tuple[str, ...] = (
    "n_ip_unique",
    "n_port_unique",
    "n_pack_tcp",
    "n_pack_udp",
    "n_pack_icmp",
)


class EmptySeriesError(ValueError):
    """Raised when windowing a trace yields no usable window."""


@dataclass(frozen=True)
class WindowSpec:
    """Packet grouping rule: bursts of N packets or time spans of dt seconds."""

    mode: str  # "burst" | "timespan"
    burst_size: int = 0
    timespan: float = 0.0

    def __post_init__(self):
        if self.mode == "burst":
            check(self.burst_size, integer_at_least(2), "burst size")
        elif self.mode == "timespan":
            check(self.timespan, POSITIVE, "timespan")
            object.__setattr__(self, "timespan", float(self.timespan))
        else:
            raise ValueError(f"unknown window mode {self.mode!r}")

    @classmethod
    def burst(cls, n: int) -> "WindowSpec":
        return cls(mode="burst", burst_size=n)

    @classmethod
    def time_span(cls, dt: float) -> "WindowSpec":
        return cls(mode="timespan", timespan=dt)

    @property
    def size(self) -> float:
        return self.burst_size if self.mode == "burst" else self.timespan

    def size_repr(self) -> str:
        """The window size as keys and report CSVs print it."""
        return str(self.burst_size) if self.mode == "burst" else repr(self.timespan)

    def key(self) -> str:
        return f"{self.mode}:{self.size_repr()}"


@dataclass
class FeatureSeries:
    """Per-trace feature time series: one row per retained window."""

    values: np.ndarray  # shape (n_windows, 12), float64
    label: str
    trace_id: str = ""
    dropped_windows: int = 0
    transform: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != N_FEATURES:
            raise ValueError(f"feature matrix must be (n, {N_FEATURES})")
        if self.values.shape[0] == 0:
            raise EmptySeriesError("feature series must be non-empty")

    def __len__(self) -> int:
        return self.values.shape[0]


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
    if times.size == 0:
        raise ValueError("cannot window an empty trace")
    if spec.mode == "burst":
        starts = np.arange(times.size // spec.burst_size, dtype=np.int64) * spec.burst_size
        return starts, starts + spec.burst_size
    dt = spec.timespan
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


def extract_series(trace: Trace, spec: WindowSpec) -> FeatureSeries:
    """One row of the 12 features per retained window, in window order.

    Windows with fewer than 2 packets are dropped and counted. Raises
    EmptySeriesError when no window survives.
    """
    starts, stops = _window_bounds(trace, spec)
    kept = stops - starts >= 2
    if not kept.any():
        raise EmptySeriesError(
            f"trace {trace.trace_id or trace.label!r}: no window with >= 2 packets "
            f"under {spec.key()}"
        )
    return FeatureSeries(
        values=_window_matrix(trace, starts[kept], stops[kept]),
        label=trace.label,
        trace_id=trace.trace_id,
        dropped_windows=int(np.count_nonzero(~kept)),
    )


# Element budget of one gathered (windows, packets) block of a column in
# `_window_matrix`: 64 KiB of int64 or float64.
BLOCK_ELEMENTS = 1 << 13


def _blocks(sizes: np.ndarray):
    """(rows, size): indices of windows that share one size, in window order,
    at most BLOCK_ELEMENTS // size of them at a time."""
    order = np.argsort(sizes, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        size = int(sizes[rows[0]])
        step = max(1, BLOCK_ELEMENTS // max(1, size))
        for lo in range(0, rows.size, step):
            yield rows[lo : lo + step], size


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Distinct values per row of a row-wise sorted matrix."""
    return 1 + np.count_nonzero(rows[:, 1:] != rows[:, :-1], axis=1)


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
        ports[~np.tile(tcp | udp, 2)] = 0  # port 0 means "no port"
        ports.sort(axis=1)
        gaps = np.diff(trace.timestamps[packets], axis=1)
        lengths = trace.lengths[packets]
        out[rows, f["n_ip_unique"]] = _distinct(ips)
        out[rows, f["n_port_unique"]] = _distinct(ports) - (ports == 0).any(axis=1)
        out[rows, f["n_pack_tcp"]] = np.count_nonzero(tcp, axis=1)
        out[rows, f["n_pack_udp"]] = np.count_nonzero(udp, axis=1)
        out[rows, f["n_pack_icmp"]] = np.count_nonzero(proto == _ICMP, axis=1)
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


# --- CSV interchange --------------------------------------------------------

_BASE_COLUMNS = list(FEATURE_NAMES) + ["label", "window_index", "trace_id"]


def save_features_csv(series_list: Iterable[FeatureSeries], path: str | Path) -> None:
    """Stacked per-window rows; a `transform` column is added when any series
    carries transform metadata."""
    series_list = list(series_list)
    if not series_list:
        raise ValueError("nothing to write")
    with_transform = any(s.transform is not None for s in series_list)
    columns = _BASE_COLUMNS + (["transform"] if with_transform else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for series in series_list:
            for k, row in enumerate(series.values):
                record = [repr(float(v)) for v in row]
                record += [series.label, str(k), series.trace_id]
                if with_transform:
                    record.append(series.transform or "none")
                writer.writerow(record)


def load_features_csv(path: str | Path) -> list[FeatureSeries]:
    """Read back one FeatureSeries per trace_id, in first-appearance order."""
    groups: dict[str, dict] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(
            name not in reader.fieldnames for name in _BASE_COLUMNS
        ):
            raise ValueError(f"{path}: missing feature CSV columns")
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
            group = groups.setdefault(
                row["trace_id"],
                {"label": row["label"], "rows": [], "transform": row.get("transform")},
            )
            if group["label"] != row["label"]:
                raise ValueError(
                    f"{path}:{lineno}: trace {row['trace_id']!r} has conflicting labels"
                )
            group["rows"].append(vec)
    if not groups:
        raise ValueError(f"{path}: no feature rows")
    return [
        FeatureSeries(
            values=np.array(g["rows"], dtype=np.float64),
            label=g["label"],
            trace_id=tid,
            transform=g["transform"] if g["transform"] not in (None, "none") else None,
        )
        for tid, g in groups.items()
    ]


def stack_series(series_list: list[FeatureSeries]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate series into one (X, labels, trace) dataset, preserving
    order; `trace` holds each row's series position in `series_list` (int64)."""
    if not series_list:
        raise ValueError("no series to stack")
    X = np.concatenate([s.values for s in series_list], axis=0)
    y = np.concatenate([np.full(len(s), s.label, dtype=object) for s in series_list])
    trace = np.repeat(np.arange(len(series_list), dtype=np.int64), [len(s) for s in series_list])
    return X, y, trace
