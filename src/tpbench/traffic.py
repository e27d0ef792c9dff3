"""Packet-level domain types and the synthetic labeled-trace generator.

A Trace holds its packets as numpy columns, one array per packet field, so
windowing and feature extraction read them without a per-packet loop. It is
frozen and checks every packet when built; `dataclasses.replace` builds a
changed trace and checks it again. The generator draws inter-packet gaps
from an exponential distribution, floored at 1 microsecond, and per-packet
fields from per-class distributions, so classes can be separated in any
chosen subset of the windowed features downstream. A drawn trace is a pure
function of (profile, duration, seed), named when drawn. A trace has no
file format of its own: it is drawn here or parsed from a pcap
(`tpbench.pcap`), and the sweep and `tpbench extract --config` both draw
theirs through `harness.source_series`, one trace per job. No code of the
package reads PacketRecord, a packet's row view, or `Trace.packets`; they
stay for the sweep benchmark's packet counts and pcap round-trip test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from tpbench.rules import COUNT, NON_NEGATIVE, POSITIVE, STRING, check, integer_in, part_of_range
from tpbench.seeding import derive_seed

MIN_PACKET_LEN = 40
MAX_PACKET_LEN = 1514
MAX_TCP_WINDOW = 65535
MIN_GAP_SECONDS = 1e-6  # floor for inter-packet gaps
# Most packets a synthetic trace may expect (duration * rate): 220 times the
# largest shipped trace (60 s at 1250 pkt/s), about 1 GB of packet columns.
MAX_TRACE_PACKETS = 2**24


class Protocol(IntEnum):
    """A packet's protocol, whose value is its code in `Trace.protocols`.
    Compare that int8 column with a member's `.value`, a plain int: numpy
    casts the whole column to int64 to compare it with the member itself."""

    TCP = 0
    UDP = 1
    ICMP = 2
    OTHER = 3


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """Row view of one packet. IPs are opaque 32-bit tokens, not dotted quads."""

    timestamp: float  # seconds since trace start, microsecond precision
    length: int  # bytes on wire
    protocol: Protocol
    src_ip: int
    dst_ip: int
    src_port: int = 0  # 0 when the protocol has no ports
    dst_port: int = 0
    tcp_window: int = 0  # 0 for non-TCP


# Trace column -> dtype, in PacketRecord field order.
_COLUMN_DTYPES = {
    "timestamps": np.float64,
    "lengths": np.int64,
    "protocols": np.int8,  # a Protocol's value
    "src_ip": np.int64,
    "dst_ip": np.int64,
    "src_port": np.int64,
    "dst_port": np.int64,
    "tcp_window": np.int64,
}


@dataclass(frozen=True, eq=False)
class Trace:
    """An ordered, labeled packet capture: element i of each column is packet i.

    `timestamps` are float64 seconds since trace start, `protocols` int8
    `Protocol` values and the other columns int64. The constructor coerces
    each column to its dtype and checks every packet, naming the first bad one.
    It takes over the arrays it is given, keeping a read-only view of each.
    """

    timestamps: np.ndarray
    lengths: np.ndarray
    protocols: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    tcp_window: np.ndarray
    label: str
    trace_id: str = ""

    def __post_init__(self):
        for name, dtype in _COLUMN_DTYPES.items():
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.timestamps.ndim != 1 or len({getattr(self, n).shape for n in _COLUMN_DTYPES}) > 1:
            raise ValueError("trace columns must be 1-D and of equal length")
        if self.timestamps.size == 0:
            raise ValueError("trace must contain at least one packet")
        ts, proto, window = self.timestamps, self.protocols, self.tcp_window
        sport, dport, sip, dip = self.src_port, self.dst_port, self.src_ip, self.dst_ip
        checks = (
            (~np.isfinite(ts), "timestamp is not finite"),
            (ts < 0, "negative timestamp"),
            (np.diff(ts, prepend=ts[0]) < 0, "packet timestamps must be non-decreasing"),
            (self.lengths < 0, "negative length"),
            ((proto < 0) | (proto >= len(Protocol)), "unknown protocol code"),
            ((np.minimum(sip, dip) < 0) | (np.maximum(sip, dip) >= 2**32),
             "IP token outside [0, 2**32)"),
            ((np.minimum(sport, dport) < 0) | (np.maximum(sport, dport) > 65535),
             "port out of range"),
            ((window < 0) | (window > MAX_TCP_WINDOW), "tcp_window out of range"),
            ((proto != Protocol.TCP.value) & (window != 0),
             "tcp_window must be 0 for non-TCP packets"),
            ((proto >= Protocol.ICMP.value) & ((sport != 0) | (dport != 0)),
             "ICMP and OTHER packets carry no ports"),
        )
        for bad, message in checks:
            if bad.any():
                raise ValueError(f"packet {int(np.argmax(bad))}: {message}")

    @property
    def packets(self) -> list[PacketRecord]:
        """The packets as PacketRecord rows of Python scalars, built per call."""
        columns = [getattr(self, name).tolist() for name in _COLUMN_DTYPES]
        # Protocol(code) of every packet in one gather: list(Protocol) is in code order
        columns[2] = np.array(list(Protocol), dtype=object)[self.protocols].tolist()
        return [PacketRecord(*row) for row in zip(*columns)]


PROTOCOL_MIX = (lambda v: isinstance(v, (list, tuple)) and len(v) == 3
                and all(map(NON_NEGATIVE[0], v)) and abs(sum(v) - 1.0) <= 1e-9,
                "three finite numbers >= 0 summing to 1")

# ClassProfile field -> its rule. The pools are drawn as distinct tokens
# before the first packet: a port pool above 65535 would never fill, and an
# address pool stays within a trace's packet bound.
_PROFILE_RULES = {
    "label": STRING,
    "protocol_mix": PROTOCOL_MIX,
    **dict.fromkeys(("rate", "length_mean"), POSITIVE),
    **dict.fromkeys(("length_std", "window_mean", "window_std"), NON_NEGATIVE),
    "ip_pool_size": integer_in(1, MAX_TRACE_PACKETS),
    "port_pool_size": integer_in(1, 65535),
}


@dataclass(frozen=True)
class ClassProfile:
    """Generative parameters for one traffic class, checked at construction.

    The real-valued fields are stored as floats and `protocol_mix` as a
    tuple of floats, so a profile read from JSON and one built in code
    with integer values generate the same trace.
    """

    label: str
    rate: float  # packets per second
    protocol_mix: tuple[float, float, float]  # P(TCP), P(UDP), P(ICMP)
    length_mean: float
    length_std: float
    window_mean: float
    window_std: float
    ip_pool_size: int
    port_pool_size: int

    def __post_init__(self):
        for name, rule in _PROFILE_RULES.items():
            check(getattr(self, name), rule, name)
            if rule in (POSITIVE, NON_NEGATIVE):  # a real-valued field
                object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "protocol_mix", tuple(map(float, self.protocol_mix)))


def _distinct_tokens(rng: np.random.Generator, count: int, high: int) -> np.ndarray:
    """Draw `count` distinct integers in [1, high). Deterministic per rng state."""
    tokens: dict[int, None] = {}
    while len(tokens) < count:
        for value in rng.integers(1, high, size=count - len(tokens)).tolist():
            tokens.setdefault(value, None)
    return np.array(list(tokens)[:count], dtype=np.int64)


def _draw_gaps(rng: np.random.Generator, profile: ClassProfile, duration: float) -> np.ndarray:
    """Arrival times in [0, duration): exponential gaps, floored."""
    mean_gap = 1.0 / profile.rate
    chunk = max(int(duration * profile.rate * 1.2) + 16, 64)
    times: list[np.ndarray] = []
    total = 0.0
    while total < duration:
        gaps = np.maximum(rng.exponential(mean_gap, size=chunk), MIN_GAP_SECONDS)
        stamps = total + np.cumsum(gaps)
        times.append(stamps)
        total = stamps[-1]
    merged = np.concatenate(times)
    return merged[merged < duration]


def generate_trace(profile: ClassProfile, duration: float, seed: int, *,
                   trace_id: str | None = None) -> Trace:
    """Generate one synthetic trace, named `trace_id` (default `<label>-0`).
    Its packets are fully determined by (profile, duration, seed)."""
    check(duration, POSITIVE, "duration")
    if duration * profile.rate > MAX_TRACE_PACKETS:
        raise ValueError(
            f"profile {profile.label!r}: duration {duration!r} s at rate {profile.rate!r} pkt/s "
            f"expects {duration * profile.rate:.3g} packets, more than {MAX_TRACE_PACKETS}"
        )

    rng = np.random.default_rng(seed)
    ip_pool = _distinct_tokens(rng, profile.ip_pool_size, 2**32)
    port_pool = _distinct_tokens(rng, profile.port_pool_size, 65536)

    times = np.round(_draw_gaps(rng, profile, duration), 6)
    n = times.size
    if n == 0:
        raise ValueError(f"profile {profile.label!r}: duration {duration!r} s at rate "
                         f"{profile.rate!r} pkt/s drew no packet")

    # Protocol codes: the mix is ordered TCP, UDP, ICMP, as Protocol's values are.
    proto_codes = rng.choice(3, size=n, p=np.asarray(profile.protocol_mix, dtype=float))
    lengths = np.clip(
        np.rint(rng.normal(profile.length_mean, profile.length_std, size=n)),
        MIN_PACKET_LEN,
        MAX_PACKET_LEN,
    ).astype(np.int64)
    windows = np.clip(
        np.rint(rng.normal(profile.window_mean, profile.window_std, size=n)),
        0,
        MAX_TCP_WINDOW,
    ).astype(np.int64)
    windows[proto_codes != Protocol.TCP] = 0

    src_ip = np.full(n, ip_pool[0], dtype=np.int64)  # the device itself
    dst_ip = ip_pool[rng.integers(0, profile.ip_pool_size, size=n)]
    src_port = port_pool[rng.integers(0, profile.port_pool_size, size=n)]
    dst_port = port_pool[rng.integers(0, profile.port_pool_size, size=n)]
    has_ports = proto_codes <= Protocol.UDP
    src_port = np.where(has_ports, src_port, 0)
    dst_port = np.where(has_ports, dst_port, 0)

    return Trace(times, lengths, proto_codes, src_ip, dst_ip, src_port, dst_port, windows,
                 label=profile.label,
                 trace_id=f"{profile.label}-0" if trace_id is None else trace_id)


def generate_dataset(
    profiles: list[ClassProfile],
    traces_per_class: int,
    duration: float,
    seed: int,
    *,
    indices: range | None = None,
) -> list[Trace]:
    """Balanced labeled corpus; per-trace seeds derived from the master seed
    and the trace's (label, index) only, so one profile's traces do not
    depend on the other profiles. `indices`, keyword-only and so no config
    key, draws only those trace indices of each profile (default all of
    range(traces_per_class)); trace k is the same whichever range draws it."""
    check(traces_per_class, COUNT, "traces_per_class")
    indices = range(traces_per_class) if indices is None else indices
    check(indices, part_of_range(traces_per_class), "indices")
    return [generate_trace(profile, duration, derive_seed(seed, "trace", profile.label, k),
                           trace_id=f"{profile.label}-{k}")
            for profile in profiles for k in indices]


# Preset class profiles by scenario name. The presets are tuned so that classes
# are separated in several windowed features at once (rate, protocol mix,
# packet length, TCP window, pools).
PRESETS: dict[str, tuple[ClassProfile, ...]] = {
    "mic_onoff": (
        ClassProfile(
            label="mic_off", rate=600.0, protocol_mix=(0.70, 0.25, 0.05),
            length_mean=220.0, length_std=80.0, window_mean=4000.0,
            window_std=1200.0, ip_pool_size=3, port_pool_size=6,
        ),
        ClassProfile(
            label="mic_on", rate=1100.0, protocol_mix=(0.85, 0.12, 0.03),
            length_mean=760.0, length_std=210.0, window_mean=14000.0,
            window_std=4200.0, ip_pool_size=8, port_pool_size=16,
        ),
    ),
    "mic_on_noise": (
        ClassProfile(
            label="mic_quiet", rate=800.0, protocol_mix=(0.80, 0.15, 0.05),
            length_mean=420.0, length_std=140.0, window_mean=8000.0,
            window_std=2500.0, ip_pool_size=5, port_pool_size=10,
        ),
        ClassProfile(
            label="mic_noise", rate=1250.0, protocol_mix=(0.88, 0.09, 0.03),
            length_mean=900.0, length_std=260.0, window_mean=18000.0,
            window_std=5200.0, ip_pool_size=10, port_pool_size=20,
        ),
    ),
    "utility_media_travel": (
        ClassProfile(
            label="utility", rate=900.0, protocol_mix=(0.45, 0.35, 0.20),
            length_mean=300.0, length_std=100.0, window_mean=5000.0,
            window_std=1800.0, ip_pool_size=3, port_pool_size=6,
        ),
        ClassProfile(
            label="media", rate=1200.0, protocol_mix=(0.85, 0.10, 0.05),
            length_mean=1000.0, length_std=250.0, window_mean=20000.0,
            window_std=5000.0, ip_pool_size=12, port_pool_size=24,
        ),
        ClassProfile(
            label="travel", rate=750.0, protocol_mix=(0.60, 0.35, 0.05),
            length_mean=520.0, length_std=150.0, window_mean=10000.0,
            window_std=3000.0, ip_pool_size=6, port_pool_size=12,
        ),
    ),
}


def builtin_profiles(name: str) -> list[ClassProfile]:
    """The preset class profiles `PRESETS` holds under `name`."""
    if name not in PRESETS:
        raise ValueError(f"no built-in profiles for {name!r}; expected one of {list(PRESETS)}")
    return list(PRESETS[name])
