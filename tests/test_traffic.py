import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from helpers import build_pcap, ipv4_frame, raw_frame, trace_from_packets
from tpbench.pcap import parse_pcap_with_stats
from tpbench.traffic import (
    MAX_TRACE_PACKETS,
    ClassProfile,
    PacketRecord,
    Protocol,
    Trace,
    builtin_profiles,
    generate_dataset,
    generate_trace,
)


def profile(**overrides) -> ClassProfile:
    base = dict(
        label="a",
        rate=100.0,
        protocol_mix=(0.6, 0.3, 0.1),
        length_mean=500.0,
        length_std=120.0,
        window_mean=8000.0,
        window_std=2000.0,
        ip_pool_size=5,
        port_pool_size=10,
    )
    base.update(overrides)
    return ClassProfile(**base)


def test_packet_count_near_rate():
    trace = generate_trace(profile(rate=100.0), duration=10.0, seed=1)
    assert 900 <= len(trace.packets) <= 1100


def test_rate_within_five_percent_over_long_duration():
    trace = generate_trace(profile(rate=200.0), duration=100.0, seed=3)
    rate = len(trace.packets) / 100.0
    assert abs(rate / 200.0 - 1.0) < 0.05


def test_determinism_byte_identical():
    a = generate_trace(profile(), 10.0, seed=7)
    b = generate_trace(profile(), 10.0, seed=7)
    assert a.packets == b.packets


def test_pure_tcp_mix():
    trace = generate_trace(profile(protocol_mix=(1.0, 0.0, 0.0)), 5.0, seed=2)
    assert all(p.protocol is Protocol.TCP for p in trace.packets)
    assert any(p.tcp_window > 0 for p in trace.packets)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_trace(profile(), 0.0, seed=1)
    with pytest.raises(ValueError):
        generate_trace(profile(protocol_mix=(0.5, 0.2, 0.2)), 5.0, seed=1)
    with pytest.raises(ValueError):
        generate_trace(profile(rate=-1.0), 5.0, seed=1)
    with pytest.raises(ValueError):
        generate_trace(profile(ip_pool_size=0), 5.0, seed=1)
    for duration in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ValueError, match=f"duration must be a finite number > 0, got {duration}"):
            generate_trace(profile(), duration, seed=1)
    for field, named in (
        ({"length_mean": float("nan")}, "length_mean must be a finite number > 0, got nan"),
        ({"rate": float("inf")}, "rate must be a finite number > 0, got inf"),
        ({"protocol_mix": (0.5, float("nan"), 0.5)},
         r"protocol_mix must be three finite numbers >= 0 summing to 1, got \(0\.5, nan, 0\.5\)"),
        ({"protocol_mix": (0.5, 0.5)}, r"protocol_mix must be three .* got \(0\.5, 0\.5\)"),
        ({"protocol_mix": (1.1, -0.1, 0.0)}, r"protocol_mix must be three .* got \(1\.1, -0\.1, 0\.0\)"),
        ({"protocol_mix": (0.5, 0.2, 0.2)}, r"protocol_mix must be three .* got \(0\.5, 0\.2, 0\.2\)"),
        ({"length_std": -1.0}, r"length_std must be a finite number >= 0, got -1\.0"),
        ({"port_pool_size": 65536}, r"port_pool_size must be an integer in \[1, 65535\], got 65536"),
        ({"ip_pool_size": 2.5}, r"ip_pool_size must be an integer in \[1, 16777216\], got 2\.5"),
        ({"ip_pool_size": 2**24 + 1}, r"ip_pool_size must be an integer in \[1, 16777216\], got 16777217"),
        ({"ip_pool_size": 10**400}, r"ip_pool_size must be an integer in \[1, 16777216\], got 1000"),
        ({"label": 5}, "label must be a string, got 5"),
        ({"rate": "600"}, "rate must be a finite number > 0, got '600'"),
        ({"rate": 0}, "rate must be a finite number > 0, got 0"),
    ):
        with pytest.raises(ValueError, match=named):
            profile(**field)  # a profile checks itself at construction
    busy = profile(label="busy")
    with pytest.raises(ValueError, match=r"profile 'busy': duration .* s at rate .* pkt/s expects"):
        generate_trace(busy, 1.01 * MAX_TRACE_PACKETS / busy.rate, seed=1)
    sparse = profile(label="sparse", rate=600.0)
    with pytest.raises(ValueError, match=r"^profile 'sparse': duration 0\.0005 s at rate 600\.0 "
                                         r"pkt/s drew no packet$"):
        generate_trace(sparse, 0.0005, seed=1)


def test_dataset_cardinality_two_classes():
    profiles = [profile(label="a"), profile(label="b")]
    traces = generate_dataset(profiles, 3, 10.0, seed=1)
    assert len(traces) == 6
    assert sum(t.label == "a" for t in traces) == 3
    assert sum(t.label == "b" for t in traces) == 3


def test_dataset_cardinality_three_classes():
    profiles = [profile(label=c) for c in ("utility", "media", "travel")]
    traces = generate_dataset(profiles, 5, 5.0, seed=1)
    assert len(traces) == 15
    for c in ("utility", "media", "travel"):
        assert sum(t.label == c for t in traces) == 5


def assert_same_traces(got: list[Trace], want: list[Trace]) -> None:
    """Equal labels, ids and columns, bit for bit and dtype for dtype."""
    assert [(t.label, t.trace_id) for t in got] == [(t.label, t.trace_id) for t in want]
    for a, b in zip(got, want):
        for name in ("timestamps", "lengths", "protocols", "src_ip", "dst_ip", "src_port",
                     "dst_port", "tcp_window"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (a.trace_id, name)


THREE_PROFILES = [profile(label=c, rate=r) for c, r in (("b", 90.0), ("a", 120.0), ("c", 60.0))]


def test_one_profile_draws_its_traces_of_the_whole_dataset():
    """A profile's traces do not depend on the other profiles, bit for bit."""
    whole = generate_dataset(THREE_PROFILES, 3, 5.0, seed=7)
    assert_same_traces([t for p in THREE_PROFILES for t in generate_dataset([p], 3, 5.0, seed=7)],
                       whole)


def test_a_range_of_indices_draws_those_traces_of_the_whole_dataset():
    """Trace k drawn alone is trace k of the whole dataset, bit for bit, and
    a range draws its traces in profile then index order: this lets the
    sweep draw each trace in its own job."""
    whole = generate_dataset(THREE_PROFILES, 3, 5.0, seed=7)
    for p, prof in enumerate(THREE_PROFILES):
        for k in range(3):
            assert_same_traces(
                generate_dataset([prof], 3, 5.0, seed=7, indices=range(k, k + 1)),
                [whole[3 * p + k]])
    assert_same_traces(generate_dataset(THREE_PROFILES, 3, 5.0, seed=7, indices=range(1, 3)),
                       [t for i, t in enumerate(whole) if i % 3])


@pytest.mark.parametrize("indices", [range(0), range(2, 1), range(0, 3, 2), range(-1, 1),
                                     range(2, 4), range(3, 4), [0, 1]])
def test_a_range_of_indices_must_be_a_contiguous_part_of_each_profile_s_traces(indices):
    with pytest.raises(ValueError, match=re.escape(
            f"indices must be a non-empty contiguous part of range(3), got {indices}")):
        generate_dataset(THREE_PROFILES, 3, 5.0, seed=7, indices=indices)


def test_master_seed_changes_contents_not_shape():
    profiles = [profile(label="a"), profile(label="b")]
    first = generate_dataset(profiles, 2, 10.0, seed=1)
    second = generate_dataset(profiles, 2, 10.0, seed=2)
    assert len(first) == len(second)
    assert [t.label for t in first] == [t.label for t in second]
    assert any(a.packets != b.packets for a, b in zip(first, second))


def test_generated_traces_satisfy_invariants_random_profiles():
    rng = np.random.default_rng(99)
    for _ in range(25):
        mix = rng.dirichlet([2.0, 1.0, 0.5])
        prof = profile(
            rate=float(rng.uniform(20, 500)),
            protocol_mix=(float(mix[0]), float(mix[1]), float(1 - mix[0] - mix[1])),
            length_mean=float(rng.uniform(60, 1400)),
            length_std=float(rng.uniform(0, 400)),
            window_mean=float(rng.uniform(0, 60000)),
            window_std=float(rng.uniform(0, 9000)),
            ip_pool_size=int(rng.integers(1, 20)),
            port_pool_size=int(rng.integers(1, 40)),
        )
        trace = generate_trace(prof, 3.0, seed=int(rng.integers(0, 2**63)))
        distinct_ips = {p.src_ip for p in trace.packets} | {
            p.dst_ip for p in trace.packets
        }
        assert len(distinct_ips) <= prof.ip_pool_size


def test_builtin_profiles_shapes():
    assert len(builtin_profiles("mic_onoff")) == 2
    assert len(builtin_profiles("mic_on_noise")) == 2
    assert len(builtin_profiles("utility_media_travel")) == 3
    with pytest.raises(ValueError):
        builtin_profiles("custom")


def test_packet_record_invariants():
    bad_rows = [
        (PacketRecord(0.0, 100, Protocol.UDP, 1, 2, 5, 6, tcp_window=9), "non-TCP"),
        (PacketRecord(0.0, 100, Protocol.ICMP, 1, 2, src_port=5), "carry no ports"),
        (PacketRecord(-1.0, 100, Protocol.TCP, 1, 2), "negative timestamp"),
        (PacketRecord(0.0, -1, Protocol.TCP, 1, 2), "negative length"),
        (PacketRecord(0.0, 100, Protocol.TCP, 1, 2, src_port=65536), "port out of range"),
        (PacketRecord(0.0, 100, Protocol.TCP, 1, 2, tcp_window=65536), "tcp_window out"),
        (PacketRecord(math.nan, 100, Protocol.TCP, 1, 2), "not finite"),
        (PacketRecord(math.inf, 100, Protocol.TCP, 1, 2), "not finite"),
        (PacketRecord(0.0, 100, Protocol.TCP, -7, 2), "IP token"),
        (PacketRecord(0.0, 100, Protocol.TCP, 1, 2**32), "IP token"),
    ]
    good = PacketRecord(0.0, 100, Protocol.TCP, 1, 2, 5, 6, tcp_window=9)
    for row, message in bad_rows:
        with pytest.raises(ValueError, match=f"packet 1: .*{message}"):
            trace_from_packets([good, row], label="x")
    with pytest.raises(ValueError, match="non-decreasing"):
        trace_from_packets([replace(good, timestamp=1.0), good], label="x")
    with pytest.raises(ValueError):
        trace_from_packets([], label="x")
    with pytest.raises(ValueError, match="^packet 0: ICMP and OTHER packets carry no ports$"):
        replace(trace_from_packets([good], label="x"), protocols=[Protocol.ICMP.code],
                tcp_window=[0])


def test_no_field_of_a_trace_can_be_assigned():
    """A trace is frozen. Giving a TCP trace with ports ICMP protocols by
    assignment would skip the packet checks and leave the extractor counting
    an ICMP packet's ports; it raises, as assigning any field does."""
    good = PacketRecord(0.0, 100, Protocol.TCP, 1, 2, 5, 6)
    trace = trace_from_packets([good, replace(good, timestamp=0.1, src_port=7),
                                replace(good, timestamp=0.2)], label="x")
    with pytest.raises(FrozenInstanceError):
        trace.protocols = np.full(3, Protocol.ICMP.code, dtype=np.int8)
    for field in fields(Trace):
        with pytest.raises(FrozenInstanceError):
            setattr(trace, field.name, getattr(trace, field.name))
    assert np.all(trace.protocols == Protocol.TCP.code)


def test_a_trace_is_named_when_drawn():
    """A lone trace is `<label>-0` unless named; a dataset's trace k of a
    profile is `<label>-k`, with the packets of the lone trace of its seed."""
    assert generate_trace(profile(), 1.0, seed=5).trace_id == "a-0"
    named = generate_trace(profile(), 1.0, seed=5, trace_id="a-7")
    assert named.trace_id == "a-7"
    assert_same_traces([replace(named, trace_id="a-0")], [generate_trace(profile(), 1.0, seed=5)])
    traces = generate_dataset([profile(label="a"), profile(label="b")], 2, 1.0, seed=3)
    assert [t.trace_id for t in traces] == ["a-0", "a-1", "b-0", "b-1"]


def test_row_view_round_trip():
    pcap = build_pcap([
        (0.0, ipv4_frame(Protocol.TCP, 11, 22, 1234, 443, tcp_window=4096)),
        (0.25, ipv4_frame(Protocol.UDP, 11, 33, 5353, 53)),
        (1.75, ipv4_frame(Protocol.ICMP, 11, 44)),
        (2.0, raw_frame(0x86DD)),
    ])
    parsed, _ = parse_pcap_with_stats(pcap, label="q")
    for trace in (generate_trace(profile(), 2.0, seed=5), parsed):
        back = trace_from_packets(trace.packets, trace.label, trace.trace_id)
        for name in ("timestamps", "lengths", "protocols", "src_ip", "dst_ip",
                     "src_port", "dst_port", "tcp_window"):
            column, again = getattr(trace, name), getattr(back, name)
            assert column.dtype == again.dtype and np.array_equal(column, again), name
        row = trace.packets[-1]
        assert type(row.timestamp) is float and type(row.tcp_window) is int
        assert isinstance(row.protocol, Protocol)
