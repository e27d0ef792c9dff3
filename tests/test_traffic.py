import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import build_pcap, ipv4_frame, raw_frame
from tpbench.pcap import parse_pcap_with_stats
from tpbench.traffic import (
    MAX_TRACE_PACKETS,
    ClassProfile,
    PacketRecord,
    Protocol,
    Scenario,
    Trace,
    builtin_profiles,
    generate_dataset,
    generate_trace,
    load_trace,
    save_trace,
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
        ({"length_mean": float("nan")}, "length_mean must be finite, got nan"),
        ({"rate": float("inf")}, "rate must be finite, got inf"),
        ({"protocol_mix": (0.5, float("nan"), 0.5)}, "protocol_mix must be three non-negative"),
        ({"port_pool_size": 65536}, "port_pool_size must be <= 65535"),
    ):
        with pytest.raises(ValueError, match=named):
            generate_trace(profile(**field), 5.0, seed=1)
    busy = profile(label="busy")
    with pytest.raises(ValueError, match=r"profile 'busy': duration .* s at rate .* pkt/s expects"):
        generate_trace(busy, 1.01 * MAX_TRACE_PACKETS / busy.rate, seed=1)


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


def test_dataset_rejects_single_profile():
    with pytest.raises(ValueError):
        generate_dataset([profile()], 3, 10.0, seed=1)


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
            jitter_std=float(rng.uniform(0, 0.001)),
        )
        trace = generate_trace(prof, 3.0, seed=int(rng.integers(0, 2**63)))
        trace.validate()
        distinct_ips = {p.src_ip for p in trace.packets} | {
            p.dst_ip for p in trace.packets
        }
        assert len(distinct_ips) <= prof.ip_pool_size


def test_builtin_profiles_shapes():
    assert len(builtin_profiles(Scenario.MIC_ONOFF)) == 2
    assert len(builtin_profiles(Scenario.MIC_ON_NOISE)) == 2
    assert len(builtin_profiles(Scenario.UTILITY_MEDIA_TRAVEL)) == 3
    with pytest.raises(ValueError):
        builtin_profiles(Scenario.CUSTOM)


def test_trace_text_round_trip(tmp_path):
    trace = generate_trace(profile(), 2.0, seed=5)
    trace.scenario = Scenario.MIC_ONOFF
    trace.trace_id = "a-0"
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    back = load_trace(path)
    assert back.packets == trace.packets
    assert back.label == trace.label
    assert back.scenario == trace.scenario
    assert back.trace_id == trace.trace_id


def test_load_trace_reports_bad_line(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("0.1,100,TCP,1,2,5,6\n")  # 7 fields
    with pytest.raises(ValueError, match="bad.trace:1"):
        load_trace(path)


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
            Trace.from_packets([good, row], label="x").validate()
    with pytest.raises(ValueError, match="non-decreasing"):
        Trace.from_packets([replace(good, timestamp=1.0), good], label="x").validate()
    with pytest.raises(ValueError):
        Trace.from_packets([], label="x").validate()


@pytest.mark.parametrize("row, message", [
    ("nan,100,TCP,1,2,5,6,9", "packet 1: timestamp is not finite"),
    ("inf,100,TCP,1,2,5,6,9", "packet 1: timestamp is not finite"),
    ("0.5,100,TCP,-7,2,5,6,9", "packet 1: IP token outside"),
    (f"0.5,100,TCP,{2**70},2,5,6,9", ""),  # overflows int64; wording is numpy's
    ("0.1,100,TCP,1,2,5,6,9", "packet 1: packet timestamps must be non-decreasing"),
])
def test_load_trace_validation_names_file(tmp_path, row, message):
    path = tmp_path / "bad.trace"
    path.write_text(f"0.2,100,TCP,1,2,5,6,9\n{row}\n")
    with pytest.raises(ValueError, match=f"bad.trace: {message}"):
        load_trace(path)


def test_row_view_round_trip():
    pcap = build_pcap([
        (0.0, ipv4_frame(Protocol.TCP, 11, 22, 1234, 443, tcp_window=4096)),
        (0.25, ipv4_frame(Protocol.UDP, 11, 33, 5353, 53)),
        (1.75, ipv4_frame(Protocol.ICMP, 11, 44)),
        (2.0, raw_frame(0x86DD)),
    ])
    parsed, _ = parse_pcap_with_stats(pcap, label="q")
    for trace in (generate_trace(profile(), 2.0, seed=5), parsed):
        back = Trace.from_packets(trace.packets, trace.label, trace.scenario, trace.trace_id)
        for name in ("timestamps", "lengths", "protocols", "src_ip", "dst_ip",
                     "src_port", "dst_port", "tcp_window"):
            column, again = getattr(trace, name), getattr(back, name)
            assert column.dtype == again.dtype and np.array_equal(column, again), name
        row = trace.packets[-1]
        assert type(row.timestamp) is float and type(row.tcp_window) is int
        assert isinstance(row.protocol, Protocol)
