import struct

import numpy as np
import pytest

from helpers import (
    MAGIC_MICROS,
    MAGIC_NANOS,
    assert_same_parse,
    build_pcap,
    ipv4_frame,
    raw_frame,
    reference_parse_pcap_with_stats,
)
from tpbench.pcap import PcapFormatError, parse_pcap_with_stats
from tpbench.traffic import Protocol


def two_packet_records():
    tcp = ipv4_frame(Protocol.TCP, src_ip=0x0A000001, dst_ip=0x0A000002,
                     src_port=4000, dst_port=443, tcp_window=512, payload=b"x" * 6)
    udp = ipv4_frame(Protocol.UDP, src_ip=0x0A000001, dst_ip=0x0A000003,
                     src_port=5000, dst_port=53, payload=b"y" * 30)
    return [(10.000001, tcp), (10.500001, udp)]


def test_hand_crafted_fixture_fields():
    records = two_packet_records()
    trace, _ = parse_pcap_with_stats(build_pcap(records, orig_lengths=[60, 80]), label="q")
    assert len(trace.packets) == 2
    first, second = trace.packets
    assert first.timestamp == 0.0  # rebased
    assert second.timestamp == pytest.approx(0.5, abs=1e-9)
    assert first.protocol is Protocol.TCP
    assert (first.length, first.tcp_window) == (60, 512)
    assert (first.src_port, first.dst_port) == (4000, 443)
    assert (first.src_ip, first.dst_ip) == (0x0A000001, 0x0A000002)
    assert second.protocol is Protocol.UDP
    assert (second.length, second.src_port, second.dst_port) == (80, 5000, 53)
    assert second.tcp_window == 0


@pytest.mark.parametrize("byte_order", ["<", ">"])
@pytest.mark.parametrize("nanos", [False, True])
def test_all_magic_variants_parse_identically(byte_order, nanos):
    records = two_packet_records()
    reference, _ = parse_pcap_with_stats(build_pcap(records), label="q")
    blob = build_pcap(records, byte_order=byte_order, nanos=nanos)
    variant, _ = parse_pcap_with_stats(blob, label="q")
    assert variant.packets == reference.packets


def test_empty_file_is_fatal():
    with pytest.raises(PcapFormatError):
        parse_pcap_with_stats(b"", label="q")


def test_bad_magic_is_fatal():
    with pytest.raises(PcapFormatError, match="magic"):
        parse_pcap_with_stats(b"\x00" * 64, label="q")


def test_unsupported_linktype_is_fatal():
    blob = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)  # raw IP
    with pytest.raises(PcapFormatError, match="link type"):
        parse_pcap_with_stats(blob, label="q")


def test_truncated_record_returns_partial_trace():
    records = two_packet_records()
    blob = build_pcap(records)
    trace, stats = parse_pcap_with_stats(blob[:-10], label="q")
    assert len(trace.packets) == 1
    assert stats.truncated_records == 1
    assert stats.packets == 1


def test_truncated_record_header_counts_too():
    blob = build_pcap(two_packet_records())
    # cut inside the second record's 16-byte header
    head_len = 24 + 16 + len(two_packet_records()[0][1])
    trace, stats = parse_pcap_with_stats(blob[: head_len + 7], label="q")
    assert len(trace.packets) == 1
    assert stats.truncated_records == 1


def test_zero_packet_capture_is_fatal():
    blob = build_pcap([])
    with pytest.raises(PcapFormatError, match="no decodable packets"):
        parse_pcap_with_stats(blob, label="q")


def test_out_of_order_records_sorted_and_counted():
    tcp = ipv4_frame(Protocol.TCP, 1, 2, 80, 81, tcp_window=100)
    records = [(5.0, tcp), (4.0, tcp), (6.0, tcp)]
    trace, stats = parse_pcap_with_stats(build_pcap(records), label="q")
    stamps = [p.timestamp for p in trace.packets]
    assert stamps == sorted(stamps)
    assert stats.reordered_packets == 1


def test_vlan_tag_skipped():
    frame = ipv4_frame(Protocol.TCP, 7, 8, 1000, 2000, tcp_window=333, vlan=True)
    trace, _ = parse_pcap_with_stats(build_pcap([(0.0, frame), (0.1, frame)]), label="q")
    assert trace.packets[0].protocol is Protocol.TCP
    assert trace.packets[0].tcp_window == 333


def test_non_ipv4_maps_to_other():
    arp = raw_frame(0x0806)
    ipv6 = raw_frame(0x86DD)
    trace, _ = parse_pcap_with_stats(build_pcap([(0.0, arp), (0.5, ipv6)]), label="q")
    for packet in trace.packets:
        assert packet.protocol is Protocol.OTHER
        assert packet.src_port == packet.dst_port == packet.tcp_window == 0


def test_snapped_tcp_header_zeroes_l4_fields():
    frame = ipv4_frame(Protocol.TCP, 1, 2, 80, 81, tcp_window=100)
    cut = frame[: 14 + 20 + 4]  # ports visible, window snapped off
    blob = build_pcap([(0.0, cut), (0.1, cut)], orig_lengths=[len(frame), len(frame)])
    trace, _ = parse_pcap_with_stats(blob, label="q")
    p = trace.packets[0]
    assert p.protocol is Protocol.TCP
    assert p.length == len(frame)  # original length, not captured length
    assert (p.src_port, p.dst_port, p.tcp_window) == (0, 0, 0)


def test_round_trip_matches_writer():
    # writer-side truth: fields used to build the frames come back exactly
    specs = [
        (0.0, Protocol.TCP, 11, 22, 1234, 443, 4096),
        (0.25, Protocol.UDP, 11, 33, 5353, 53, 0),
        (1.75, Protocol.ICMP, 11, 44, 0, 0, 0),
    ]
    records = []
    for ts, proto, src, dst, sport, dport, window in specs:
        records.append((ts, ipv4_frame(proto, src, dst, sport, dport, window)))
    trace, _ = parse_pcap_with_stats(build_pcap(records, byte_order=">"), label="rt")
    assert len(trace.packets) == len(specs)
    for packet, (ts, proto, src, dst, sport, dport, window) in zip(trace.packets, specs):
        assert packet.timestamp == pytest.approx(ts, abs=1e-9)
        assert packet.protocol is proto
        assert (packet.src_ip, packet.dst_ip) == (src, dst)
        assert (packet.src_port, packet.dst_port) == (sport, dport)
        assert packet.tcp_window == window


@pytest.mark.parametrize("nanos", [False, True])
def test_out_of_range_sub_second_field_is_fatal(nanos):
    frame = ipv4_frame(Protocol.TCP, 1, 2, 80, 81, tcp_window=100)
    unit = 10**9 if nanos else 10**6
    magic = MAGIC_NANOS if nanos else MAGIC_MICROS
    blob = struct.pack("<IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
    for sec, sub in [(0, 0), (0, unit + unit // 2), (1, 0)]:
        blob += struct.pack("<IIII", sec, sub, len(frame), len(frame)) + frame
    field = "ts_nsec" if nanos else "ts_usec"
    offset = 24 + 16 + len(frame)
    with pytest.raises(PcapFormatError, match=rf"record 1 \(byte offset {offset}\): {field}"):
        parse_pcap_with_stats(blob, label="q")


# --- vectorised decode against the per-record oracle -------------------------

MACS = b"\x02" * 6 + b"\x04" * 6


def ether(tags: list[int], ethertype: int, payload: bytes) -> bytes:
    """An Ethernet frame with one 802.1Q/802.1ad tag per TPID in `tags`."""
    stack = b"".join(struct.pack(">HH", tpid, 7) for tpid in tags)
    return MACS + stack + struct.pack(">H", ethertype) + payload


def ipv4(proto: int, l4: bytes, version: int = 4, ihl: int = 5, frag: int = 0) -> bytes:
    """An IP header with `ihl` words (options zero-filled), then `l4`."""
    header = struct.pack(
        ">BBHHHBBHII", version << 4 | ihl, 0, 0, 1, frag, 64, proto, 0, 0x0A000001, 0xC0A80002
    )
    return header + bytes(4 * max(ihl - 5, 0)) + l4


L4 = bytes(range(1, 41))  # distinct bytes, so a field read at a wrong offset shows
EDGE_FRAMES = [
    b"",
    MACS[:13],  # shorter than an Ethernet header
    MACS + b"\x81\x00\x00",  # a VLAN tag cut short
    ether([0x8100, 0x88A8], 0x0800, b"")[:-3],  # the second tag cut short
    ether([0x88A8, 0x8100, 0x8100], 0x0800, ipv4(6, L4)),
    ether([], 0x86DD, L4),  # IPv6
    ether([0x8100], 0x0806, L4[:28]),  # ARP
    ether([], 0x0800, ipv4(6, L4)[:19]),  # IP header snapped
    ether([], 0x0800, ipv4(6, L4, version=6)),  # version is not 4
    ether([], 0x0800, ipv4(17, L4, ihl=4)),  # IHL below 5
    ether([], 0x0800, ipv4(6, L4, ihl=7)),  # options
    ether([], 0x0800, ipv4(6, b"", ihl=15)),  # IHL past the frame end
    ether([], 0x0800, ipv4(47, L4)),  # GRE: not decoded
    ether([], 0x0800, ipv4(6, L4, frag=0x2005)),  # non-first fragment
    ether([], 0x0800, ipv4(17, L4, frag=0x4000)),  # DF set, offset 0
    ether([], 0x0800, ipv4(1, L4)),  # ICMP
    *(ether([], 0x0800, ipv4(6, L4[:n])) for n in (4, 15, 16)),  # TCP window cut off, then not
    *(ether([0x8100], 0x0800, ipv4(17, L4[:n])) for n in (0, 3, 4)),  # UDP ports likewise
]


def random_frame(rng: np.random.Generator) -> bytes:
    """A frame for one of the decoder's branches, maybe snapped anywhere."""
    tags = [int(rng.choice([0x8100, 0x88A8])) for _ in range(int(rng.integers(0, 4)))]
    ethertype = int(rng.choice([0x0800] * 4 + [0x86DD, 0x0806, int(rng.integers(0, 2**16))]))
    l4 = rng.bytes(int(rng.integers(0, 41)))
    if ethertype == 0x0800:
        payload = ipv4(
            proto=int(rng.choice([6, 17, 1, 6, 17, int(rng.integers(0, 256))])),
            l4=l4,
            version=4 if rng.random() < 0.9 else int(rng.integers(0, 16)),
            ihl=int(rng.choice([5, 5, 5, int(rng.integers(0, 16))])),
            frag=0 if rng.random() < 0.7 else int(rng.integers(0, 2**16)),
        )
    else:
        payload = l4
    frame = ether(tags, ethertype, payload)
    if rng.random() < 0.3:
        frame = frame[: int(rng.integers(0, len(frame) + 1))]
    return frame


def random_capture(rng: np.random.Generator, byte_order: str, nanos: bool) -> bytes:
    """Edge and random frames in random order, stamped from a few seconds
    and sub-second values so that equal and reordered stamps are common,
    with an original length of at least the captured one; sometimes cut
    inside the last record's header or frame."""
    unit = 10**9 if nanos else 10**6
    frames = EDGE_FRAMES + [random_frame(rng) for _ in range(int(rng.integers(1, 60)))]
    blob = struct.pack(
        byte_order + "IHHiIII", MAGIC_NANOS if nanos else MAGIC_MICROS, 2, 4, 0, 0, 65535, 1
    )
    for k in rng.permutation(len(frames)):
        frame = frames[k]
        sec = int(rng.integers(1_600_000_000, 1_600_000_003))
        sub = int(rng.choice([0, 1, unit - 1, int(rng.integers(0, unit))]))
        orig = len(frame) + int(rng.choice([0, 0, int(rng.integers(0, 1500))]))
        last = len(blob)
        blob += struct.pack(byte_order + "IIII", sec, sub, len(frame), orig) + frame
    cut = rng.choice(["none", "header", "frame"])
    if cut == "header":
        blob = blob[: last + int(rng.integers(1, 16))]
    elif cut == "frame" and len(frame):
        blob = blob[: last + 16 + int(rng.integers(0, len(frame)))]
    return blob


@pytest.mark.parametrize("byte_order", ["<", ">"])
@pytest.mark.parametrize("nanos", [False, True])
def test_vectorised_decode_matches_per_record_reference(byte_order, nanos):
    rng = np.random.default_rng(7 + 2 * nanos + (byte_order == ">"))
    # Each edge frame also ends a capture of its own, where a read past the
    # frame's end would run off the buffer.
    last_edges = [
        build_pcap([(0.5, EDGE_FRAMES[4]), (0.25, frame)], byte_order, nanos)
        for frame in EDGE_FRAMES
    ]
    for blob in last_edges + [random_capture(rng, byte_order, nanos) for _ in range(25)]:
        expected = reference_parse_pcap_with_stats(blob, label="q", trace_id="t")
        assert_same_parse(parse_pcap_with_stats(blob, label="q", trace_id="t"), expected)
