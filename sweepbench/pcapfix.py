"""Classic-pcap fixtures for the pcap_extract workload.

The packets come from this file's own generator, not from tpbench's, so the
fixtures stay the same when the program's generator or trace representation
changes. The class parameters are those of tpbench's `mic_on_noise` preset.

Each record is written with microsecond timestamps on an Ethernet link. It
holds the Ethernet, IPv4 and TCP-sized L4 headers (UDP and ICMP headers are
zero-padded to that size), and its `orig_len` is the packet's generated
length, which the parser reports as the packet length.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# label, rate (packets/s), (P(TCP), P(UDP), P(ICMP)), length mean, length std,
# TCP window mean, TCP window std, IP pool size, port pool size
MIC_ON_NOISE = (
    ("mic_quiet", 800.0, (0.80, 0.15, 0.05), 420.0, 140.0, 8000.0, 2500.0, 5, 10),
    ("mic_noise", 1250.0, (0.88, 0.09, 0.03), 900.0, 260.0, 18000.0, 5200.0, 10, 20),
)

IP_PROTO = np.array([6, 17, 1], dtype=np.uint8)  # TCP, UDP, ICMP
SNAPLEN = 54  # Ethernet 14 + IPv4 20 + TCP 20 bytes
MIN_LEN = 60  # shortest Ethernet frame without FCS; always >= SNAPLEN
MAX_LEN = 1514
EPOCH = 1_600_000_000  # seconds; first packet's capture time

GLOBAL_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)

RECORD = np.dtype(
    [
        ("ts_sec", "<u4"), ("ts_usec", "<u4"), ("incl_len", "<u4"), ("orig_len", "<u4"),
        ("eth_dst", "V6"), ("eth_src", "V6"), ("ethertype", ">u2"),
        ("ver_ihl", "u1"), ("tos", "u1"), ("ip_len", ">u2"), ("ip_id", ">u2"),
        ("frag", ">u2"), ("ttl", "u1"), ("proto", "u1"), ("ip_csum", ">u2"),
        ("src_ip", ">u4"), ("dst_ip", ">u4"),
        ("sport", ">u2"), ("dport", ">u2"), ("seq", ">u4"), ("ack", ">u4"),
        ("off_flags", ">u2"), ("window", ">u2"), ("l4_csum", ">u2"), ("urg", ">u2"),
    ]
)


def generate_packets(profile: tuple, duration: float, rng: np.random.Generator) -> dict:
    """Packet columns for one trace: integer microsecond stamps, lengths,
    IP protocol numbers, IP tokens, ports (0 for ICMP) and TCP windows
    (0 unless TCP)."""
    _label, rate, mix, len_mean, len_std, win_mean, win_std, n_ips, n_ports = profile
    n_max = int(duration * rate * 1.5) + 64
    gaps = np.maximum(np.rint(rng.exponential(1e6 / rate, size=n_max)), 1).astype(np.int64)
    t_us = np.cumsum(gaps) - gaps[0]
    n = int(np.searchsorted(t_us, int(duration * 1e6)))
    t_us = t_us[:n]

    proto = IP_PROTO[rng.choice(3, size=n, p=np.asarray(mix))]
    tcp = proto == 6
    ported = proto != 1
    ips = rng.choice(2**32 - 1, size=n_ips, replace=False).astype(np.int64) + 1
    ports = rng.choice(65535, size=n_ports, replace=False).astype(np.int64) + 1
    length = np.clip(np.rint(rng.normal(len_mean, len_std, size=n)), MIN_LEN, MAX_LEN)
    window = np.clip(np.rint(rng.normal(win_mean, win_std, size=n)), 0, 65535)
    return {
        "t_us": t_us,
        "length": length.astype(np.int64),
        "proto": proto,
        "src_ip": np.full(n, ips[0]),
        "dst_ip": ips[rng.integers(0, n_ips, size=n)],
        "src_port": np.where(ported, ports[rng.integers(0, n_ports, size=n)], 0),
        "dst_port": np.where(ported, ports[rng.integers(0, n_ports, size=n)], 0),
        "window": np.where(tcp, window, 0).astype(np.int64),
    }


def pcap_bytes(packets: dict) -> bytes:
    """A little-endian, microsecond, Ethernet classic pcap of `packets`."""
    n = packets["t_us"].size
    rec = np.zeros(n, dtype=RECORD)
    stamps = packets["t_us"] + EPOCH * 1_000_000
    rec["ts_sec"] = stamps // 1_000_000
    rec["ts_usec"] = stamps % 1_000_000
    rec["incl_len"] = SNAPLEN
    rec["orig_len"] = packets["length"]
    rec["ethertype"] = 0x0800
    rec["ver_ihl"] = 0x45
    rec["ip_len"] = packets["length"] - 14
    rec["ttl"] = 64
    rec["proto"] = packets["proto"]
    rec["src_ip"] = packets["src_ip"]
    rec["dst_ip"] = packets["dst_ip"]
    rec["sport"] = packets["src_port"]
    rec["dport"] = packets["dst_port"]
    udp = packets["proto"] == 17
    rec["seq"] = np.where(udp, (packets["length"] - 34) << 16, 0)  # UDP length field
    rec["off_flags"] = np.where(packets["proto"] == 6, 0x5010, 0)  # 20-byte header, ACK
    rec["window"] = packets["window"]
    return GLOBAL_HEADER + rec.tobytes()


def write_fixtures(directory: Path, seed: int, traces_per_class: int, duration: float) -> dict:
    """Write one pcap per trace into `directory`; returns {file name: label}."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    labels = {}
    for profile in MIC_ON_NOISE:
        for k in range(traces_per_class):
            name = f"{profile[0]}-{k}.pcap"
            (directory / name).write_bytes(pcap_bytes(generate_packets(profile, duration, rng)))
            labels[name] = profile[0]
    return labels
