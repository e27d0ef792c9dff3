"""Classic pcap parsing into Trace objects.

Supports the classic (non-pcapng) format only: 24-byte global header, 16-byte
per-record headers, both byte orders, microsecond and nanosecond timestamp
magics, Ethernet link type. IPv4 TCP/UDP/ICMP packets are decoded into all
trace columns; 802.1Q VLAN tags are skipped transparently; anything else
(IPv6, ARP, non-first IP fragments, L4 headers cut off by the snap length)
falls back to protocol OTHER / zeroed ports and window. Packet length comes
from the record's original (un-snapped) length field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tpbench.traffic import Protocol, Scenario, Trace

MAGIC_MICROS_BE = 0xA1B2C3D4
MAGIC_NANOS_BE = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER_LEN = 24
_RECORD_HEADER_LEN = 16

_ETHERTYPE_IPV4 = 0x0800
_VLAN_ETHERTYPES = (0x8100, 0x88A8)

_IP_PROTO = {6: Protocol.TCP, 17: Protocol.UDP, 1: Protocol.ICMP}


class PcapFormatError(ValueError):
    """Unrecoverable problem with the capture file itself."""


@dataclass(frozen=True)
class PcapHeader:
    byte_order: str  # '<' or '>'
    nanosecond: bool
    version_major: int
    version_minor: int
    snaplen: int
    linktype: int


@dataclass
class PcapStats:
    packets: int = 0
    truncated_records: int = 0  # 1 when the byte stream ended mid-record
    reordered_packets: int = 0  # packets timestamped before an earlier packet
    unrecognized_packets: int = 0  # mapped to protocol OTHER


def parse_global_header(data: bytes) -> PcapHeader:
    if len(data) < _GLOBAL_HEADER_LEN:
        raise PcapFormatError(
            f"file too short for a pcap global header ({len(data)} bytes)"
        )
    for order in ("<", ">"):
        magic = struct.unpack(order + "I", data[:4])[0]
        if magic in (MAGIC_MICROS_BE, MAGIC_NANOS_BE):
            vmaj, vmin, _zone, _sigfigs, snaplen, linktype = struct.unpack(
                order + "HHiIII", data[4:_GLOBAL_HEADER_LEN]
            )
            if linktype != LINKTYPE_ETHERNET:
                raise PcapFormatError(f"unsupported link type {linktype}; only Ethernet")
            return PcapHeader(
                byte_order=order,
                nanosecond=(magic == MAGIC_NANOS_BE),
                version_major=vmaj,
                version_minor=vmin,
                snaplen=snaplen,
                linktype=linktype,
            )
    raise PcapFormatError(f"bad pcap magic 0x{data[:4].hex()}")


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


def parse_pcap_with_stats(
    data: bytes, label: str, scenario: Scenario = Scenario.CUSTOM, trace_id: str = ""
) -> tuple[Trace, PcapStats]:
    """Parse a classic pcap byte stream.

    Timestamps are rebased so the first packet is at t = 0. Out-of-order
    records are tolerated: packets are stable-sorted by timestamp and each
    packet arriving earlier than a predecessor bumps the reorder counter.
    A truncated record stops parsing; packets decoded so far are returned
    with the truncation counted in the stats.
    """
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
            (ts_sec, ts_sub, orig_len, proto.code, src_ip, dst_ip, src_port, dst_port, window)
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
    trace = Trace(timestamps, *columns, label=label, scenario=scenario, trace_id=trace_id)
    return trace, stats


def parse_pcap(
    data: bytes, label: str, scenario: Scenario = Scenario.CUSTOM, trace_id: str = ""
) -> Trace:
    trace, _stats = parse_pcap_with_stats(data, label, scenario, trace_id)
    return trace


def load_pcap(path: str | Path, label: str, scenario: Scenario = Scenario.CUSTOM) -> Trace:
    path = Path(path)
    return parse_pcap(path.read_bytes(), label, scenario, trace_id=path.stem)
