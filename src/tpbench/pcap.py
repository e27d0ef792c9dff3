"""Classic pcap parsing into Trace objects.

Supports the classic (non-pcapng) format only: 24-byte global header, 16-byte
per-record headers, both byte orders, microsecond and nanosecond timestamp
magics, Ethernet link type. IPv4 TCP/UDP/ICMP packets are decoded into all
trace columns; stacks of 802.1Q/802.1ad VLAN tags are skipped transparently;
anything else (IPv6, ARP, non-first IP fragments, L4 headers cut off by the
snap length) falls back to protocol OTHER / zeroed ports and window. Packet
length comes from the record's original (un-snapped) length field. A record
whose sub-second field is a whole second or more is a format error.

Decoding is vectorised: one Python loop reads only each record header's
`incl_len` to find where the frames start (and whether the stream is cut
short), collecting the offsets in an `array`; the 16 header bytes of every
record are then gathered at once, as rows of a sliding view of the bytes,
and every frame field through one view of the bytes as an integer starting
at every byte, only where that frame's length allows it, so no gather
builds an index matrix. A timestamp is the difference of the exact integer
stamps (seconds times the unit, plus the sub-second field) divided once by
the unit; Python's `round` of the float difference is kept only for nanosecond
captures spanning 2**23 s or more, past the bound where the two agree.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tpbench.traffic import Protocol, Trace

MAGIC_MICROS_BE = 0xA1B2C3D4
MAGIC_NANOS_BE = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER_LEN = 24
_RECORD_HEADER_LEN = 16

# A nanosecond capture's span, in ticks, from which timestamps keep `round`
_NS_EXACT_TICKS = 2**23 * 1_000_000_000

_ETHERTYPE_IPV4 = 0x0800
_VLAN_ETHERTYPES = (0x8100, 0x88A8)

# IP protocol number -> Protocol; OTHER for numbers not decoded
_IP_PROTO_CODES = np.full(256, Protocol.OTHER, dtype=np.int64)
_IP_PROTO_CODES[[6, 17, 1]] = [Protocol.TCP, Protocol.UDP, Protocol.ICMP]


class PcapFormatError(ValueError):
    """Unrecoverable problem with the capture file itself."""


@dataclass(frozen=True)
class PcapHeader:
    byte_order: str  # '<' or '>'
    nanosecond: bool


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
            (linktype,) = struct.unpack(order + "I", data[20:_GLOBAL_HEADER_LEN])
            if linktype != LINKTYPE_ETHERNET:
                raise PcapFormatError(f"unsupported link type {linktype}; only Ethernet")
            return PcapHeader(byte_order=order, nanosecond=(magic == MAGIC_NANOS_BE))
    raise PcapFormatError(f"bad pcap magic 0x{data[:4].hex()}")


def _gather(buf: np.ndarray, at: np.ndarray, dtype: str) -> np.ndarray:
    """The `dtype` integer stored at each byte offset in `at`, as int64, read
    through a view of `buf` as one `dtype` integer starting at every byte."""
    dtype = np.dtype(dtype)
    every_byte = np.ndarray(buf.size - dtype.itemsize + 1, dtype, buf, strides=(1,))
    return every_byte[at].astype(np.int64)


def _record_starts(data: bytes, byte_order: str) -> tuple[array, bool]:
    """Byte offset of every complete record's frame, as 64-bit integers, and
    whether the stream ends inside a record. Reads only `incl_len` from
    each record header."""
    incl_len_at = struct.Struct(byte_order + "8xI").unpack_from  # at a record header
    size, header = len(data), _RECORD_HEADER_LEN
    last_header = size - header
    starts = array("q")
    add = starts.append
    pos = _GLOBAL_HEADER_LEN
    while pos <= last_header:
        (incl_len,) = incl_len_at(data, pos)
        pos += header
        add(pos)
        pos += incl_len
    if pos > size:  # the last frame runs past the end
        starts.pop()
    return starts, pos != size


def _decode_frames(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, ...]:
    """(protocol code, src_ip, dst_ip, src_port, dst_port, tcp_window) columns
    for the Ethernet frames at buf[start:end]; OTHER with zeroed fields where
    a frame is not decodable IPv4. Every gather reads only bytes its frame's
    length check has shown to be inside that frame."""
    n = start.size
    proto = np.full(n, Protocol.OTHER, dtype=np.int64)
    src_ip, dst_ip, src_port, dst_port, window = (np.zeros(n, dtype=np.int64) for _ in range(5))

    # `pos` is each frame's current ethertype field; every VLAN tag moves it
    # on by 4 bytes, to the ethertype the tag carries in its last two.
    live = end - start >= 14
    pos = start + 12
    ethertype = np.zeros(n, dtype=np.int64)
    ethertype[live] = _gather(buf, pos[live], ">u2")
    tagged = live & np.isin(ethertype, _VLAN_ETHERTYPES)
    while tagged.any():
        cut = tagged & (end < pos + 6)  # the tag is cut short
        live &= ~cut
        tagged &= ~cut
        pos[tagged] += 4
        ethertype[tagged] = _gather(buf, pos[tagged], ">u2")
        tagged &= np.isin(ethertype, _VLAN_ETHERTYPES)

    ip = pos + 2
    i = np.flatnonzero(live & (ethertype == _ETHERTYPE_IPV4) & (end - ip >= 20))
    ip = ip[i]
    version_ihl = buf[ip].astype(np.int64)
    header_len = (version_ihl & 0x0F) * 4
    code = _IP_PROTO_CODES[buf[ip + 9]]
    ok = (
        (version_ihl >> 4 == 4) & (header_len >= 20) & (end[i] - ip >= header_len)
        & (code != Protocol.OTHER)
    )
    i, ip, header_len, code = i[ok], ip[ok], header_len[ok], code[ok]
    proto[i] = code
    src_ip[i] = _gather(buf, ip + 12, ">u4")
    dst_ip[i] = _gather(buf, ip + 16, ">u4")

    # Non-first fragments carry no L4 header; TCP needs 16 L4 bytes to
    # reach the window field, UDP 4 for the ports. ICMP has no ports.
    first = _gather(buf, ip + 6, ">u2") & 0x1FFF == 0
    l4 = ip + header_len
    room = end[i] - l4
    tcp = first & (code == Protocol.TCP) & (room >= 16)
    ported = tcp | (first & (code == Protocol.UDP) & (room >= 4))
    src_port[i[ported]] = _gather(buf, l4[ported], ">u2")
    dst_port[i[ported]] = _gather(buf, l4[ported] + 2, ">u2")
    window[i[tcp]] = _gather(buf, l4[tcp] + 14, ">u2")
    return proto, src_ip, dst_ip, src_port, dst_port, window


def parse_pcap_with_stats(data: bytes, label: str, trace_id: str = "") -> tuple[Trace, PcapStats]:
    """Parse a classic pcap byte stream.

    Timestamps are rebased so the first packet is at t = 0. Out-of-order
    records are tolerated: packets are stable-sorted by timestamp and each
    packet arriving earlier than a predecessor bumps the reorder counter.
    A truncated record stops parsing; packets decoded so far are returned
    with the truncation counted in the stats. A sub-second field of a
    whole second or more is a format error.
    """
    header = parse_global_header(data)
    starts, truncated = _record_starts(data, header.byte_order)
    if not starts:
        raise PcapFormatError("capture contains no decodable packets")

    buf = np.frombuffer(data, dtype=np.uint8)
    start = np.frombuffer(starts, dtype=np.int64)
    headers = np.lib.stride_tricks.sliding_window_view(buf, _RECORD_HEADER_LEN)[
        start - _RECORD_HEADER_LEN]
    ts_sec, ts_sub, incl_len, orig_len = headers.view(header.byte_order + "u4").astype(np.int64).T
    subsec_unit = 1_000_000_000 if header.nanosecond else 1_000_000
    bad = np.flatnonzero(ts_sub >= subsec_unit)
    if bad.size:
        k = int(bad[0])
        field = "ts_nsec" if header.nanosecond else "ts_usec"
        raise PcapFormatError(
            f"record {k} (byte offset {starts[k] - _RECORD_HEADER_LEN}): "
            f"{field} {ts_sub[k]} is not below {subsec_unit}"
        )
    columns = _decode_frames(buf, start, start + incl_len)

    key = ts_sec * subsec_unit + ts_sub  # orders as (ts_sec, ts_sub); below 2**63
    reordered = np.count_nonzero(key[1:] < np.maximum.accumulate(key)[:-1])
    order = np.argsort(key, kind="stable")  # equal stamps keep capture order
    ticks = key[order] - key[order[0]]
    if not header.nanosecond or ticks[-1] < _NS_EXACT_TICKS:
        # One correctly rounded division, equal to the `round` below: while
        # the span is under 2**32 s in microseconds or 2**23 s in
        # nanoseconds, `rel` is within half a unit of the last digit of the
        # exact ticks / unit, so `round` gives that value's nearest float;
        # and ticks stay below 2**53, so the division gives it too.
        timestamps = ticks / subsec_unit
    else:
        # A nanosecond capture spanning 2**23 s or more: here the float
        # error of `rel` can reach half a nanosecond, so `round` may land on
        # the neighbouring digit. The division would not follow it, so the
        # parse keeps this expression, which defines the timestamps.
        ts_sec, ts_sub = ts_sec[order], ts_sub[order]
        rel = (ts_sec - ts_sec[0]) + (ts_sub - ts_sub[0]) / subsec_unit
        # round(), not np.round: np.round scales by 10**9 first, which can
        # land one ulp away from the correctly rounded value.
        timestamps = [round(t, 9) for t in rel.tolist()]
    stats = PcapStats(
        packets=len(starts),
        truncated_records=int(truncated),
        reordered_packets=int(reordered),
        unrecognized_packets=int(np.count_nonzero(columns[0] == Protocol.OTHER)),
    )
    trace = Trace(
        timestamps, orig_len[order], *(column[order] for column in columns),
        label=label, trace_id=trace_id,
    )
    return trace, stats


def load_pcap(path: str | Path, label: str) -> Trace:
    """The trace of the capture at `path`; format errors name the file."""
    path = Path(path)
    try:
        trace, _stats = parse_pcap_with_stats(path.read_bytes(), label, path.stem)
    except PcapFormatError as exc:
        raise PcapFormatError(f"{path}: {exc}") from exc
    return trace
