"""Property-based fuzzing of the three input readers.

Whatever the input, `parse_pcap_with_stats` and `load_features_csv` either
return a result or raise `PcapFormatError` or `ValueError`
(`PcapFormatError` is a `ValueError`), and `config_from_dict` returns a
config or raises `ConfigError`. Any other exception is a crash on bad
input. A returned trace or config has met its constructor's checks, and on
captures with in-range sub-second fields the pcap parser must agree with the
per-record reference parser bit for bit. Examples are derandomized and few,
so the suite stays deterministic and quick.
"""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    MAGIC_MICROS,
    MAGIC_NANOS,
    assert_same_parse,
    ipv4_frame,
    raw_frame,
    reference_parse_pcap_with_stats,
)
from tpbench.features import FEATURE_NAMES, load_features_csv  # noqa: E402
from tpbench.harness import _ROOT_KEYS, ConfigError, config_from_dict  # noqa: E402
from tpbench.pcap import PcapFormatError, parse_pcap_with_stats  # noqa: E402
from tpbench.traffic import Protocol, builtin_profiles  # noqa: E402

FUZZ = settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

u32 = st.integers(0, 2**32 - 1)
u16 = st.integers(0, 2**16 - 1)


@st.composite
def frames(draw):
    """Ethernet frames: decodable IPv4 ones, other ethertypes and raw bytes,
    then maybe truncated or with one byte overwritten."""
    kind = draw(st.sampled_from(["ip", "ip", "raw", "bytes"]))
    if kind == "ip":
        frame = ipv4_frame(
            draw(st.sampled_from([Protocol.TCP, Protocol.UDP, Protocol.ICMP])),
            draw(u32), draw(u32), draw(u16), draw(u16), draw(u16),
            payload=draw(st.binary(max_size=12)), vlan=draw(st.booleans()),
        )
    elif kind == "raw":
        frame = raw_frame(draw(u16), draw(st.binary(max_size=30)))
    else:
        frame = draw(st.binary(max_size=60))
    if frame and draw(st.booleans()):
        at = draw(st.integers(0, len(frame) - 1))
        frame = frame[:at] + bytes([draw(st.integers(0, 255))]) + frame[at + 1 :]
    if draw(st.booleans()):
        frame = frame[: draw(st.integers(0, len(frame)))]
    return frame


@st.composite
def pcap_bytes(draw):
    """A classic pcap header (sometimes with a bad magic or link type) and a
    few records whose timestamps and lengths are drawn freely, sometimes cut
    short."""
    order = draw(st.sampled_from("<>"))
    magic = draw(st.sampled_from([MAGIC_MICROS, MAGIC_NANOS, MAGIC_MICROS, 0xDEADBEEF]))
    linktype = draw(st.sampled_from([1, 1, 1, 101]))
    blob = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)
    for _ in range(draw(st.integers(0, 6))):
        frame = draw(frames())
        incl = len(frame) if draw(st.integers(0, 4)) else draw(u32)
        blob += struct.pack(order + "IIII", draw(u32), draw(u32), incl, draw(u32)) + frame
    if draw(st.booleans()):
        blob = blob[: draw(st.integers(0, len(blob)))]
    return blob


_TCP = ipv4_frame(Protocol.TCP, 1, 2, 80, 81, tcp_window=100)
# Stamps (0 s, 0), (0 s, 1.5 s in microseconds), (1 s, 0): the middle
# record's ts_usec is a whole second or more, so the records sort into
# timestamps 0, 1.5, 1.0 unless the parser rejects it.
_SUB_SECOND_OVERFLOW = struct.pack("<IHHiIII", MAGIC_MICROS, 2, 4, 0, 0, 65535, 1) + b"".join(
    struct.pack("<IIII", sec, sub, len(_TCP), len(_TCP)) + _TCP
    for sec, sub in [(0, 0), (0, 1_500_000), (1, 0)]
)


@FUZZ
@given(pcap_bytes())
@example(_SUB_SECOND_OVERFLOW)
def test_parse_pcap_fuzz(data):
    try:
        trace, stats = parse_pcap_with_stats(data, label="fuzz")
    except ValueError:
        return
    assert stats.packets == trace.timestamps.size > 0
    assert trace.timestamps[0] == 0.0


@st.composite
def stamped_pcap_bytes(draw):
    """A valid classic pcap header and records with in-range sub-second
    fields, seconds often equal, frames from `frames()` behind up to two
    more VLAN tags; sometimes cut short."""
    order = draw(st.sampled_from("<>"))
    nanos = draw(st.booleans())
    unit = 10**9 if nanos else 10**6
    magic = MAGIC_NANOS if nanos else MAGIC_MICROS
    blob = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
    for _ in range(draw(st.integers(0, 8))):
        frame = draw(frames())
        for _ in range(draw(st.integers(0, 2))):
            tag = struct.pack(">HH", draw(st.sampled_from([0x8100, 0x88A8])), draw(u16))
            frame = frame[:12] + tag + frame[12:]
        sec = draw(st.one_of(st.integers(0, 2), u32))
        sub = draw(st.one_of(st.sampled_from([0, unit - 1]), st.integers(0, unit - 1)))
        blob += struct.pack(order + "IIII", sec, sub, len(frame), draw(u32)) + frame
    if draw(st.booleans()):
        blob = blob[: draw(st.integers(0, len(blob)))]
    return blob


# Nanosecond stamps (0 s, 0) and (2**24 s, 687 ns), past the 2**23 s span
# up to which the parse divides integer ticks by the unit: the division gives
# 16777216.00000069, the reference's `round` 16777216.000000685.
_NS_PAST_EXACT_SPAN = struct.pack("<IHHiIII", MAGIC_NANOS, 2, 4, 0, 0, 65535, 1) + b"".join(
    struct.pack("<IIII", sec, sub, len(_TCP), len(_TCP)) + _TCP
    for sec, sub in [(0, 0), (2**24, 687)]
)


@FUZZ
@given(stamped_pcap_bytes())
@example(_NS_PAST_EXACT_SPAN)
def test_parse_pcap_matches_reference_fuzz(data):
    try:
        expected = reference_parse_pcap_with_stats(data, label="fuzz")
    except PcapFormatError as exc:
        with pytest.raises(PcapFormatError) as caught:
            parse_pcap_with_stats(data, label="fuzz")
        assert str(caught.value) == str(exc)
        return
    assert_same_parse(parse_pcap_with_stats(data, label="fuzz"), expected)


# Cell values: well-formed numbers next to the kinds of token that have
# broken readers (non-finite, huge, negative, empty, text). A row draws all
# its cells from `clean` or all from `numbers`, so rows that get past the
# number parsing are common.
clean = st.one_of(st.integers(0, 70000).map(str), st.floats(0, 1e6).map(repr))
numbers = st.one_of(
    clean,
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "0x10", "1_0", "७", "--1"]),
    st.text(max_size=6),
)
_CSV_COLUMNS = list(FEATURE_NAMES) + ["label", "window_index", "trace_id", "transform"]


@st.composite
def features_csv_text(draw):
    """A feature CSV header (sometimes missing or shuffled columns) and rows
    of fuzzed cells, some with too few or too many of them, some quoted."""
    columns = list(_CSV_COLUMNS[:-1]) if draw(st.booleans()) else list(_CSV_COLUMNS)
    if draw(st.integers(0, 4)) == 0:
        columns = draw(st.permutations(columns))[: draw(st.integers(0, len(columns)))]
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 5))):
        n_cells = len(columns) + draw(st.sampled_from([0, 0, 0, -1, -5, 1]))
        cell = draw(st.sampled_from([clean, numbers]))
        cells = [draw(cell) for _ in range(max(0, n_cells))]
        for i, name in enumerate(columns[: len(cells)]):
            if name in ("label", "trace_id", "transform"):
                cells[i] = draw(st.sampled_from(["a", "b", "t0", "none", cells[i]]))
        if cells and draw(st.integers(0, 5)) == 0:
            cells[0] = '"' + cells[0]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@FUZZ
@given(features_csv_text())
def test_load_features_csv_fuzz(tmp_path, text):
    path = tmp_path / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    try:
        table = load_features_csv(path)
    except ValueError:
        return
    assert table.X.shape == (table.trace.size, len(FEATURE_NAMES)) and table.trace.size
    assert np.array_equal(np.unique(table.trace), np.arange(len(table.trace_ids)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8,
)
_CONFIG = {
    "scenario": "run", "traces_per_class": 2, "duration": 5.0, "train_fraction": 0.7,
    "seed": 0, "output_dir": "out", "burst_sizes": [100], "timespans": [0.5],
    "profiles": [asdict(p) for p in builtin_profiles("mic_onoff")],
    "transforms": [{"mode": "smooth", "window": 5}, {"mode": "awgn", "nu": 2.0}],
    "classifiers": [{"kind": "knn", "k": 3}, {"kind": "mlp", "hidden": [4]}],
}


@st.composite
def config_docs(draw):
    """A valid config with one to three places set to a random JSON value: a
    root key, a list entry or a field of an object entry."""
    doc = json.loads(json.dumps(_CONFIG))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(_ROOT_KEYS | {"x"})))
        value = draw(json_values)
        entries = doc.get(key)
        if not isinstance(entries, list) or not entries or draw(st.booleans()):
            doc[key] = value
            continue
        i = draw(st.integers(0, len(entries) - 1))
        if isinstance(entries[i], dict) and draw(st.booleans()):
            entries[i][draw(st.sampled_from(sorted(entries[i]) + ["x"]))] = value
        else:
            entries[i] = value
    return doc


@settings(FUZZ, max_examples=300)
@given(st.one_of(config_docs(), json_values))
@example({**_CONFIG, "transforms": 5})
@example({**_CONFIG, "classifiers": None})
@example({**_CONFIG, "transforms": [{"mode": ["smooth"]}]})
@example({**_CONFIG, "classifiers": [{"kind": ["knn"]}]})
def test_config_from_dict_fuzz(doc):
    try:
        config_from_dict(doc)
    except ConfigError:
        return
