"""Checks of the sweep benchmark's own machinery.

    python3 -m pytest sweepbench/tests -q
"""

import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pcapfix  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
from tpbench import harness  # noqa: E402
from tpbench.pcap import parse_pcap_with_stats  # noqa: E402
from tpbench.traffic import Protocol  # noqa: E402


def test_pcap_writer_round_trip():
    rng = np.random.default_rng(5)
    for profile in pcapfix.MIC_ON_NOISE:
        packets = pcapfix.generate_packets(profile, 3.0, rng)
        trace, stats = parse_pcap_with_stats(pcapfix.pcap_bytes(packets), profile[0])
        n = packets["t_us"].size
        assert (stats.packets, stats.truncated_records, stats.reordered_packets,
                stats.unrecognized_packets) == (n, 0, 0, 0)
        protocols = {6: Protocol.TCP, 17: Protocol.UDP, 1: Protocol.ICMP}
        expected = [
            (round(t / 1e6, 6), ln, protocols[pr], si, di, sp, dp, wn)
            for t, ln, pr, si, di, sp, dp, wn in zip(
                *(packets[k].tolist() for k in (
                    "t_us", "length", "proto", "src_ip", "dst_ip",
                    "src_port", "dst_port", "window")))
        ]
        got = [(p.timestamp, p.length, p.protocol, p.src_ip, p.dst_ip, p.src_port,
                p.dst_port, p.tcp_window) for p in trace.packets]
        assert got == expected
        assert {Protocol.TCP, Protocol.UDP, Protocol.ICMP} <= {p.protocol for p in trace.packets}


def _alter(data: bytes, index: int, column: str, value: str) -> bytes:
    header, rows = run.parse_rows(data)
    rows[index][header.index(column)] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue().encode()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reference_rows_are_all_ok_and_an_altered_row_is_caught(workload):
    reference = (run.REFERENCE_DIR / f"{workload}.csv").read_bytes()
    header, rows = run.parse_rows(reference)
    assert rows and all(r[header.index("status")] == "ok" for r in rows)
    assert run.failed_cells(reference, reference, reference) == 0

    # At the reference seed every row must equal the reference row.
    last = len(rows) - 1
    altered = _alter(reference, last, "accuracy", "0.123")
    assert run.failed_cells(altered, reference, reference) == 1
    skipped = _alter(reference, 0, "status", "skipped")
    assert run.failed_cells(skipped, reference, reference) == 1
    truncated = reference.rsplit(b"\n", 2)[0] + b"\n"
    assert run.failed_cells(truncated, reference, reference) == 1

    # At other seeds rows must equal the run's first sweep, and the grid the reference's.
    assert run.failed_cells(altered, altered, reference) == 0
    assert run.failed_cells(reference, altered, reference) == 1
    moved = _alter(reference, last, "window_size", "7")
    assert run.failed_cells(moved, moved, reference) == 1
    assert run.failed_cells(truncated, truncated, reference) == 1


def _tiny_config(tmp_path, source):
    doc = {
        "transforms": [{"mode": "none"}, {"mode": "awgn", "nu": 1.0}],
        "classifiers": [{"kind": "knn", "k": 5}, {"kind": "tree"}],
        "seed": 3,
    }
    if source == "pcap":
        doc["pcap_dir"] = "pcaps"
        doc["pcap_labels"] = pcapfix.write_fixtures(tmp_path / "pcaps", 9, 1, 3.0)
        doc["timespans"] = [0.1]
    else:
        doc.update(scenario="mic_onoff", traces_per_class=2, duration=5.0, burst_sizes=[100])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return harness.load_config(path)


def _hooked():
    return [owner.__dict__[attr] for owner, attr, *_ in sweep._layer_hooks()]


@pytest.mark.parametrize("source", ["synthetic", "pcap"])
def test_traced_sweep_matches_untraced_and_restores_hooks(tmp_path, monkeypatch, source):
    monkeypatch.setenv("TPB_WORKERS", "1")
    config = _tiny_config(tmp_path, source)
    originals = _hooked()

    plain = sweep.run_sweep(config, tmp_path / "plain", trace=False)
    traced = sweep.run_sweep(config, tmp_path / "traced", trace=True)

    assert _hooked() == originals
    assert (tmp_path / "plain" / "sweep.csv").read_bytes() == (
        tmp_path / "traced" / "sweep.csv"
    ).read_bytes()

    m = run.layer_metrics(traced, plain["sweep_s"], plain["sweep_s"])
    assert m["trace.coverage"] == pytest.approx(1.0, abs=0.01)
    assert 0 <= m["harness.self_s"] < m["harness.serial_sweep_s"]
    assert m["attackers.knn.cells"] == m["attackers.tree.cells"] == 2
    assert m["adversarial.calls"] == 2
    assert m["features.windows"] > 0 and m["features.extract_calls"] > 0
    if source == "pcap":
        assert m["pcap.packets"] > 0 and m["pcap.mb_per_s"] > 0 and m["traffic.packets"] == 0
    else:
        assert m["traffic.packets"] > 0 and m["traffic.packets_per_s"] > 0 and m["pcap.packets"] == 0
    assert m["attackers.mlp.cells"] == 0


def test_coverage_shows_overlapping_spans():
    traced = {"sweep_s": 3.0, "counts": {},
              "spans": [("attackers.knn.fit", 0.0, 1.0), ("attackers.knn.predict", 0.5, 2.0)]}
    m = run.layer_metrics(traced, 3.0, 3.0)
    assert m["harness.self_s"] == pytest.approx(1.0)
    assert m["trace.coverage"] == pytest.approx(3.5 / 3.0)


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
