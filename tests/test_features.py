import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import (
    GOLDEN_FEATURES_CSV,
    brute_force_features,
    build_pcap,
    compute_features,
    ipv4_frame,
    random_small_trace,
    raw_frame,
    reference_timespan_bounds,
    trace_from_packets,
    window_packets,
)
from tpbench.features import (
    FEATURE_NAMES,
    MAX_INTERVALS,
    N_FEATURES,
    WindowSpec,
    WindowTable,
    extract_series,
    load_features_csv,
    save_features_csv,
    stack_series,
    _mean_std,
    _window_bounds,
)
from tpbench.pcap import parse_pcap_with_stats
from tpbench.traffic import (
    PRESETS,
    ClassProfile,
    PacketRecord,
    Protocol,
    Trace,
    builtin_profiles,
    generate_dataset,
)


def packet(t, proto=Protocol.TCP, length=100, src=1, dst=2, sport=1000, dport=80,
           window=500):
    ported = proto in (Protocol.TCP, Protocol.UDP)
    return PacketRecord(
        timestamp=t,
        length=length,
        protocol=proto,
        src_ip=src,
        dst_ip=dst,
        src_port=sport if ported else 0,
        dst_port=dport if ported else 0,
        tcp_window=window if proto is Protocol.TCP else 0,
    )


def uniform_trace(n, spacing=0.1):
    return trace_from_packets([packet(round(i * spacing, 6)) for i in range(n)], label="u")


# --- windowing ---------------------------------------------------------------

def test_burst_windows_discard_partial_tail():
    ranges = window_packets(uniform_trace(1000), WindowSpec.burst(300))
    assert ranges == [(0, 300), (300, 600), (600, 900)]


def test_burst_exact_fit():
    assert window_packets(uniform_trace(500), WindowSpec.burst(500)) == [(0, 500)]


def test_timespan_discards_empty_intervals():
    trace = trace_from_packets([packet(0.1), packet(0.2), packet(5.1)], label="t")
    ranges = window_packets(trace, WindowSpec.time_span(1.0))
    assert ranges == [(0, 2), (2, 3)]  # [1,5) intervals are empty and dropped


def test_timespan_boundaries_are_half_open():
    trace = trace_from_packets([packet(0.0), packet(1.0), packet(1.5)], label="t")
    ranges = window_packets(trace, WindowSpec.time_span(1.0))
    assert ranges == [(0, 1), (1, 3)]  # t=1.0 belongs to the second interval


def times_trace(times) -> Trace:
    times = np.sort(np.asarray(times, dtype=np.float64))
    ones = np.ones(times.size, dtype=np.int64)
    return Trace(times, ones * 100, ones * Protocol.TCP, ones, ones, ones, ones, ones,
                 label="t", trace_id="times")


def test_timespan_windows_match_the_bound_per_interval_cut():
    """Each packet's own interval, floor(t / dt) stepped one down or up where
    float64 rounding puts it off, gives the same windows as one float64 bound
    per interval, also for times on a bound, one ulp either side of it, and a
    last packet on a bound `times[-1] // dt` rounds down."""
    rng = np.random.default_rng(2024)
    for trial in range(400):
        dt = float(rng.choice([0.1, 0.3, 1 / 3, 0.7, 1e-3]) if trial % 2
                   else 10.0 ** rng.uniform(-6, 1))
        # few intervals, most holding packets, or many more, most of them empty
        n_intervals = int(rng.integers(1, 20_000 if trial % 4 else 40))
        ks = rng.integers(0, n_intervals, size=int(rng.integers(1, 60))).astype(np.float64)
        on_bound = ks * dt
        times = np.concatenate([
            on_bound,
            np.nextafter(on_bound, np.inf),
            np.nextafter(on_bound, 0.0),
            rng.uniform(0.0, n_intervals * dt, size=int(rng.integers(0, 60))),
        ])
        times = times[rng.random(times.size) < 0.6]
        if times.size == 0:
            continue
        trace = times_trace(times)
        spec = WindowSpec.time_span(dt)
        got = _window_bounds(trace, spec)
        want = reference_timespan_bounds(trace, spec)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (trial, dt)


def oracle_timespan_bounds(times: np.ndarray, dt: float) -> tuple[list[int], list[int]]:
    """Windows as runs of equal interval k, each packet's k found on its own:
    from int(t // dt), stepped until k*dt <= t < (k+1)*dt."""
    ks = []
    for t in times.tolist():
        k = int(t // dt)
        while k * dt > t:
            k -= 1
        while (k + 1) * dt <= t:
            k += 1
        ks.append(k)
    cuts = [i for i in range(1, len(ks)) if ks[i] != ks[i - 1]]
    return [0] + cuts, cuts + [len(ks)]


def test_timespan_windows_at_large_interval_indices_match_a_per_packet_oracle():
    """Stamps on k*dt and one ulp either side, k up to about 2**50, where
    floor(t / dt) is one above or one below the interval of thousands of
    packets: too many intervals for `reference_timespan_bounds`."""
    rng = np.random.default_rng(50)
    too_high = too_low = 0
    for dt in (0.1, 0.3, 1 / 3, 0.7, 1e-3):
        ks = np.concatenate(
            [rng.integers(2**e, 2**(e + 1), size=400) for e in range(40, 50)]
            + [k0 + np.arange(40) for k0 in rng.integers(2**49, 2**50, size=5)]  # neighbours
        )
        on_bound = np.unique(ks).astype(np.float64) * dt
        times = np.sort(np.concatenate([
            on_bound, np.nextafter(on_bound, np.inf), np.nextafter(on_bound, 0.0),
        ]))
        estimate = np.floor(times / dt)
        too_high += int(np.count_nonzero(estimate * dt > times))
        too_low += int(np.count_nonzero((estimate + 1) * dt <= times))
        starts, stops = _window_bounds(times_trace(times), WindowSpec.time_span(dt))
        assert (starts.tolist(), stops.tolist()) == oracle_timespan_bounds(times, dt), dt
    assert too_high > 1000 and too_low > 1000


def test_timespan_last_packet_on_a_rounded_down_bound_is_in_the_last_window():
    # 1.0 // 0.1 is 9.0, but 10 * 0.1 == 1.0: the packet at 1.0 opens the
    # interval [1.0, 1.1)
    trace = times_trace([0.05, 0.95, 0.97, 1.0])
    assert window_packets(trace, WindowSpec.time_span(0.1)) == [(0, 1), (1, 3), (3, 4)]


def test_tiny_timespan_windows_with_memory_per_packet():
    # one bound per interval would need 4.9e9 float64 bounds (37 GiB) here
    trace = times_trace([0.0, 2.5, 2.5, 4.9])
    assert window_packets(trace, WindowSpec.time_span(1e-9)) == [(0, 1), (1, 3), (3, 4)]


# 5 s / 1e-320 overflows to inf: the refusal comes out, not a numpy overflow
# warning (an error under this suite's warning filter)
@pytest.mark.parametrize("dt", [1e-300, 5.0 / MAX_INTERVALS, 1e-320])
def test_timespan_past_exact_interval_indices_is_refused(dt):
    with pytest.raises(ValueError, match=r"trace 'times': time span .* 2\*\*52 intervals"):
        extract_series(times_trace([0.0, 5.0]), WindowSpec.time_span(dt))


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec.burst(1)
    with pytest.raises(ValueError):
        WindowSpec.time_span(0.0)
    with pytest.raises(ValueError):
        WindowSpec("sliding", 5)


def test_a_window_spec_has_one_size_in_one_form():
    """A spec is its mode and one size, an int for a burst and a float for a
    time span, so a spec built either way is one spec with one key."""
    assert WindowSpec("burst", 250) == WindowSpec.burst(250)
    assert hash(WindowSpec("burst", 250)) == hash(WindowSpec.burst(250))
    assert WindowSpec.burst(np.int64(250)).key() == "burst:250"
    assert type(WindowSpec.burst(np.int64(250)).size) is int
    spec = WindowSpec.time_span(1)
    assert spec.size == 1.0 and type(spec.size) is float
    assert spec.key() == "timespan:1.0"
    with pytest.raises(ValueError, match=r"^burst size must be an integer >= 2, got 2\.0$"):
        WindowSpec("burst", 2.0)


# --- the worked three-packet example -----------------------------------------

def test_three_packet_example():
    trace = trace_from_packets(
        [
            packet(0.0, Protocol.TCP, length=100, src=1, dst=2, sport=4000,
                   dport=443, window=512),
            packet(0.5, Protocol.TCP, length=200, src=1, dst=2, sport=4000,
                   dport=443, window=256),
            packet(2.0, Protocol.UDP, length=300, src=1, dst=3, sport=5000,
                   dport=53),
        ],
        label="ex",
    )
    got = compute_features(trace, (0, 3))
    assert got.n_ip_unique == 3
    assert got.n_port_unique == 4
    assert got.n_pack_tcp == 2
    assert got.n_pack_udp == 1
    assert got.n_pack_icmp == 0
    assert got.max_diff_time == pytest.approx(1.5)
    assert got.mean_ipt == pytest.approx(1.0)
    assert got.std_ipt == pytest.approx(0.5)
    assert got.mean_window == pytest.approx(384.0)
    assert got.std_window == pytest.approx(128.0)
    assert got.mean_len_pack == pytest.approx(200.0)
    assert got.std_len_pack == pytest.approx(math.sqrt(20000.0 / 3.0), rel=1e-12)


def test_identical_packets_zero_stds():
    trace = uniform_trace(10, spacing=0.25)
    got = compute_features(trace, (0, 10))
    assert got.std_ipt == 0.0
    assert got.std_window == 0.0
    assert got.std_len_pack == 0.0
    assert got.mean_ipt == pytest.approx(0.25)
    assert got.max_diff_time == pytest.approx(0.25)


def test_no_tcp_window_stats_zero():
    trace = trace_from_packets(
        [packet(0.0, Protocol.UDP), packet(0.2, Protocol.ICMP)], label="n"
    )
    got = compute_features(trace, (0, 2))
    assert got.n_pack_tcp == 0
    assert got.mean_window == 0.0
    assert got.std_window == 0.0


def test_port_zero_and_icmp_ports_excluded():
    trace = trace_from_packets(
        [
            packet(0.0, Protocol.TCP, sport=1000, dport=80),
            packet(0.1, Protocol.ICMP),  # no ports at all
            packet(0.2, Protocol.UDP, sport=1000, dport=53),
        ],
        label="p",
    )
    got = compute_features(trace, (0, 3))
    assert got.n_port_unique == 3  # {1000, 80, 53}


def test_single_packet_window_rejected():
    with pytest.raises(ValueError):
        compute_features(uniform_trace(5), (2, 3))


@pytest.mark.parametrize("index_range", [(0, 1000), (3, 6), (-1, 3)])
def test_window_range_outside_trace_rejected(index_range):
    pattern = rf"window range \({index_range[0]}, {index_range[1]}\) .* trace of 5 packets"
    with pytest.raises(ValueError, match=pattern):
        compute_features(uniform_trace(5), index_range)


# --- series extraction --------------------------------------------------------

def test_series_length_and_composition():
    trace = uniform_trace(1500)
    series = extract_series(trace, WindowSpec.burst(500))
    assert len(series) == 3
    for k, (start, stop) in enumerate(window_packets(trace, WindowSpec.burst(500))):
        expect = compute_features(trace, (start, stop))
        assert np.array_equal(series.X[k], expect.as_array())


def test_dropped_single_packet_windows_counted():
    trace = trace_from_packets(
        [packet(0.0), packet(0.1), packet(1.05), packet(2.0), packet(2.2)],
        label="d",
    )
    series = extract_series(trace, WindowSpec.time_span(1.0))
    assert len(series) == 2
    assert series.dropped_windows == 1


def test_a_trace_without_a_window_gives_an_empty_series():
    """A trace that keeps no window of 2 packets gives a table of no row and
    no trace id that counts its short windows, and at least one: one for a
    burst trace shorter than N, two for two lone packets. Stacked, it adds
    no row and no trace id, only that count."""
    lonely = trace_from_packets([packet(0.0), packet(5.0)], label="l")
    full = extract_series(uniform_trace(12), WindowSpec.burst(5))
    for trace, spec, dropped in ((uniform_trace(3), WindowSpec.burst(5), 1),
                                 (lonely, WindowSpec.time_span(1.0), 2)):
        table = extract_series(trace, spec)
        assert table.X.shape == (0, N_FEATURES) and len(table) == 0
        assert table.labels.size == table.trace.size == 0 and table.trace_ids == []
        assert table.dropped_windows == dropped
        table = stack_series([table, full])
        assert np.array_equal(table.X, full.X) and table.trace.tolist() == [0, 0]
        assert table.trace_ids == [full.trace_ids[0]] and table.dropped_windows == dropped


def assert_same_table(got, want):
    for field in fields(WindowTable):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def test_stacking_is_concatenation():
    """Stacking one-trace tables, empty ones included (a trace shorter than
    its burst, lone packets under a short time span), keeps each row's trace
    id and sums the dropped windows; `stack_series([t])` is `t` field for
    field, and stacking is associative."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    specs = (WindowSpec.burst(2), WindowSpec.burst(5), WindowSpec.burst(30),
             WindowSpec.time_span(0.05), WindowSpec.time_span(3.0))

    @st.composite
    def tables(draw):
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        trace = replace(random_small_trace(rng, max_packets=40, min_packets=1),
                        label=draw(st.sampled_from(["a", "b"])), trace_id=f"t{seed}")
        return extract_series(trace, draw(st.sampled_from(specs)))

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.lists(tables(), max_size=6), st.integers(0, 6), st.integers(0, 6))
    def check(parts, i, j):
        i, j = sorted((min(i, len(parts)), min(j, len(parts))))
        whole = stack_series(parts)
        assert [whole.trace_ids[t] for t in whole.trace] == [
            part.trace_ids[0] for part in parts for _ in range(len(part))]
        assert whole.dropped_windows == sum(part.dropped_windows for part in parts)
        for table in (*parts, whole):
            assert_same_table(stack_series([table]), table)
        assert_same_table(stack_series([stack_series(parts[:i]), stack_series(parts[i:])]), whole)
        nested = [stack_series(parts[:i]), stack_series(parts[i:j]), stack_series(parts[j:])]
        assert_same_table(stack_series([stack_series(nested[:2]), nested[2]]),
                          stack_series([nested[0], stack_series(nested[1:])]))

    check()


def test_class_means_differ_on_separated_dimensions():
    low = ClassProfile(
        label="low", rate=80.0, protocol_mix=(1.0, 0.0, 0.0), length_mean=200.0,
        length_std=30.0, window_mean=4000.0, window_std=500.0, ip_pool_size=2,
        port_pool_size=4,
    )
    high = ClassProfile(
        label="high", rate=80.0, protocol_mix=(1.0, 0.0, 0.0), length_mean=900.0,
        length_std=30.0, window_mean=20000.0, window_std=500.0, ip_pool_size=8,
        port_pool_size=16,
    )
    traces = generate_dataset([low, high], 2, 20.0, seed=11)
    series = [extract_series(t, WindowSpec.burst(100)) for t in traces]
    table = stack_series(series)
    X, y, trace = table.X, table.labels, table.trace
    assert trace.dtype == np.int64
    assert np.array_equal(trace, np.repeat(np.arange(len(series)), [len(s) for s in series]))
    mean_low = X[y == "low"].mean(axis=0)
    mean_high = X[y == "high"].mean(axis=0)
    for name in ("mean_len_pack", "mean_window", "n_ip_unique"):
        idx = FEATURE_NAMES.index(name)
        assert mean_high[idx] > mean_low[idx] * 1.5


# --- invariance properties ----------------------------------------------------

def test_features_invariant_under_ip_port_relabeling():
    rng = np.random.default_rng(42)
    for _ in range(20):
        trace = random_small_trace(rng)
        n = len(trace.packets)
        ips = sorted({p.src_ip for p in trace.packets} | {p.dst_ip for p in trace.packets})
        ports = sorted(
            {p.src_port for p in trace.packets} | {p.dst_port for p in trace.packets}
        )
        ip_map = {old: new for old, new in zip(ips, rng.permutation(len(ips)) + 1000)}
        port_map = {old: int(new) for old, new in
                    zip(ports, rng.permutation(len(ports)) + 10000)}
        port_map[0] = 0  # "no port" stays the sentinel
        relabeled = trace_from_packets(
            [
                PacketRecord(
                    p.timestamp, p.length, p.protocol,
                    int(ip_map[p.src_ip]), int(ip_map[p.dst_ip]),
                    port_map[p.src_port], port_map[p.dst_port], p.tcp_window,
                )
                for p in trace.packets
            ],
            label=trace.label,
        )
        original = compute_features(trace, (0, n)).as_array()
        mapped = compute_features(relabeled, (0, n)).as_array()
        assert np.array_equal(original, mapped)


def test_counts_monotone_when_window_grows():
    rng = np.random.default_rng(17)
    trace = random_small_trace(rng, max_packets=30)
    n = len(trace.packets)
    count_idx = [FEATURE_NAMES.index(f) for f in
                 ("n_ip_unique", "n_pack_tcp", "n_pack_udp", "n_pack_icmp")]
    prev = compute_features(trace, (0, 2)).as_array()
    for stop in range(3, n + 1):
        cur = compute_features(trace, (0, stop)).as_array()
        for idx in count_idx:
            assert cur[idx] >= prev[idx]
        prev = cur


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_mean_std_matches_numpy_bit_for_bit(dtype):
    # Widths 1-300 cross numpy's pairwise-summation edges at 8 and 128.
    rng = np.random.default_rng(3)
    for w in range(1, 301):
        if dtype is np.float64:
            x = rng.normal(size=(6, w)) * 10.0 ** rng.integers(-9, 9, size=(6, 1))
        else:
            x = rng.integers(-(2**40), 2**40, size=(6, w))
        x[0] = 0
        x[1] = x[1, 0]  # a constant row
        x[2] = np.abs(x[2])
        x[3] = -np.abs(x[3])
        mean, std = _mean_std(x)
        assert mean.tobytes() == np.mean(x, axis=1).tobytes(), w
        assert std.tobytes() == np.std(x, axis=1).tobytes(), w


def test_oracle_equivalence_small_traces():
    rng = np.random.default_rng(7)
    for _ in range(200):
        trace = random_small_trace(rng)
        got = compute_features(trace, (0, len(trace.packets)))
        want = brute_force_features(trace.packets)
        for name in FEATURE_NAMES:
            assert math.isclose(
                getattr(got, name), want[name], rel_tol=1e-9, abs_tol=1e-12
            ), name


# --- batched extraction against the per-window oracle -----------------------

def assert_series_matches_oracle(trace, spec):
    """extract_series equals compute_features on every retained window, bit
    for bit, and counts the windows of fewer than 2 packets as dropped."""
    ranges = window_packets(trace, spec)
    kept = [r for r in ranges if r[1] - r[0] >= 2]
    series = extract_series(trace, spec)
    want = np.array([compute_features(trace, r).as_array() for r in kept])
    assert series.X.shape == want.shape, spec.key()
    assert np.array_equal(series.X.view(np.int64), want.view(np.int64)), spec.key()
    assert series.dropped_windows == len(ranges) - len(kept), spec.key()


ORACLE_SPECS = (
    WindowSpec.burst(2),
    WindowSpec.burst(7),
    WindowSpec.burst(250),
    WindowSpec.time_span(0.002),
    WindowSpec.time_span(0.05),
    WindowSpec.time_span(1.0),
)


@pytest.mark.parametrize("scenario", list(PRESETS))
def test_extract_series_matches_oracle_on_generated_traces(scenario):
    traces = generate_dataset(builtin_profiles(scenario), 1, 2.5, seed=17)
    for trace in traces:
        for spec in ORACLE_SPECS:
            assert_series_matches_oracle(trace, spec)


def test_extract_series_matches_oracle_on_parsed_pcap():
    """A capture with an all-ICMP stretch, an all-UDP stretch (no TCP
    packet), TCP and UDP packets on port 0, undecodable frames and isolated
    packets that make 1-packet time-span windows."""
    def tcp(src, sport, dport, window):
        return ipv4_frame(Protocol.TCP, src, 0x0A000009, sport, dport, window)

    def udp(src, sport, dport):
        return ipv4_frame(Protocol.UDP, src, 0x0A000009, sport, dport, payload=b"u" * 9)

    icmp = ipv4_frame(Protocol.ICMP, 0x0A000001, 0x0A000002)
    frames = [
        tcp(1, 4000, 443, 512), tcp(2, 0, 443, 1024), udp(3, 53, 0), raw_frame(0x0806),
        icmp, icmp, icmp, icmp, icmp,
        udp(4, 5000, 53), udp(5, 5001, 53), udp(4, 0, 0), udp(6, 5000, 53),
        tcp(7, 0, 0, 0), tcp(1, 4000, 443, 65535), raw_frame(0x86DD), tcp(2, 4001, 80, 7),
    ]
    gaps = [0.01, 0.2, 0.3, 0.05, 1.7, 0.01, 0.02, 0.03, 0.04, 2.1, 0.1, 0.1,
            0.1, 1.3, 0.4, 0.2, 0.9]
    times = np.cumsum(gaps) + 1_000.0
    trace, _ = parse_pcap_with_stats(build_pcap(list(zip(times.tolist(), frames))), label="p")
    assert (trace.protocols == Protocol.ICMP).sum() == 5
    specs = [WindowSpec.burst(n) for n in (2, 3, 4, 5, 17)]
    specs += [WindowSpec.time_span(dt) for dt in (0.1, 0.25, 0.5, 1.0, 2.0, 50.0)]
    for spec in specs:
        assert_series_matches_oracle(trace, spec)


def test_extract_series_matches_oracle_on_edge_windows():
    """All-ICMP windows, windows without TCP packets, port-0 packets, and
    random small traces with every protocol."""
    icmp = [packet(0.1 * i, Protocol.ICMP) for i in range(6)]
    udp_only = [packet(1.0 + 0.1 * i, Protocol.UDP, sport=0 if i % 2 else 53) for i in range(6)]
    port0 = [packet(2.0 + 0.1 * i, sport=0, dport=0 if i % 3 else 80) for i in range(6)]
    trace = trace_from_packets(icmp + udp_only + port0 + [packet(9.5)], label="e")
    for spec in (WindowSpec.burst(2), WindowSpec.burst(3), WindowSpec.burst(6),
                 WindowSpec.time_span(0.25), WindowSpec.time_span(1.0)):
        assert_series_matches_oracle(trace, spec)
    rng = np.random.default_rng(23)
    for _ in range(60):
        trace = random_small_trace(rng, max_packets=80)
        for spec in (WindowSpec.burst(2), WindowSpec.burst(5), WindowSpec.time_span(0.7),
                     WindowSpec.time_span(3.0)):
            series, ranges = extract_series(trace, spec), window_packets(trace, spec)
            if len(series):
                assert_series_matches_oracle(trace, spec)
            else:
                assert all(b - a < 2 for a, b in ranges)
                assert series.dropped_windows == max(len(ranges), 1)


# --- CSV interchange ------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    traces = [replace(random_small_trace(rng, max_packets=30, min_packets=10),
                      label=f"class{k % 2}", trace_id=f"t-{k}") for k in range(3)]
    path = tmp_path / "f.csv"
    table = stack_series([extract_series(trace, WindowSpec.burst(5)) for trace in traces])
    save_features_csv(table, path)
    back = load_features_csv(path)
    assert back.trace_ids == ["t-0", "t-1", "t-2"]
    for name in ("X", "labels", "trace"):
        assert np.array_equal(getattr(back, name), getattr(table, name)), name


def test_csv_transform_column(tmp_path):
    """A transform key given to `save_features_csv` fills a last column,
    which `load_features_csv` reads past."""
    values = np.arange(24, dtype=float).reshape(2, 12)
    table = WindowTable(values, np.array(["x", "x"], dtype=object), np.zeros(2, dtype=np.int64),
                        ["t"], dropped_windows=0)
    path = tmp_path / "t.csv"
    save_features_csv(table, path, transform="awgn(nu=2.0)")
    header, *lines = path.read_text().splitlines()
    assert header.endswith(",window_index,trace_id,transform")
    assert [line.rsplit(",", 3)[1:] for line in lines] == [["0", "t", "awgn(nu=2.0)"],
                                                           ["1", "t", "awgn(nu=2.0)"]]
    back = load_features_csv(path)
    assert np.array_equal(back.X, values) and back.trace_ids == ["t"]


def test_csv_text_is_pinned(tmp_path):
    """`save_features_csv` writes what `load_features_csv` read back as the
    same text: the header, `repr` floats, and `window_index` counting from
    0 in each of three traces of unequal length."""
    plain, back = tmp_path / "f.csv", tmp_path / "g.csv"
    plain.write_text(GOLDEN_FEATURES_CSV, encoding="utf-8")
    save_features_csv(load_features_csv(plain), back)
    assert back.read_text(encoding="utf-8") == GOLDEN_FEATURES_CSV


def test_csv_load_takes_each_traces_rows_in_window_index_order(tmp_path):
    """A file whose rows run backwards within each trace, as a reversed
    `extract --config` CSV's do, loads as the file in window order."""
    header, *lines = GOLDEN_FEATURES_CSV.splitlines(keepends=True)
    blocks: dict[str, list[str]] = {}
    for line in lines:
        blocks.setdefault(line.rsplit(",", 1)[1], []).append(line)
    assert [len(block) for block in blocks.values()] == [2, 3, 1]
    plain, backwards = tmp_path / "f.csv", tmp_path / "r.csv"
    plain.write_text(GOLDEN_FEATURES_CSV, encoding="utf-8")
    backwards.write_text(header + "".join(line for block in blocks.values()
                                          for line in reversed(block)), encoding="utf-8")
    want, got = load_features_csv(plain), load_features_csv(backwards)
    assert np.array_equal(got.X, want.X) and np.array_equal(got.trace, want.trace)
    assert got.labels.tolist() == want.labels.tolist() and got.trace_ids == want.trace_ids


def test_csv_rejects_a_window_index_that_is_no_count(tmp_path):
    path = tmp_path / "bad.csv"
    header = ",".join(list(FEATURE_NAMES) + ["label", "window_index", "trace_id"])
    row = ",".join(["1.0"] * 12)
    for bad in ("-1", "1.0", "+1", " 1", "1_0", "\u0667", "", "x", "1" * 19):
        path.write_text(f"{header}\n{row},a,0,t\n{row},a,{bad},t\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"bad.csv:3: window_index is {re.escape(repr(bad))}"):
            load_features_csv(path)


def test_csv_load_groups_interleaved_rows_by_first_appearance(tmp_path):
    """Rows of traces t1, t2, t1 come back as t1's two rows, in window
    order, then t2's: the values read 1, 3, 2."""
    header = ",".join(list(FEATURE_NAMES) + ["label", "window_index", "trace_id"])
    rows = [(1.0, "a", 0, "t1"), (2.0, "b", 0, "t2"), (3.0, "a", 1, "t1")]
    path, back = tmp_path / "f.csv", tmp_path / "g.csv"
    path.write_text(header + "\n" + "".join(f"{','.join([repr(v)] * 12)},{label},{k},{tid}\n"
                                            for v, label, k, tid in rows), encoding="utf-8")
    save_features_csv(load_features_csv(path), back)
    assert back.read_text(encoding="utf-8").splitlines()[1:] == [
        f"{','.join([repr(v)] * 12)},{label},{k},{tid}"
        for v, label, k, tid in ((1.0, "a", 0, "t1"), (3.0, "a", 1, "t1"), (2.0, "b", 0, "t2"))
    ]


def test_csv_rejects_a_window_a_trace_gives_twice(tmp_path):
    """A repeated (trace_id, window_index) pair fails at its later copy's
    line; the same index in another trace, or given as "01", is no repeat
    of the first and a repeat of the second."""
    header = ",".join(list(FEATURE_NAMES) + ["label", "window_index", "trace_id"])
    row = ",".join(["1.0"] * 12)
    path = tmp_path / "twice.csv"
    path.write_text(f"{header}\n{row},a,0,t\n{row},b,0,u\n{row},a,1,t\n{row},a,01,t\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"twice.csv:5: trace 't' repeats window_index 1 "
                                         r"of line 4$"):
        load_features_csv(path)


def test_csv_rejects_conflicting_labels(tmp_path):
    path = tmp_path / "bad.csv"
    header = ",".join(list(FEATURE_NAMES) + ["label", "window_index", "trace_id"])
    row = ",".join(["1.0"] * 12)
    path.write_text(f"{header}\n{row},a,0,t\n{row},b,1,t\n")
    with pytest.raises(ValueError, match="conflicting labels"):
        load_features_csv(path)


def test_csv_rejects_ragged_rows(tmp_path):
    header = ",".join(list(FEATURE_NAMES) + ["label", "window_index", "trace_id"])
    full = ",".join(["1.0"] * len(FEATURE_NAMES) + ["a", "0", "t0"])
    for row, side in ((full.rsplit(",", 1)[0], "few"), (full + ",9", "many")):
        path = tmp_path / "ragged.csv"
        path.write_text(f"{header}\n{full}\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"ragged.csv:3: too {side} fields"):
            load_features_csv(path)


def test_csv_rejects_a_header_that_names_a_column_twice(tmp_path):
    """A repeated column would silently win over the first one of its name:
    a second `mean_ipt` of 999 would replace every row's own."""
    header = ",".join(list(FEATURE_NAMES) + ["label", "window_index", "trace_id"])
    full = ",".join(["1.0"] * len(FEATURE_NAMES) + ["a", "0", "t0"])
    path = tmp_path / "twice.csv"
    path.write_text(f"{header},mean_ipt,label\n{full},999,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^\S*twice\.csv: feature CSV header repeats columns "
                                         r"\['label', 'mean_ipt'\]$"):
        load_features_csv(path)


def test_csv_rejects_non_finite_values(tmp_path):
    path = tmp_path / "bad.csv"
    header = ",".join(list(FEATURE_NAMES) + ["label", "window_index", "trace_id"])
    row = ",".join(["1.0"] * 12)
    for bad in ("nan", "inf", "-inf"):
        cells = ["1.0"] * 12
        cells[FEATURE_NAMES.index("mean_ipt")] = bad
        path.write_text(f"{header}\n{row},a,0,t\n{','.join(cells)},a,1,t\n")
        with pytest.raises(ValueError, match=f"bad.csv:3: mean_ipt is '{bad}'"):
            load_features_csv(path)
