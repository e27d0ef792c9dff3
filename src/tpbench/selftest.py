"""Built-in invariant battery behind `tpbench selftest`.

A quick standalone re-check of the library's core guarantees (no pytest
needed): smoothing weights, noise statistics, the realistic treatment map,
feature extraction against a packet-loop recomputation, nearest-neighbor
voting against an exhaustive scan, and generator determinism.
"""

from __future__ import annotations

import math

import numpy as np

from tpbench import attackers
from tpbench.adversarial import (
    REALISTIC_UNTOUCHED_FEATURES,
    RealisticSpec,
    SavGolSpec,
    apply_realistic_columns,
    inject_awgn_columns,
    savgol_coefficients,
    smooth_columns,
)
from tpbench.features import FEATURE_INDEX, FEATURE_NAMES, compute_features
from tpbench.traffic import PacketRecord, Protocol, Trace, builtin_profiles, Scenario, generate_trace


def _check_savgol() -> str:
    w = savgol_coefficients(SavGolSpec(5, 2))
    expected = np.array([-3, 12, 17, 12, -3], dtype=float) / 35.0
    assert np.max(np.abs(w - expected)) < 1e-12, "window-5/degree-2 weights wrong"
    for window in (5, 21, 51):
        for degree in (0, 1, 3, 5, 9):
            if degree > window - 1:
                continue
            coeff = savgol_coefficients(SavGolSpec(window, degree))
            assert abs(coeff.sum() - 1.0) < 1e-12, "weights must sum to 1"
            assert np.max(np.abs(coeff - coeff[::-1])) < 1e-12, "weights must be symmetric"
            # degree-d fit reproduces degree-d polynomials on interior points
            n = 3 * window
            t = np.arange(n) / n
            col = sum(((-1) ** j) * t**j for j in range(degree + 1))
            sm = smooth_columns(col[:, None], SavGolSpec(window, degree))[:, 0]
            m = (window - 1) // 2
            err = np.max(np.abs(sm[m : n - m] - col[m : n - m]))
            assert err < 1e-9, f"polynomial not reproduced (w={window} d={degree})"
    return "smoothing weights and polynomial reproduction"


def _check_awgn() -> str:
    rng = np.random.default_rng(1234)
    col = rng.normal(10.0, 2.0, size=100_000)
    sigma2 = float(np.var(col))
    X = np.zeros((col.size, len(FEATURE_NAMES)))  # other columns: zero variance
    X[:, 0] = col
    for nu in (0.2, 2.0, 64.0):
        noised = inject_awgn_columns(X, nu, seed=99)
        noise = noised[:, 0] - col
        se = math.sqrt(nu * sigma2 / col.size)
        assert abs(noise.mean()) < 3 * se, f"noise mean off at nu={nu}"
        assert abs(np.var(noise) / (nu * sigma2) - 1.0) < 0.05, f"noise variance off at nu={nu}"
        lag1 = float(np.corrcoef(noise[:-1], noise[1:])[0, 1])
        assert abs(lag1) < 0.02, f"noise not white at nu={nu}"
    return "noise statistics (mean, variance scaling, whiteness)"


def _check_realistic() -> str:
    rng = np.random.default_rng(7)
    X = rng.normal(50.0, 10.0, size=(300, len(FEATURE_NAMES)))
    out = apply_realistic_columns(X, RealisticSpec(2.0, seed=5))
    for name in REALISTIC_UNTOUCHED_FEATURES:
        idx = FEATURE_INDEX[name]
        assert np.array_equal(out[:, idx], X[:, idx]), f"{name} was modified"
    pad = out[:, FEATURE_INDEX["mean_len_pack"]]
    assert np.all(pad == X[:, FEATURE_INDEX["mean_len_pack"]].max()), "padding wrong"
    assert np.all(out[:, FEATURE_INDEX["std_len_pack"]] == 0.0), "std not zeroed"
    return "realistic treatment map"


def _loop_features(packets: list[PacketRecord]) -> dict[str, float]:
    ips = {p.src_ip for p in packets} | {p.dst_ip for p in packets}
    ports = set()
    for p in packets:
        if p.protocol in (Protocol.TCP, Protocol.UDP):
            ports.add(p.src_port)
            ports.add(p.dst_port)
    ports.discard(0)
    gaps = [b.timestamp - a.timestamp for a, b in zip(packets, packets[1:])]
    windows = [p.tcp_window for p in packets if p.protocol is Protocol.TCP]
    lengths = [p.length for p in packets]

    def mean(v):
        return sum(v) / len(v)

    def pstd(v):
        mu = mean(v)
        return math.sqrt(sum((x - mu) ** 2 for x in v) / len(v))

    return {
        "n_ip_unique": len(ips),
        "n_port_unique": len(ports),
        "n_pack_tcp": sum(p.protocol is Protocol.TCP for p in packets),
        "n_pack_udp": sum(p.protocol is Protocol.UDP for p in packets),
        "n_pack_icmp": sum(p.protocol is Protocol.ICMP for p in packets),
        "max_diff_time": max(gaps),
        "mean_window": mean(windows) if windows else 0.0,
        "std_window": pstd(windows) if windows else 0.0,
        "mean_ipt": mean(gaps),
        "std_ipt": pstd(gaps),
        "mean_len_pack": mean(lengths),
        "std_len_pack": pstd(lengths),
    }


def _random_packets(rng: np.random.Generator, n: int) -> list[PacketRecord]:
    t = 0.0
    packets = []
    for _ in range(n):
        t = round(t + float(rng.uniform(0.0001, 0.5)), 6)
        proto = (Protocol.TCP, Protocol.UDP, Protocol.ICMP, Protocol.OTHER)[
            int(rng.integers(0, 4))
        ]
        ported = proto in (Protocol.TCP, Protocol.UDP)
        packets.append(
            PacketRecord(
                timestamp=t,
                length=int(rng.integers(40, 1515)),
                protocol=proto,
                src_ip=int(rng.integers(1, 6)),
                dst_ip=int(rng.integers(1, 6)),
                src_port=int(rng.integers(1, 1000)) if ported else 0,
                dst_port=int(rng.integers(1, 1000)) if ported else 0,
                tcp_window=int(rng.integers(0, 65536)) if proto is Protocol.TCP else 0,
            )
        )
    return packets


def _check_features() -> str:
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        packets = _random_packets(rng, n)
        trace = Trace.from_packets(packets, label="x")
        got = compute_features(trace, (0, n))
        want = _loop_features(packets)
        for name in FEATURE_NAMES:
            a, b = getattr(got, name), want[name]
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), f"{name}: {a} != {b}"
    return "feature extraction vs packet-loop recomputation (100 traces)"


def _check_knn() -> str:
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 4))
    y = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, size=50)]
    model = attackers.train_knn(X, y, k=5)
    queries = rng.normal(size=(20, 4))
    got = attackers.predict(model, queries)
    Xs = model.standardizer.transform(X)
    Qs = model.standardizer.transform(queries)
    classes = model.classes
    for q, predicted in zip(Qs, got):
        dists = sorted(
            (math.sqrt(sum((a - b) ** 2 for a, b in zip(row, q))), i)
            for i, row in enumerate(Xs)
        )[:5]
        votes: dict[str, int] = {}
        sums: dict[str, float] = {}
        for d, i in dists:
            label = str(y[i])
            votes[label] = votes.get(label, 0) + 1
            sums[label] = sums.get(label, 0.0) + d
        top = max(votes.values())
        tied = [c for c in classes if votes.get(c, 0) == top]
        winner = min(tied, key=lambda c: (sums[c], classes.index(c)))
        assert predicted == winner, f"knn mismatch: {predicted} != {winner}"
    return "nearest-neighbor voting vs exhaustive scan (20 queries)"


def _check_generator() -> str:
    profile = builtin_profiles(Scenario.MIC_ONOFF)[1]
    a = generate_trace(profile, 5.0, seed=11)
    b = generate_trace(profile, 5.0, seed=11)
    assert a.packets == b.packets, "generator is not deterministic"
    rate = len(a.packets) / 5.0
    assert abs(rate / profile.rate - 1.0) < 0.15, f"rate {rate} far from {profile.rate}"
    return "generator determinism and rate"


CHECKS = (
    ("savgol", _check_savgol),
    ("awgn", _check_awgn),
    ("realistic", _check_realistic),
    ("features", _check_features),
    ("knn", _check_knn),
    ("generator", _check_generator),
)


def run_selftest(verbose: bool = True) -> bool:
    ok = True
    for name, check in CHECKS:
        try:
            detail = check()
            if verbose:
                print(f"ok   {name}: {detail}")
        except AssertionError as exc:
            ok = False
            print(f"FAIL {name}: {exc}")
    return ok
