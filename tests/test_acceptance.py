"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; datasets and seeds are frozen.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    alternating_burst_dataset,
    brute_force_features,
    build_pcap,
    compute_features,
    exact_savgol_weights,
    ipv4_frame,
    knn_oracle,
    random_small_trace,
)
from tpbench import attackers
from tpbench.adversarial import (
    REALISTIC_AWGN_FEATURES,
    REALISTIC_PADDED_FEATURE,
    REALISTIC_UNTOUCHED_FEATURES,
    REALISTIC_ZEROED_FEATURE,
    TransformSpec,
    savgol_coefficients,
)
from tpbench.attackers.mlp import _init_params, loss_and_gradients
from tpbench.features import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    WindowSpec,
    extract_series,
    stack_series,
)
from tpbench.harness import config_from_dict, emit_report, run_experiment
from tpbench.pcap import parse_pcap_with_stats
from tpbench.seeding import derive_seed
from tpbench.traffic import (
    ClassProfile,
    Protocol,
    builtin_profiles,
    generate_dataset,
)


def _report(criterion: str, detail: str, budget: float, elapsed: float) -> None:
    assert elapsed < budget, f"{criterion} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
    print(f"PASS {criterion}: {detail} [{elapsed:.1f}s]")


# --- criterion 1: Savitzky-Golay correctness ---------------------------------

def test_criterion_1_savgol_correctness():
    start = time.perf_counter()
    classic = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    got = savgol_coefficients(TransformSpec("smooth", window=5, degree=2))
    assert np.max(np.abs(got - classic)) < 1e-12

    pairs = 0
    for window in range(5, 52, 2):
        for degree in range(0, 10):
            if degree > window - 1:
                continue
            pairs += 1
            spec = TransformSpec("smooth", window=window, degree=degree)
            weights = savgol_coefficients(spec)
            oracle = np.array(exact_savgol_weights(window, degree))
            assert np.max(np.abs(weights - oracle)) < 1e-10, (window, degree)

            # degree-<=d polynomial passes through interior points
            n = 3 * window
            t = np.arange(n, dtype=float) / n
            column = sum(((-1) ** j) * (j + 1) * t**j for j in range(degree + 1))
            smoothed = spec.apply(column[:, None], 0)[:, 0]
            half = (window - 1) // 2
            interior = slice(half, n - half)
            err = np.max(np.abs(smoothed[interior] - column[interior]))
            assert err < 1e-9 * max(1.0, np.max(np.abs(column))), (window, degree)
    _report(
        "criterion 1",
        f"{pairs} (window, degree) pairs match the exact rational oracle within "
        "1e-10 and reproduce polynomials within 1e-9",
        budget=5.0,
        elapsed=time.perf_counter() - start,
    )


# --- criterion 2: AWGN statistics ---------------------------------------------

def test_criterion_2_awgn_statistics():
    start = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(20240601)
    base = rng.normal(5.0, 3.0, size=n)
    sigma2 = float(np.var(base))
    X = np.zeros((n, len(FEATURE_NAMES)))
    X[:, 0] = base
    for nu in (0.2, 2.0, 64.0):
        noised = TransformSpec("awgn", nu=nu).apply(X, derive_seed(2, "awgn", nu))
        noise = noised[:, 0] - base
        standard_error = math.sqrt(nu * sigma2 / n)
        assert abs(noise.mean()) < 3.0 * standard_error, f"nu={nu} mean"
        assert abs(np.var(noise) / (nu * sigma2) - 1.0) < 0.05, f"nu={nu} variance"
        lag1 = float(np.corrcoef(noise[:-1], noise[1:])[0, 1])
        assert abs(lag1) < 0.02, f"nu={nu} lag-1 autocorrelation {lag1}"
    _report(
        "criterion 2",
        "injected noise at nu in {0.2, 2, 64}: mean within 3 SE of 0, variance "
        "within 5% of nu*sigma^2, |lag-1 autocorrelation| < 0.02",
        budget=5.0,
        elapsed=time.perf_counter() - start,
    )


# --- criterion 3: realistic-transform contract ----------------------------------

def test_criterion_3_realistic_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(31337)
    X = rng.normal(100.0, 25.0, size=(400, len(FEATURE_NAMES)))
    out = TransformSpec("realistic", nu=2.0).apply(X, 17)

    untouched = set()
    changed = set()
    for name in FEATURE_NAMES:
        idx = FEATURE_INDEX[name]
        if np.array_equal(out[:, idx], X[:, idx]):
            untouched.add(name)
        else:
            changed.add(name)
    assert untouched == set(REALISTIC_UNTOUCHED_FEATURES)
    assert changed == set(REALISTIC_AWGN_FEATURES) | {
        REALISTIC_PADDED_FEATURE,
        REALISTIC_ZEROED_FEATURE,
    }
    pad = out[:, FEATURE_INDEX[REALISTIC_PADDED_FEATURE]]
    assert np.all(pad == X[:, FEATURE_INDEX[REALISTIC_PADDED_FEATURE]].max())
    assert np.all(out[:, FEATURE_INDEX[REALISTIC_ZEROED_FEATURE]] == 0.0)
    _report(
        "criterion 3",
        "five untouched columns bit-identical, padding constant at the column "
        "max, length std zeroed, exactly the five designated columns noised",
        budget=1.0,
        elapsed=time.perf_counter() - start,
    )


# --- criterion 4: feature-extraction oracle --------------------------------------

def test_criterion_4_feature_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        trace = random_small_trace(rng, max_packets=50)
        got = compute_features(trace, (0, len(trace.packets)))
        want = brute_force_features(trace.packets)
        for name in FEATURE_NAMES:
            assert math.isclose(
                getattr(got, name), want[name], rel_tol=1e-9, abs_tol=1e-12
            ), name
    _report(
        "criterion 4",
        "1000 random traces (<= 50 packets): all 12 features match brute-force "
        "recomputation within 1e-9 relative",
        budget=10.0,
        elapsed=time.perf_counter() - start,
    )


# --- criterion 5: classifier sanity ------------------------------------------------

def test_criterion_5_classifier_sanity():
    start = time.perf_counter()

    # kNN equals the exhaustive oracle on a 200-row instance
    rng = np.random.default_rng(555)
    X = rng.normal(size=(200, 12))
    y = np.array(list("abc"), dtype=object)[rng.integers(0, 3, size=200)]
    model = attackers.train("knn", X, y, k=5)
    queries = rng.normal(size=(60, 12))
    predictions = attackers.predict(model, queries)
    Xs = model.standardizer.transform(X)
    Qs = model.standardizer.transform(queries)
    for q, predicted in zip(Qs, predictions):
        assert predicted == knn_oracle(Xs, y, model.classes.tolist(), 5, q)

    # MLP analytic gradients vs central finite differences
    rng = np.random.default_rng(77)
    weights, biases = _init_params(rng, [12, 16, 16, 3])
    Xg = rng.normal(size=(3, 12))
    targets = np.zeros((3, 3))
    targets[np.arange(3), [0, 1, 2]] = 1.0
    _, grad_w, grad_b = loss_and_gradients(weights, biases, Xg, targets)
    h = 1e-5
    worst = 0.0
    for arrays, grads in ((weights, grad_w), (biases, grad_b)):
        for array, grad in zip(arrays, grads):
            it = np.nditer(array, flags=["multi_index"])
            for _ in it:
                index = it.multi_index
                saved = array[index]
                array[index] = saved + h
                up, _, _ = loss_and_gradients(weights, biases, Xg, targets)
                array[index] = saved - h
                down, _, _ = loss_and_gradients(weights, biases, Xg, targets)
                array[index] = saved
                numeric = (up - down) / (2 * h)
                analytic = grad[index]
                if max(abs(numeric), abs(analytic)) >= 1e-7:
                    worst = max(
                        worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic))
                    )
    assert worst < 1e-4, f"gradient check relative error {worst}"

    # all five classifiers >= 0.95 on separable 2-class data at burst 500
    traces = generate_dataset(
        builtin_profiles("mic_onoff"), 3, 60.0,
        derive_seed(5, "dataset"),
    )
    X5, y5, *_ = stack_series([extract_series(t, WindowSpec.burst(500)) for t in traces])
    train_idx, test_idx = attackers.split(y5, 0.7, derive_seed(5, "split"))
    scores = {}
    trainers = {
        "knn": lambda: attackers.train("knn", X5[train_idx], y5[train_idx]),
        "tree": lambda: attackers.train("tree", X5[train_idx], y5[train_idx]),
        "forest": lambda: attackers.train(
            "forest", X5[train_idx], y5[train_idx], seed=derive_seed(5, "forest")
        ),
        "adaboost": lambda: attackers.train("adaboost", X5[train_idx], y5[train_idx]),
        "mlp": lambda: attackers.train(
            "mlp", X5[train_idx], y5[train_idx], seed=derive_seed(5, "mlp")
        ),
    }
    for kind, make in trainers.items():
        scores[kind] = attackers.evaluate(make(), X5[test_idx], y5[test_idx])
        assert scores[kind] >= 0.95, f"{kind} accuracy {scores[kind]}"
    _report(
        "criterion 5",
        "kNN == oracle on 200 rows; gradient check rel err "
        f"{worst:.1e} < 1e-4; separable 2-class accuracies "
        + ", ".join(f"{k}={v:.2f}" for k, v in scores.items()),
        budget=60.0,
        elapsed=time.perf_counter() - start,
    )


# --- criterion 6: qualitative degradation patterns -----------------------------------

@pytest.fixture(scope="module")
def baseline_3class():
    """Utility/media/travel analogue: ~60k packets per trace, 3 traces/class;
    features cached per burst size, traces freed on return."""
    traces = generate_dataset(
        builtin_profiles("utility_media_travel"), 3, 60.0,
        derive_seed(2024, "dataset"),
    )
    return {
        n: stack_series([extract_series(t, WindowSpec.burst(n)) for t in traces])
        for n in (500, 750, 1000, 1250, 1500)
    }


def test_criterion_6a_baseline_accuracy(baseline_3class):
    start = time.perf_counter()
    floors = {}
    for n, (X, y, *_) in baseline_3class.items():
        train_idx, test_idx = attackers.split(
            y, 0.7, derive_seed(5, "6a", n, "split")
        )
        Xtr, ytr = X[train_idx], y[train_idx]
        models = [
            attackers.train("knn", Xtr, ytr),
            attackers.train("tree", Xtr, ytr),
            attackers.train("forest", Xtr, ytr, seed=derive_seed(5, "6a", n, "rf")),
            attackers.train("adaboost", Xtr, ytr),
            attackers.train("mlp", Xtr, ytr, seed=derive_seed(5, "6a", n, "mlp")),
        ]
        accs = [attackers.evaluate(m, X[test_idx], y[test_idx]) for m in models]
        floors[n] = min(accs)
        assert floors[n] >= 0.90, f"window {n}: accuracies {accs}"
    _report(
        "criterion 6a",
        "3-class baseline: every classifier >= 0.90 at windows >= 500 "
        f"(worst per window: { {n: round(v, 3) for n, v in floors.items()} })",
        budget=600.0,
        elapsed=time.perf_counter() - start,
    )


ALTERNATING_BASE = ClassProfile(
    label="base", rate=1000.0, protocol_mix=(0.7, 0.2, 0.1),
    length_mean=600.0, length_std=150.0, window_mean=8000.0, window_std=3000.0,
    ip_pool_size=6, port_pool_size=12,
)
# +/- deltas are ~2.2x the window-level sampling noise of the designated
# feature at 500-packet bursts: visible per-window, crushed by the smoother
ALT_LEN = ("length", 15.0)
ALT_WIN = ("window", 360.0)


def _smoothing_attack(class_fields, tag):
    traces = alternating_burst_dataset(
        ALTERNATING_BASE, class_fields, traces_per_class=3,
        n_segments=120, seg_packets=500, seed=777,
    )
    X, y, *_ = stack_series([extract_series(t, WindowSpec.burst(500)) for t in traces])
    smoothed = TransformSpec("smooth", window=51, degree=1).apply(X, 0)
    train_idx, test_idx = attackers.split(
        y, 0.7, derive_seed(1, tag, "post", "split")
    )
    nn = attackers.train(
        "mlp", smoothed[train_idx], y[train_idx], seed=derive_seed(1, tag, "post")
    )
    rf = attackers.train(
        "forest", smoothed[train_idx], y[train_idx], seed=derive_seed(1, tag, "post")
    )
    return (
        attackers.evaluate(nn, smoothed[test_idx], y[test_idx]),
        attackers.evaluate(rf, smoothed[test_idx], y[test_idx]),
    )


def test_criterion_6b_smoothing_defeats_high_frequency_signal():
    start = time.perf_counter()
    nn2, rf2 = _smoothing_attack({"alt_len": ALT_LEN, "alt_win": ALT_WIN}, "2cls")
    assert nn2 <= 0.65, f"2-class NN post-smoothing {nn2}"
    assert rf2 <= 0.65, f"2-class RF post-smoothing {rf2}"
    nn3, rf3 = _smoothing_attack(
        {"alt_len": ALT_LEN, "alt_win": ALT_WIN, "steady": (None, 0.0)}, "3cls"
    )
    assert nn3 <= 0.45, f"3-class NN post-smoothing {nn3}"
    assert rf3 <= 0.45, f"3-class RF post-smoothing {rf3}"
    _report(
        "criterion 6b",
        f"after SG(51, 1): 2-class NN={nn2:.2f} RF={rf2:.2f} (<= 0.65); "
        f"3-class NN={nn3:.2f} RF={rf3:.2f} (<= 0.45)",
        budget=600.0,
        elapsed=time.perf_counter() - start,
    )


def test_criterion_6c_awgn_dose_response(baseline_3class):
    start = time.perf_counter()
    X, y, *_ = baseline_3class[500]
    accuracy = {}
    for nu in (2.0, 64.0):
        noised = TransformSpec("awgn", nu=nu).apply(X, derive_seed(9, "6c", nu))
        train_idx, test_idx = attackers.split(
            y, 0.7, derive_seed(9, "6c", nu, "split")
        )
        model = attackers.train(
            "mlp", noised[train_idx], y[train_idx], seed=derive_seed(9, "6c", nu, "train")
        )
        accuracy[nu] = attackers.evaluate(model, noised[test_idx], y[test_idx])
    assert accuracy[64.0] <= accuracy[2.0] - 0.15, accuracy
    _report(
        "criterion 6c",
        f"NN on the 3-class set: accuracy {accuracy[2.0]:.2f} at nu=2 vs "
        f"{accuracy[64.0]:.2f} at nu=64 (drop >= 0.15)",
        budget=600.0,
        elapsed=time.perf_counter() - start,
    )


def test_criterion_6d_realistic_preserves_untouched_signal():
    start = time.perf_counter()

    def window_profile(label, mean, std):
        return ClassProfile(
            label=label, rate=1000.0, protocol_mix=(0.7, 0.2, 0.1),
            length_mean=600.0, length_std=150.0, window_mean=mean, window_std=std,
            ip_pool_size=6, port_pool_size=12,
        )

    profiles = [
        window_profile("wlow", 4000.0, 500.0),
        window_profile("wmid", 12000.0, 1500.0),
        window_profile("whigh", 24000.0, 3000.0),
    ]
    traces = generate_dataset(profiles, 3, 60.0, derive_seed(13, "6d"))
    X, y, *_ = stack_series([extract_series(t, WindowSpec.burst(500)) for t in traces])
    accuracy = {}
    for nu in (2.0, 64.0):
        transformed = TransformSpec("realistic", nu=nu).apply(X, derive_seed(13, "6d", nu))
        train_idx, test_idx = attackers.split(
            y, 0.7, derive_seed(13, "6d", nu, "split")
        )
        model = attackers.train(
            "mlp", transformed[train_idx], y[train_idx], seed=derive_seed(13, "6d", nu, "train")
        )
        accuracy[nu] = attackers.evaluate(model, transformed[test_idx], y[test_idx])
        assert accuracy[nu] >= 0.90, f"nu={nu}: {accuracy[nu]}"
    _report(
        "criterion 6d",
        "class signal only in mean_window/std_window survives the realistic "
        f"transform: NN accuracy {accuracy[2.0]:.2f} at nu=2, "
        f"{accuracy[64.0]:.2f} at nu=64 (>= 0.90)",
        budget=600.0,
        elapsed=time.perf_counter() - start,
    )


# --- criterion 7: end-to-end determinism ----------------------------------------

def test_criterion_7_sweep_determinism(tmp_path):
    start = time.perf_counter()
    config_doc = {
        "scenario": "mic_onoff",
        "traces_per_class": 2,
        "duration": 30.0,
        "burst_sizes": [250, 500, 750, 1000, 1250, 1500],
        "transforms": [
            {"mode": "none"},
            {"mode": "smooth", "window": 51, "degree": 1},
            {"mode": "awgn", "nu": 2.0},
            {"mode": "realistic", "nu": 2.0},
        ],
        "classifiers": [
            {"kind": "knn", "k": 5},
            {"kind": "tree"},
            {"kind": "forest", "n_trees": 100},
            {"kind": "adaboost", "rounds": 50},
            {"kind": "mlp", "epochs": 200},
        ],
        "seed": 42,
        "output_dir": "out",
    }
    config = config_from_dict(config_doc, base_dir=tmp_path)
    first = run_experiment(config)
    emit_report(first, tmp_path / "a")
    second = run_experiment(config_from_dict(config_doc, base_dir=tmp_path))
    emit_report(second, tmp_path / "b")
    bytes_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert bytes_a == bytes_b
    grid = 6 * 4 * 5
    assert len(first.rows) == grid
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7",
        f"two runs of the {grid}-cell sweep produced byte-identical sweep.csv "
        f"({len(first.ok_rows())} cells, {len(first.skipped_rows())} skipped)",
        budget=1200.0,  # two sweeps at <= 10 min each
        elapsed=elapsed,
    )
    assert elapsed / 2 < 600.0, "one sweep must stay under 10 minutes"


# --- criterion 8: pcap round-trip -------------------------------------------------

def test_criterion_8_pcap_round_trip():
    start = time.perf_counter()
    specs = [
        (0.0, Protocol.TCP, 0x0A000001, 0x0A000002, 4000, 443, 512),
        (0.5, Protocol.UDP, 0x0A000001, 0x0A000003, 5000, 53, 0),
        (1.25, Protocol.ICMP, 0x0A000001, 0x0A000004, 0, 0, 0),
    ]
    records = [
        (ts, ipv4_frame(proto, src, dst, sport, dport, window))
        for ts, proto, src, dst, sport, dport, window in specs
    ]
    for byte_order in ("<", ">"):
        for nanos in (False, True):
            trace, _ = parse_pcap_with_stats(
                build_pcap(records, byte_order=byte_order, nanos=nanos), label="rt"
            )
            assert len(trace.packets) == len(specs)
            for packet, (ts, proto, src, dst, sport, dport, window) in zip(
                trace.packets, specs
            ):
                assert packet.timestamp == pytest.approx(ts, abs=1e-9)
                assert packet.protocol is proto
                assert (packet.src_ip, packet.dst_ip) == (src, dst)
                assert (packet.src_port, packet.dst_port) == (sport, dport)
                assert packet.tcp_window == window

    truncated, stats = parse_pcap_with_stats(build_pcap(records)[:-12], label="rt")
    assert len(truncated.packets) == 2
    assert stats.truncated_records == 1
    _report(
        "criterion 8",
        "fixtures in both byte orders and both timestamp resolutions parse "
        "field-exactly; truncated record yields a partial trace with a warning count",
        budget=1.0,
        elapsed=time.perf_counter() - start,
    )
