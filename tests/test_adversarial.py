import re
import warnings

import numpy as np
import pytest

from helpers import REALISTIC_UNTOUCHED_FEATURES, exact_savgol_weights
from tpbench import harness
from tpbench.adversarial import (
    REALISTIC_AWGN_FEATURES,
    REALISTIC_PADDED_FEATURE,
    REALISTIC_ZEROED_FEATURE,
    NonFiniteOutputError,
    TransformSpec,
    savgol_coefficients,
)
from tpbench.features import FEATURE_INDEX, FEATURE_NAMES


def random_matrix(rng, n=300) -> np.ndarray:
    return rng.normal(50.0, 12.0, size=(n, len(FEATURE_NAMES)))


def smooth(window: int = 51, degree: int = 1) -> TransformSpec:
    return TransformSpec("smooth", window=window, degree=degree)


# --- coefficients -------------------------------------------------------------

def test_window5_degree2_classic_weights():
    weights = savgol_coefficients(smooth(5, 2))
    expected = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    assert np.max(np.abs(weights - expected)) < 1e-14


def test_degree_zero_is_moving_average():
    for window in (3, 7, 51):
        weights = savgol_coefficients(smooth(window, 0))
        assert np.allclose(weights, np.full(window, 1.0 / window), atol=1e-15)


def test_weights_sum_to_one_and_symmetric():
    for window in (5, 11, 25, 51):
        for degree in (0, 1, 2, 3, 5, 7, 9):
            if degree > window - 1:
                continue
            weights = savgol_coefficients(smooth(window, degree))
            assert abs(weights.sum() - 1.0) < 1e-12
            assert np.max(np.abs(weights - weights[::-1])) < 1e-12


def test_weights_match_exact_rational_oracle():
    for window in (5, 9, 21, 51):
        for degree in (0, 1, 4, 9):
            if degree > window - 1:
                continue
            got = savgol_coefficients(smooth(window, degree))
            want = np.array(exact_savgol_weights(window, degree))
            assert np.max(np.abs(got - want)) < 1e-10, (window, degree)


def test_weights_match_scipy_savgol_coeffs():
    # scipy fits in unscaled offsets, so its own weights drift from the exact
    # ones as the degree grows (at window 51, degree 10 they are 3e-4 off,
    # these 1e-14); below degree 9 the two agree on every window
    signal = pytest.importorskip("scipy.signal")
    for window in range(3, 52, 2):
        for degree in range(min(window, 9)):
            got = savgol_coefficients(smooth(window, degree))
            want = signal.savgol_coeffs(window, degree)
            assert np.allclose(got, want, atol=1e-10), (window, degree)


def test_spec_validation():
    with pytest.raises(ValueError):
        smooth(4, 1)  # even window
    with pytest.raises(ValueError):
        smooth(5, 5)  # degree >= window
    with pytest.raises(ValueError):
        TransformSpec("awgn", nu=0.0)
    with pytest.raises(ValueError):
        TransformSpec("realistic", nu=-1.0)
    with pytest.raises(ValueError, match="transform mode 'blur' unknown"):
        TransformSpec("blur")


def test_kernels_check_their_arguments_through_the_spec():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning before the error
        for nu in (0.0, -1, float("nan"), float("inf"), "2", True):
            with pytest.raises(ValueError, match=r"transform awgn: nu must be a finite number > 0"):
                TransformSpec("awgn", nu=nu)
    with pytest.raises(ValueError, match="transform realistic: nu must be"):
        TransformSpec("realistic", nu=-1.0)
    for window, degree in ((4, 1), (1, 0), (51.0, 1), (True, 0), (5, 5), (5, -1), (5, 1.5)):
        with pytest.raises(ValueError, match="transform smooth: (window|degree) must be"):
            smooth(window, degree)
    # the weights of another mode's spec are refused instead of read from defaults
    with pytest.raises(ValueError, match=r"smoothing weights asked of transform awgn\(nu=2.0\)"):
        savgol_coefficients(TransformSpec("awgn", nu=2.0))
    # the noise seed is an argument of apply, not a spec field, and no flag
    # floors the noisy counts
    with pytest.raises(TypeError):
        TransformSpec("awgn", nu=2.0, seed=5)
    with pytest.raises(TypeError):
        TransformSpec("awgn", nu=1.0, clamp_counts=True)


def test_one_spec_class_with_stable_keys_and_distinct_labels():
    assert harness.TransformSpec is TransformSpec
    assert TransformSpec("realistic", nu=2) == TransformSpec("realistic", nu=2.0)
    # cell seeds derive from key(), so these bytes are pinned
    keys = {
        TransformSpec("none"): ("none()", ""),
        smooth(): ("smooth(window=51,degree=1)", "deg1"),
        smooth(31, 3): ("smooth(window=31,degree=3)", "w31deg3"),
        TransformSpec("awgn", nu=2): ("awgn(nu=2.0)", "nu2"),
        TransformSpec("awgn", nu=0.1234567): ("awgn(nu=0.1234567)", "nu0.1234567"),
        TransformSpec("awgn", nu=0.12345678): ("awgn(nu=0.12345678)", "nu0.12345678"),
        TransformSpec("realistic", nu=1e308): ("realistic(nu=1e+308)", "nu1e+308"),
        TransformSpec("realistic", nu=np.float64(0.2)): ("realistic(nu=0.2)", "nu0.2"),
    }
    for spec, (key, label) in keys.items():
        assert (spec.key(), spec.label()) == (key, label)


# --- smoothing ----------------------------------------------------------------

def test_polynomial_reproduced_on_interior():
    n = 200
    t = np.arange(n, dtype=float) / n
    for degree in (1, 3, 5):
        spec = smooth(51, degree)
        column = 2.0 - t + 3.0 * t**degree
        out = spec.apply(column[:, None], 0)[:, 0]
        m = 25
        interior_err = np.max(np.abs(out[m : n - m] - column[m : n - m]))
        scale = np.max(np.abs(column))
        assert interior_err < 1e-9 * scale


def test_constant_column_preserved_everywhere():
    column = np.full(120, 7.25)
    out = smooth(51, 3).apply(column[:, None], 0)[:, 0]
    assert np.max(np.abs(out - 7.25)) < 1e-12


def test_smoothing_is_linear():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(150, 1))
    y = rng.normal(size=(150, 1))
    spec = smooth(31, 2)
    lhs = spec.apply(2.5 * x - 1.5 * y, 0)
    rhs = 2.5 * spec.apply(x, 0) - 1.5 * spec.apply(y, 0)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_cubic_smoothed_by_degree_one_loses_variance():
    # a cubic with interior extrema: degree-1 smoothing flattens the peaks
    n = 300
    t = np.linspace(-2.0, 2.0, n)
    column = t**3 - 3.0 * t
    out = smooth(51, 1).apply(column[:, None], 0)[:, 0]
    interior = slice(25, n - 25)
    residual = np.abs(out[interior] - column[interior])
    assert residual.max() > 0.0  # a cubic is not degree-1 reproducible
    assert np.var(out[interior]) < np.var(column[interior])


def test_short_series_rejected_with_guidance():
    with pytest.raises(ValueError, match="series length 20 < window 51; reduce window"):
        smooth(51, 1).apply(np.zeros((20, 12)), 0)


# --- noise injection ------------------------------------------------------------

def test_constant_column_skipped():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(100, 12))
    values[:, 3] = 42.0
    out = TransformSpec("awgn", nu=0.2).apply(values, 8)
    assert np.array_equal(out[:, 3], values[:, 3])
    assert not np.array_equal(out[:, 0], values[:, 0])


def test_awgn_deterministic_per_seed():
    rng = np.random.default_rng(3)
    X = random_matrix(rng)
    spec = TransformSpec("awgn", nu=1.0)
    a = spec.apply(X, 77)
    b = spec.apply(X.copy(), 77)
    c = spec.apply(X, 78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_awgn_statistics_match_request():
    rng = np.random.default_rng(11)
    n = 20_000
    values = np.zeros((n, 12))
    values[:, 0] = rng.normal(0.0, 2.0, size=n)
    sigma2 = float(np.var(values[:, 0]))
    nu = 2.0
    out = TransformSpec("awgn", nu=nu).apply(values, 4)
    noise = out[:, 0] - values[:, 0]
    assert abs(noise.mean()) < 4 * np.sqrt(nu * sigma2 / n)
    assert abs(np.var(noise) / (nu * sigma2) - 1.0) < 0.05


def test_awgn_needs_two_rows():
    for mode in ("awgn", "realistic"):
        spec = TransformSpec(mode, nu=1.0)
        spec.apply(np.ones((2, 12)), 0)  # fine
        with pytest.raises(ValueError, match="need at least 2 rows to scale noise"):
            spec.apply(np.ones((1, 12)), 0)


# --- realistic mode --------------------------------------------------------------

def test_treatment_map_is_the_documented_table():
    assert set(REALISTIC_AWGN_FEATURES) == {
        "n_port_unique", "n_pack_tcp", "n_pack_udp", "n_pack_icmp", "std_ipt"
    }
    assert REALISTIC_PADDED_FEATURE == "mean_len_pack"
    assert REALISTIC_ZEROED_FEATURE == "std_len_pack"
    assert set(REALISTIC_UNTOUCHED_FEATURES) == {
        "n_ip_unique", "max_diff_time", "mean_window", "std_window", "mean_ipt"
    }
    # the three groups partition the feature set
    assert (
        set(REALISTIC_AWGN_FEATURES)
        | {REALISTIC_PADDED_FEATURE, REALISTIC_ZEROED_FEATURE}
        | set(REALISTIC_UNTOUCHED_FEATURES)
    ) == set(FEATURE_NAMES)


def test_realistic_contract():
    rng = np.random.default_rng(21)
    X = random_matrix(rng)
    out = TransformSpec("realistic", nu=2.0).apply(X, 9)
    assert out.shape == X.shape
    for name in REALISTIC_UNTOUCHED_FEATURES:
        idx = FEATURE_INDEX[name]
        assert np.array_equal(out[:, idx], X[:, idx]), name
    pad_idx = FEATURE_INDEX[REALISTIC_PADDED_FEATURE]
    assert np.all(out[:, pad_idx] == X[:, pad_idx].max())
    assert np.all(out[:, FEATURE_INDEX[REALISTIC_ZEROED_FEATURE]] == 0.0)
    changed = {
        name
        for name in FEATURE_NAMES
        if not np.array_equal(out[:, FEATURE_INDEX[name]], X[:, FEATURE_INDEX[name]])
    }
    assert changed == set(REALISTIC_AWGN_FEATURES) | {
        REALISTIC_PADDED_FEATURE,
        REALISTIC_ZEROED_FEATURE,
    }


def test_realistic_untouched_holds_at_huge_nu():
    rng = np.random.default_rng(23)
    X = random_matrix(rng)
    out = TransformSpec("realistic", nu=1e9).apply(X, 9)
    for name in REALISTIC_UNTOUCHED_FEATURES:
        idx = FEATURE_INDEX[name]
        assert np.array_equal(out[:, idx], X[:, idx])


def test_library_transforms_reject_non_finite_output():
    rng = np.random.default_rng(24)
    X = rng.normal(50.0, 12.0, size=(60, len(FEATURE_NAMES)))
    with pytest.raises(NonFiniteOutputError, match=r"awgn\(nu=1e\+308\) produced non-finite"):
        TransformSpec("awgn", nu=1e308).apply(X, 1)
    with pytest.raises(NonFiniteOutputError, match=r"realistic\(nu=1e\+308\) produced"):
        TransformSpec("realistic", nu=1e308).apply(X, 1)
    for bad in (np.nan, np.inf, -np.inf):
        Xbad = X.copy()
        Xbad[7, FEATURE_INDEX["mean_ipt"]] = bad  # a column the realistic mode leaves alone
        for spec in (TransformSpec("none"), smooth(5, 2), TransformSpec("realistic", nu=0.5)):
            with pytest.raises(NonFiniteOutputError, match=rf"transform {re.escape(spec.key())} produced"):
                spec.apply(Xbad, 1)
    # np.var of a column holding inf warns, so the awgn mode sees only NaN here
    Xbad[7, FEATURE_INDEX["mean_ipt"]] = np.nan
    with pytest.raises(NonFiniteOutputError, match=r"awgn\(nu=0.5\)"):
        TransformSpec("awgn", nu=0.5).apply(Xbad, 1)
    assert np.isfinite(TransformSpec("awgn", nu=1e9).apply(X, 1)).all()
