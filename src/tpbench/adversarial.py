"""Feature-series defense transforms: smoothing, noise injection, realistic mode.

Three operators over a feature time series, all length- and metadata-
preserving:

* least-squares polynomial smoothing through a centered moving window
  (mirror-reflected at the edges so output length equals input length);
* zero-mean Gaussian noise scaled to a multiple of each column's own
  variance;
* the constrained "realistic" mode: constant padding of the mean packet
  length (column max), zeroing of the length std, noise on the five
  egress-falsifiable features, everything else untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tpbench.features import (
    COUNT_FEATURES,
    FEATURE_INDEX,
    FEATURE_NAMES,
    FeatureSeries,
)

# Realistic-mode treatment map: which feature gets which treatment.
REALISTIC_AWGN_FEATURES: tuple[str, ...] = (
    "n_port_unique",
    "n_pack_tcp",
    "n_pack_udp",
    "n_pack_icmp",
    "std_ipt",
)
REALISTIC_PADDED_FEATURE = "mean_len_pack"
REALISTIC_ZEROED_FEATURE = "std_len_pack"
REALISTIC_UNTOUCHED_FEATURES: tuple[str, ...] = (
    "n_ip_unique",
    "max_diff_time",
    "mean_window",
    "std_window",
    "mean_ipt",
)


@dataclass(frozen=True)
class SavGolSpec:
    """Centered least-squares smoothing window."""

    window_length: int = 51
    poly_degree: int = 1

    def __post_init__(self):
        if self.window_length < 3 or self.window_length % 2 == 0:
            raise ValueError("window_length must be an odd integer >= 3")
        if not 0 <= self.poly_degree <= self.window_length - 1:
            raise ValueError("poly_degree must lie in [0, window_length - 1]")


@dataclass(frozen=True)
class AwgnSpec:
    """Zero-mean Gaussian noise with variance nu * column variance."""

    variance_multiplier: float
    seed: int = 0
    feature_mask: tuple[str, ...] = FEATURE_NAMES
    clamp_counts: bool = False

    def __post_init__(self):
        if self.variance_multiplier <= 0:
            raise ValueError("variance multiplier must be positive")
        unknown = [f for f in self.feature_mask if f not in FEATURE_INDEX]
        if unknown:
            raise ValueError(f"unknown features in mask: {unknown}")


@dataclass(frozen=True)
class RealisticSpec:
    """Parameters for the constrained defense; the treatment map is fixed."""

    variance_multiplier: float
    seed: int = 0
    clamp_counts: bool = False

    def __post_init__(self):
        if self.variance_multiplier <= 0:
            raise ValueError("variance multiplier must be positive")


class NonFiniteOutputError(ValueError):
    """A transform's output holds NaN or +-inf, e.g. noise scaled by a huge nu."""


def check_finite(out: np.ndarray, transform: str) -> np.ndarray:
    """out itself; raises NonFiniteOutputError naming the transform if any
    value is not finite."""
    # min and max propagate NaN, so both are finite only if every value is;
    # unlike isfinite(out) this allocates no matrix-sized temporary
    if out.size and not np.isfinite([out.min(), out.max()]).all():
        raise NonFiniteOutputError(f"transform {transform} produced non-finite values")
    return out


def savgol_coefficients(spec: SavGolSpec) -> np.ndarray:
    """Central-point convolution weights of the smoothing window.

    Least-squares fit of a degree-d polynomial over offsets [-m, m], evaluated
    at the center. The fit is performed in offset/m units: the weights are
    identical in exact arithmetic and the scaled system is well conditioned.
    Weights sum to 1 and are symmetric about the center.
    """
    m = (spec.window_length - 1) // 2
    u = np.arange(-m, m + 1, dtype=np.float64) / max(m, 1)
    design = u[:, None] ** np.arange(spec.poly_degree + 1)[None, :]
    target = np.zeros(spec.poly_degree + 1)
    target[0] = 1.0
    weights, *_ = np.linalg.lstsq(design.T, target, rcond=None)
    return weights


def smooth_columns(X: np.ndarray, spec: SavGolSpec) -> np.ndarray:
    """Convolve every column with the smoothing weights.

    Interior points use full windows; each end is extended by mirror
    reflection (without repeating the edge sample) so the output has the
    input's length.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < spec.window_length:
        raise ValueError(
            f"series length {n} < window_length {spec.window_length}; "
            "reduce window_length or skip this configuration"
        )
    weights = savgol_coefficients(spec)
    m = (spec.window_length - 1) // 2
    out = np.empty_like(X)
    for col in range(X.shape[1]):
        padded = np.pad(X[:, col], m, mode="reflect")
        out[:, col] = np.correlate(padded, weights, mode="valid")
    return check_finite(out, f"smooth(w={spec.window_length},d={spec.poly_degree})")


def smooth_series(series: FeatureSeries, spec: SavGolSpec) -> FeatureSeries:
    transformed = smooth_columns(series.values, spec)
    return series.with_values(
        transformed, transform=f"smooth(w={spec.window_length},d={spec.poly_degree})"
    )


def _clamp_counts(X: np.ndarray, noised: set[str]) -> None:
    for name in COUNT_FEATURES:
        if name in noised:
            idx = FEATURE_INDEX[name]
            np.maximum(X[:, idx], 0.0, out=X[:, idx])


def inject_awgn_columns(
    X: np.ndarray,
    nu: float,
    seed: int,
    feature_mask: tuple[str, ...] = FEATURE_NAMES,
    clamp_counts: bool = False,
) -> np.ndarray:
    """Add N(0, nu * var(column)) noise to each masked column.

    Column variance is the population variance over the full series being
    transformed. Zero-variance columns are left unchanged: no noise can be
    proportional to a variance of zero.
    """
    return check_finite(_add_noise(X, nu, seed, feature_mask, clamp_counts), f"awgn(nu={nu})")


def _add_noise(
    X: np.ndarray, nu: float, seed: int, feature_mask: tuple[str, ...], clamp_counts: bool
) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to scale noise to the signal")
    rng = np.random.default_rng(seed)
    out = X.copy()
    noised: set[str] = set()
    # one draw pass per feature in canonical order keeps the stream layout
    # independent of the mask ordering
    mask = set(feature_mask)
    for name in FEATURE_NAMES:
        if name not in mask:
            continue
        idx = FEATURE_INDEX[name]
        sigma2 = float(np.var(X[:, idx]))
        if sigma2 == 0.0:
            continue
        out[:, idx] += rng.normal(0.0, np.sqrt(nu * sigma2), size=X.shape[0])
        noised.add(name)
    if clamp_counts:
        _clamp_counts(out, noised)
    return out


def inject_awgn(series: FeatureSeries, spec: AwgnSpec) -> FeatureSeries:
    transformed = inject_awgn_columns(
        series.values,
        spec.variance_multiplier,
        spec.seed,
        spec.feature_mask,
        spec.clamp_counts,
    )
    return series.with_values(transformed, transform=f"awgn(nu={spec.variance_multiplier})")


def apply_realistic_columns(X: np.ndarray, spec: RealisticSpec) -> np.ndarray:
    """Constrained defense on a raw feature matrix.

    mean_len_pack is padded to its column max, std_len_pack zeroed, AWGN
    applied to the five falsifiable features, and the untouched set is
    bit-identical to the input.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to scale noise to the signal")
    out = _add_noise(
        X,
        spec.variance_multiplier,
        spec.seed,
        REALISTIC_AWGN_FEATURES,
        spec.clamp_counts,
    )
    pad_idx = FEATURE_INDEX[REALISTIC_PADDED_FEATURE]
    out[:, pad_idx] = np.max(X[:, pad_idx])
    out[:, FEATURE_INDEX[REALISTIC_ZEROED_FEATURE]] = 0.0
    return check_finite(out, f"realistic(nu={spec.variance_multiplier})")


def apply_realistic(series: FeatureSeries, spec: RealisticSpec) -> FeatureSeries:
    transformed = apply_realistic_columns(series.values, spec)
    return series.with_values(
        transformed, transform=f"realistic(nu={spec.variance_multiplier})"
    )
