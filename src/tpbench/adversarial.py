"""Feature-series defense transforms: smoothing, noise injection, realistic mode.

Three operators over a feature matrix, all shape-preserving:

* least-squares polynomial smoothing through a centered moving window
  (mirror-reflected at the edges so output length equals input length);
* zero-mean Gaussian noise scaled to a multiple of each column's own
  variance;
* the constrained "realistic" mode: constant padding of the mean packet
  length (column max), zeroing of the length std, noise on the five
  egress-falsifiable features, everything else untouched.

`TransformSpec` is the one description of a transform: it alone checks a
mode's parameters and formats the key, parameters and pivot label the
reports print, and `TransformSpec.apply` dispatches to the column kernels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from tpbench.features import COUNT_FEATURES, FEATURE_INDEX, FEATURE_NAMES

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

# The parameters each mode reads; a config may give only these.
TRANSFORM_PARAMS: dict[str, tuple[str, ...]] = {
    "none": (),
    "smooth": ("window", "degree"),
    "awgn": ("nu", "clamp_counts"),
    "realistic": ("nu", "clamp_counts"),
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TransformSpec:
    """One defense transform: a mode and the parameters it reads.

    Parameters a mode does not read are not checked and do not enter its
    key. `seed` is the noise seed the column kernels draw with; `apply`
    draws with the seed it is given instead, and `key()` leaves the seed
    out because the sweep derives each cell's seed from the key.
    """

    mode: str  # none | smooth | awgn | realistic
    window: int = 51
    degree: int = 1
    nu: float = 0.0
    clamp_counts: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.mode not in TRANSFORM_PARAMS:
            raise ValueError(
                f"transform mode {self.mode!r} unknown; expected one of {list(TRANSFORM_PARAMS)}"
            )
        if self.mode == "smooth":
            if not _is_int(self.window) or self.window < 3 or self.window % 2 == 0:
                raise ValueError(
                    f"transform smooth: window must be an odd integer >= 3, got {self.window!r}"
                )
            if not _is_int(self.degree) or not 0 <= self.degree < self.window:
                raise ValueError(
                    "transform smooth: degree must be an integer in [0, window - 1], "
                    f"got {self.degree!r}"
                )
        if self.mode in ("awgn", "realistic"):
            nu = self.nu
            if not (isinstance(nu, numbers.Real) and not isinstance(nu, bool)
                    and math.isfinite(nu) and nu > 0):
                raise ValueError(
                    f"transform {self.mode}: nu must be a finite number > 0, got {nu!r}"
                )
            object.__setattr__(self, "nu", float(nu))  # an integer nu prints as nu=2.0
            if not isinstance(self.clamp_counts, bool):
                raise ValueError(
                    f"transform {self.mode}: clamp_counts must be true or false, "
                    f"got {self.clamp_counts!r}"
                )

    def params_repr(self) -> str:
        if self.mode == "smooth":
            return f"window={self.window},degree={self.degree}"
        if self.mode in ("awgn", "realistic"):
            extra = ",clamp_counts=true" if self.clamp_counts else ""
            return f"nu={self.nu!r}{extra}"
        return ""

    def key(self) -> str:
        return f"{self.mode}({self.params_repr()})"

    def label(self) -> str:
        """This spec's pivot column name among the specs of its mode.

        Distinct specs get distinct labels: `deg3` (or `w31deg3` off the
        default window), `nu2` (or the full repr where `:g` would round,
        as in `nu0.1234567`), with `+clamp` when counts are clamped.
        """
        if self.mode == "smooth":
            degree = f"deg{self.degree}"
            return degree if self.window == 51 else f"w{self.window}{degree}"
        if self.mode == "none":
            return ""
        short = f"{self.nu:g}"
        nu = short if float(short) == self.nu else repr(self.nu)
        return f"nu{nu}" + ("+clamp" if self.clamp_counts else "")

    def apply(self, X: np.ndarray, seed: int) -> np.ndarray:
        """The transformed copy of X, noise drawn with `seed`. Raises
        NonFiniteOutputError naming key() if any value is not finite (e.g.
        noise scaled by a huge nu)."""
        if self.mode == "none":
            return check_finite(np.array(X, dtype=np.float64, copy=True), self.key())
        if self.mode == "smooth":
            return smooth_columns(X, self)
        if self.mode == "awgn":
            return inject_awgn_columns(X, self.nu, seed, clamp_counts=self.clamp_counts)
        return apply_realistic_columns(X, replace(self, seed=seed))


def SavGolSpec(window_length: int = 51, poly_degree: int = 1) -> TransformSpec:
    """The smoothing spec of a window length and polynomial degree."""
    return TransformSpec("smooth", window=window_length, degree=poly_degree)


def RealisticSpec(
    variance_multiplier: float, seed: int = 0, clamp_counts: bool = False
) -> TransformSpec:
    """The realistic-mode spec of a noise level, seed and clamp choice."""
    return TransformSpec(
        "realistic", nu=variance_multiplier, clamp_counts=clamp_counts, seed=seed
    )


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


def _expect_mode(spec: TransformSpec, mode: str) -> None:
    if spec.mode != mode:
        raise ValueError(f"a {mode} kernel was given transform {spec.key()}")


def savgol_coefficients(spec: TransformSpec) -> np.ndarray:
    """Central-point convolution weights of the smoothing window.

    Least-squares fit of a degree-d polynomial over offsets [-m, m], evaluated
    at the center. The fit is performed in offset/m units: the weights are
    identical in exact arithmetic and the scaled system is well conditioned.
    Weights sum to 1 and are symmetric about the center.
    """
    _expect_mode(spec, "smooth")
    m = (spec.window - 1) // 2
    u = np.arange(-m, m + 1, dtype=np.float64) / max(m, 1)
    design = u[:, None] ** np.arange(spec.degree + 1)[None, :]
    target = np.zeros(spec.degree + 1)
    target[0] = 1.0
    weights, *_ = np.linalg.lstsq(design.T, target, rcond=None)
    return weights


def smooth_columns(X: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Convolve every column with the smoothing weights.

    Interior points use full windows; each end is extended by mirror
    reflection (without repeating the edge sample) so the output has the
    input's length.
    """
    weights = savgol_coefficients(spec)
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < spec.window:
        raise ValueError(
            f"series length {n} < window_length {spec.window}; "
            "reduce window_length or skip this configuration"
        )
    m = (spec.window - 1) // 2
    out = np.empty_like(X)
    for col in range(X.shape[1]):
        padded = np.pad(X[:, col], m, mode="reflect")
        out[:, col] = np.correlate(padded, weights, mode="valid")
    return check_finite(out, spec.key())


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
    spec = TransformSpec("awgn", nu=nu, clamp_counts=clamp_counts, seed=seed)
    unknown = [f for f in feature_mask if f not in FEATURE_INDEX]
    if unknown:
        raise ValueError(f"transform {spec.key()}: unknown features in mask: {unknown}")
    return check_finite(_add_noise(X, spec, feature_mask), spec.key())


def _add_noise(X: np.ndarray, spec: TransformSpec, feature_mask: tuple[str, ...]) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to scale noise to the signal")
    rng = np.random.default_rng(spec.seed)
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
        out[:, idx] += rng.normal(0.0, np.sqrt(spec.nu * sigma2), size=X.shape[0])
        noised.add(name)
    if spec.clamp_counts:
        _clamp_counts(out, noised)
    return out


def apply_realistic_columns(X: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Constrained defense on a raw feature matrix.

    mean_len_pack is padded to its column max, std_len_pack zeroed, AWGN
    applied to the five falsifiable features, and the untouched set is
    bit-identical to the input.
    """
    _expect_mode(spec, "realistic")
    X = np.asarray(X, dtype=np.float64)
    out = _add_noise(X, spec, REALISTIC_AWGN_FEATURES)
    pad_idx = FEATURE_INDEX[REALISTIC_PADDED_FEATURE]
    out[:, pad_idx] = np.max(X[:, pad_idx])
    out[:, FEATURE_INDEX[REALISTIC_ZEROED_FEATURE]] = 0.0
    return check_finite(out, spec.key())
