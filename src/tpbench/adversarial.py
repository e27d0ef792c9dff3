"""Feature-series defense transforms: smoothing, noise injection, realistic mode.

Three operators over a feature matrix, all shape-preserving:

* least-squares polynomial smoothing through a centered moving window
  (mirror-reflected at the edges so output length equals input length);
* zero-mean Gaussian noise scaled to a multiple of each column's own
  variance (nothing floors or rounds the result, so a count can turn
  fractional or negative);
* the constrained "realistic" mode: constant padding of the mean packet
  length (column max), zeroing of the length std, noise on the five
  egress-falsifiable features, everything else untouched.

`TransformSpec` is the one description of a transform: it alone checks a
mode's parameters and formats the key, parameters and pivot label the
reports print, and `TransformSpec.apply(X, seed)` is the one way to run it.
`TRANSFORM_PARAMS` is the one list of the modes and of the parameters each
reads: a config's keys, the printed parameters and `perturb --mode` follow it.
`savgol_coefficients` exposes the smoothing weights for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tpbench.features import FEATURE_INDEX, N_FEATURES
from tpbench.rules import POSITIVE, check, is_int

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
    "awgn": ("nu",),
    "realistic": ("nu",),
}


def mode_params(mode) -> tuple[str, ...]:
    """The parameters `mode` reads; an unknown mode raises a ValueError
    naming the known ones."""
    if not isinstance(mode, str) or mode not in TRANSFORM_PARAMS:
        raise ValueError(f"transform mode {mode!r} unknown; expected one of {[*TRANSFORM_PARAMS]}")
    return TRANSFORM_PARAMS[mode]


class NonFiniteOutputError(ValueError):
    """A transform's output holds NaN or +-inf, e.g. noise scaled by a huge nu."""


@dataclass(frozen=True)
class TransformSpec:
    """One defense transform: a mode and the parameters it reads.

    Parameters a mode does not read are not checked and do not enter its
    key. The noise seed is an argument of `apply`, not a field: the sweep
    derives each cell's seed from the key.
    """

    mode: str = "none"  # none | smooth | awgn | realistic
    window: int = 51
    degree: int = 1
    nu: float = 0.0

    def __post_init__(self):
        mode_params(self.mode)
        if self.mode == "smooth":
            check(self.window, (lambda v: is_int(v) and v >= 3 and v % 2 == 1,
                                "an odd integer >= 3"), "transform smooth: window")
            check(self.degree, (lambda v: is_int(v) and 0 <= v < self.window,
                                "an integer in [0, window - 1]"), "transform smooth: degree")
        if self.mode in ("awgn", "realistic"):
            check(self.nu, POSITIVE, f"transform {self.mode}: nu")
            object.__setattr__(self, "nu", float(self.nu))  # an integer nu prints as nu=2.0

    def params_repr(self) -> str:
        """The parameters the mode reads, as `name=value` in TRANSFORM_PARAMS order."""
        return ",".join(f"{name}={getattr(self, name)}" for name in TRANSFORM_PARAMS[self.mode])

    def key(self) -> str:
        return f"{self.mode}({self.params_repr()})"

    def label(self) -> str:
        """This spec's pivot column name among the specs of its mode.

        Distinct specs get distinct labels: `deg3` (or `w31deg3` off the
        default window), `nu2` (or the full repr where `:g` would round,
        as in `nu0.1234567`).
        """
        if self.mode == "smooth":
            degree = f"deg{self.degree}"
            return degree if self.window == 51 else f"w{self.window}{degree}"
        if self.mode == "none":
            return ""
        short = f"{self.nu:g}"
        nu = short if float(short) == self.nu else repr(self.nu)
        return f"nu{nu}"

    def apply(self, X: np.ndarray, seed: int) -> np.ndarray:
        """The transformed copy of X, noise drawn with `seed`. Raises
        ValueError when X is too short for the mode, and NonFiniteOutputError
        naming key() if any output value is not finite (e.g. noise scaled by
        a huge nu)."""
        out = _KERNELS[self.mode](np.asarray(X, dtype=np.float64), self, seed)
        # min and max propagate NaN, so both are finite only if every value is;
        # unlike isfinite(out) this allocates no matrix-sized temporary
        if out.size and not np.isfinite([out.min(), out.max()]).all():
            raise NonFiniteOutputError(f"transform {self.key()} produced non-finite values")
        return out


def savgol_coefficients(spec: TransformSpec) -> np.ndarray:
    """Central-point convolution weights of a smoothing spec's window.

    Least-squares fit of a degree-d polynomial over offsets [-m, m], evaluated
    at the center. The fit is performed in offset/m units: the weights are
    identical in exact arithmetic and the scaled system is well conditioned.
    Weights sum to 1 and are symmetric about the center.
    """
    if spec.mode != "smooth":
        raise ValueError(f"smoothing weights asked of transform {spec.key()}")
    m = (spec.window - 1) // 2
    u = np.arange(-m, m + 1, dtype=np.float64) / max(m, 1)
    design = u[:, None] ** np.arange(spec.degree + 1)[None, :]
    target = np.zeros(spec.degree + 1)
    target[0] = 1.0
    weights, *_ = np.linalg.lstsq(design.T, target, rcond=None)
    return weights


def _smooth_columns(X: np.ndarray, spec: TransformSpec, seed: int) -> np.ndarray:
    """Convolve every column with the smoothing weights.

    Interior points use full windows; each end is extended by mirror
    reflection (without repeating the edge sample) so the output has the
    input's length.
    """
    n = X.shape[0]
    if n < spec.window:
        raise ValueError(
            f"series length {n} < window {spec.window}; "
            "reduce window or skip this configuration"
        )
    weights = savgol_coefficients(spec)
    m = (spec.window - 1) // 2
    out = np.empty_like(X)
    for col in range(X.shape[1]):
        padded = np.pad(X[:, col], m, mode="reflect")
        out[:, col] = np.correlate(padded, weights, mode="valid")
    return out


_REALISTIC_AWGN_COLUMNS = tuple(FEATURE_INDEX[name] for name in REALISTIC_AWGN_FEATURES)


def _add_noise(
    X: np.ndarray, spec: TransformSpec, seed: int, columns=range(N_FEATURES)
) -> np.ndarray:
    """X with N(0, nu * var(column)) noise added to each of `columns` (all
    of them for the awgn mode), drawn in ascending column order.

    Column variance is the population variance over the full series being
    transformed. Zero-variance columns are left unchanged: no noise can be
    proportional to a variance of zero.
    """
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to scale noise to the signal")
    rng = np.random.default_rng(seed)
    out = X.copy()
    for idx in sorted(columns):
        sigma2 = float(np.var(X[:, idx]))
        if sigma2 == 0.0:
            continue
        out[:, idx] += rng.normal(0.0, np.sqrt(spec.nu * sigma2), size=X.shape[0])
    return out


def _realistic_columns(X: np.ndarray, spec: TransformSpec, seed: int) -> np.ndarray:
    """Constrained defense on a raw feature matrix.

    mean_len_pack is padded to its column max, std_len_pack zeroed, AWGN
    applied to the five falsifiable features, and the untouched set is
    bit-identical to the input.
    """
    out = _add_noise(X, spec, seed, _REALISTIC_AWGN_COLUMNS)
    pad_idx = FEATURE_INDEX[REALISTIC_PADDED_FEATURE]
    out[:, pad_idx] = np.max(X[:, pad_idx])
    out[:, FEATURE_INDEX[REALISTIC_ZEROED_FEATURE]] = 0.0
    return out


_KERNELS = {
    "none": lambda X, spec, seed: X.copy(),
    "smooth": _smooth_columns,
    "awgn": _add_noise,
    "realistic": _realistic_columns,
}
