"""Experiment orchestration: dataset -> windows -> transforms -> attackers.

A declarative JSON config names the data source, the window sweep, the
adversarial grid and the classifier suite. Every grid cell is evaluated on a
transform of the full concatenated window dataset (transforms run before the
train/test split: the attacker trains after the defense is already deployed)
and gets its own seed derived from the master seed and the cell coordinates,
so cells can run in any order without changing the report.
"""

from __future__ import annotations

import csv
import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tpbench import attackers
from tpbench.adversarial import (
    RealisticSpec,
    SavGolSpec,
    apply_realistic_columns,
    inject_awgn_columns,
    smooth_columns,
)
from tpbench.attackers import SplitSpec
from tpbench.features import EmptySeriesError, WindowSpec, extract_series, stack_series
from tpbench.pcap import load_pcap
from tpbench.seeding import derive_seed
from tpbench.traffic import (
    ClassProfile,
    Scenario,
    Trace,
    builtin_profiles,
    generate_dataset,
)

DEFAULT_BURST_SIZES = (250, 500, 750, 1000, 1250, 1500)

REPORT_COLUMNS = (
    "scenario",
    "classifier",
    "classifier_params",
    "window_mode",
    "window_size",
    "transform",
    "transform_params",
    "accuracy",
    "n_train",
    "n_test",
    "seed",
    "dropped_windows",
    "status",
    "reason",
)


_ROOT_KEYS = frozenset({
    "scenario", "profiles", "pcap_dir", "pcap_labels", "burst_sizes", "timespans",
    "transforms", "classifiers", "traces_per_class", "duration", "train_fraction",
    "seed", "output_dir",
})
_TRANSFORM_KEYS = frozenset({"mode", "window", "degree", "nu", "clamp_counts"})


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def _check_keys(doc: dict, allowed, where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {unknown}; expected some of {sorted(allowed)}"
        )


@dataclass(frozen=True)
class TransformSpec:
    mode: str  # none | smooth | awgn | realistic
    window: int = 51
    degree: int = 1
    nu: float = 0.0
    clamp_counts: bool = False

    def __post_init__(self):
        if self.mode not in ("none", "smooth", "awgn", "realistic"):
            raise ConfigError(f"transform mode {self.mode!r} unknown")
        if self.mode == "smooth":
            SavGolSpec(self.window, self.degree)  # reuse its validation
        if self.mode in ("awgn", "realistic") and self.nu <= 0:
            raise ConfigError(f"transform {self.mode!r} needs nu > 0")

    def params_repr(self) -> str:
        if self.mode == "smooth":
            return f"window={self.window},degree={self.degree}"
        if self.mode in ("awgn", "realistic"):
            extra = ",clamp_counts=true" if self.clamp_counts else ""
            return f"nu={self.nu!r}{extra}"
        return ""

    def key(self) -> str:
        return f"{self.mode}({self.params_repr()})"

    def apply(self, X: np.ndarray, seed: int) -> np.ndarray:
        if self.mode == "none":
            return np.array(X, dtype=np.float64, copy=True)
        if self.mode == "smooth":
            return smooth_columns(X, SavGolSpec(self.window, self.degree))
        if self.mode == "awgn":
            return inject_awgn_columns(X, self.nu, seed, clamp_counts=self.clamp_counts)
        return apply_realistic_columns(X, RealisticSpec(self.nu, seed, self.clamp_counts))


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kind not in attackers.CLASSIFIER_KINDS:
            raise ConfigError(
                f"classifier kind {self.kind!r} unknown; expected one of "
                f"{attackers.CLASSIFIER_KINDS}"
            )
        accepted = inspect.signature(attackers._TRAINERS[self.kind]).parameters.keys() - {"X", "y"}
        _check_keys(dict(self.params), accepted, f"classifier {self.kind!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ClassifierSpec":
        params = {k: v for k, v in doc.items() if k != "kind"}
        return cls.from_params(doc.get("kind", ""), params)

    @classmethod
    def from_params(cls, kind: str, params: dict) -> "ClassifierSpec":
        if "hidden" in params:
            params = {**params, "hidden": tuple(params["hidden"])}
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def params_repr(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.params)

    def key(self) -> str:
        return f"{self.kind}({self.params_repr()})"

    def train(self, X, y, seed: int) -> attackers.TrainedModel:
        params = dict(self.params)
        if self.kind in ("forest", "mlp"):
            params.setdefault("seed", seed)
        return attackers.train(self.kind, X, y, **params)


@dataclass
class ExperimentConfig:
    scenario: str  # preset name, or "custom" with explicit profiles
    profiles: list[ClassProfile] = field(default_factory=list)
    traces_per_class: int = 3
    duration: float = 60.0
    pcap_files: list[tuple[Path, str]] = field(default_factory=list)  # (path, label)
    window_specs: list[WindowSpec] = field(default_factory=list)
    transforms: list[TransformSpec] = field(default_factory=list)
    classifiers: list[ClassifierSpec] = field(default_factory=list)
    train_fraction: float = 0.7
    seed: int = 0
    output_dir: Path = Path("out")

    def validate(self) -> None:
        if not self.window_specs:
            raise ConfigError("window sweep is empty (burst_sizes / timespans)")
        if not self.transforms:
            raise ConfigError("transforms list is empty")
        if not self.classifiers:
            raise ConfigError("classifiers list is empty")
        if not self.pcap_files and not self.profiles:
            raise ConfigError("no data source: give scenario/profiles or pcap_dir")
        if not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")


def _parse_profile(doc: dict, where: str) -> ClassProfile:
    required = {
        "label", "rate", "protocol_mix", "length_mean", "length_std",
        "window_mean", "window_std", "ip_pool_size", "port_pool_size",
    }
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing profile fields {sorted(missing)}")
    _check_keys(doc, required | {"jitter_std"}, where)
    try:
        profile = ClassProfile(
            label=str(doc["label"]),
            rate=float(doc["rate"]),
            protocol_mix=tuple(float(p) for p in doc["protocol_mix"]),
            length_mean=float(doc["length_mean"]),
            length_std=float(doc["length_std"]),
            window_mean=float(doc["window_mean"]),
            window_std=float(doc["window_std"]),
            ip_pool_size=int(doc["ip_pool_size"]),
            port_pool_size=int(doc["port_pool_size"]),
            jitter_std=float(doc.get("jitter_std", 0.0)),
        )
        profile.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return profile


def config_from_dict(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, _ROOT_KEYS, "config")

    scenario = doc.get("scenario", "custom")
    profiles: list[ClassProfile] = []
    if "profiles" in doc:
        if not isinstance(doc["profiles"], list):
            raise ConfigError("profiles: must be a list of profile objects")
        profiles = [
            _parse_profile(p, f"profiles[{i}]") for i, p in enumerate(doc["profiles"])
        ]
    elif "pcap_dir" not in doc:
        try:
            profiles = builtin_profiles(Scenario(scenario))
        except ValueError as exc:
            raise ConfigError(f"scenario: {exc}") from exc

    pcap_files: list[tuple[Path, str]] = []
    if "pcap_dir" in doc:
        pcap_dir = base_dir / doc["pcap_dir"]
        labels = doc.get("pcap_labels")
        if not isinstance(labels, dict) or not labels:
            raise ConfigError("pcap_labels: required with pcap_dir (file -> label)")
        for name, label in labels.items():
            path = pcap_dir / name
            if not path.is_file():
                raise ConfigError(f"pcap_labels: file not found: {path}")
            pcap_files.append((path, str(label)))

    window_specs: list[WindowSpec] = []
    try:
        bursts = doc.get("burst_sizes")
        if bursts is None and "timespans" not in doc:
            bursts = list(DEFAULT_BURST_SIZES)
        for n in bursts or []:
            window_specs.append(WindowSpec.burst(int(n)))
        for dt in doc.get("timespans") or []:
            window_specs.append(WindowSpec.time_span(float(dt)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"window sweep: {exc}") from exc

    transforms = []
    for i, tdoc in enumerate(doc.get("transforms", [{"mode": "none"}])):
        if not isinstance(tdoc, dict):
            raise ConfigError(f"transforms[{i}]: must be an object with a mode")
        _check_keys(tdoc, _TRANSFORM_KEYS, f"transforms[{i}]")
        try:
            transforms.append(
                TransformSpec(
                    mode=tdoc.get("mode", "none"),
                    window=int(tdoc.get("window", 51)),
                    degree=int(tdoc.get("degree", 1)),
                    nu=float(tdoc.get("nu", 0.0)),
                    clamp_counts=bool(tdoc.get("clamp_counts", False)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"transforms[{i}]: {exc}") from exc

    classifiers = []
    for i, cdoc in enumerate(doc.get("classifiers", [])):
        if not isinstance(cdoc, dict):
            raise ConfigError(f"classifiers[{i}]: must be an object with a kind")
        try:
            classifiers.append(ClassifierSpec.from_dict(cdoc))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"classifiers[{i}]: {exc}") from exc

    try:
        config = ExperimentConfig(
            scenario=str(scenario),
            profiles=profiles,
            traces_per_class=int(doc.get("traces_per_class", 3)),
            duration=float(doc.get("duration", 60.0)),
            pcap_files=pcap_files,
            window_specs=window_specs,
            transforms=transforms,
            classifiers=classifiers,
            train_fraction=float(doc.get("train_fraction", 0.7)),
            seed=int(doc.get("seed", 0)),
            output_dir=base_dir / doc.get("output_dir", "out"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    return config_from_dict(doc, base_dir=path.parent)


@dataclass
class SweepRow:
    scenario: str
    classifier: str
    classifier_params: str
    window_mode: str
    window_size: float
    transform: str
    transform_params: str
    accuracy: float | None
    n_train: int
    n_test: int
    seed: int
    dropped_windows: int
    status: str = "ok"
    reason: str = ""

    def as_record(self) -> list[str]:
        return [
            self.scenario,
            self.classifier,
            self.classifier_params,
            self.window_mode,
            repr(float(self.window_size)) if self.window_mode == "timespan" else str(int(self.window_size)),
            self.transform,
            self.transform_params,
            "" if self.accuracy is None else repr(self.accuracy),
            str(self.n_train),
            str(self.n_test),
            str(self.seed),
            str(self.dropped_windows),
            self.status,
            self.reason,
        ]


@dataclass
class SweepReport:
    rows: list[SweepRow]

    def ok_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if r.status == "ok"]

    def skipped_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if r.status != "ok"]


def _load_traces(config: ExperimentConfig) -> list[Trace]:
    if config.pcap_files:
        return [
            load_pcap(path, label, Scenario.CUSTOM) for path, label in config.pcap_files
        ]
    scenario = (
        Scenario(config.scenario)
        if config.scenario in {s.value for s in Scenario}
        else Scenario.CUSTOM
    )
    return generate_dataset(
        config.profiles,
        config.traces_per_class,
        config.duration,
        derive_seed(config.seed, "dataset"),
        scenario,
    )


def run_cell(
    X: np.ndarray,
    y: np.ndarray,
    clf: ClassifierSpec,
    train_fraction: float,
    cell_seed: int,
) -> tuple[float, int, int]:
    """Split, standardize-and-train, evaluate one grid cell."""
    train_idx, test_idx = attackers.split(
        y, SplitSpec(train_fraction, derive_seed(cell_seed, "split"))
    )
    model = clf.train(X[train_idx], y[train_idx], derive_seed(cell_seed, "train"))
    accuracy = attackers.evaluate(model, X[test_idx], y[test_idx])
    return accuracy, train_idx.size, test_idx.size


def run_experiment(config: ExperimentConfig) -> SweepReport:
    config.validate()
    traces = _load_traces(config)

    rows: list[SweepRow] = []
    for wspec in config.window_specs:
        series_list = []
        dropped = 0
        for trace in traces:
            try:
                series = extract_series(trace, wspec)
            except EmptySeriesError:
                dropped += 1
                continue
            series_list.append(series)
            dropped += series.dropped_windows
        if series_list:
            X, y = stack_series(series_list)
        else:
            X = y = None

        for tspec in config.transforms:
            transform_seed = derive_seed(config.seed, "transform", wspec.key(), tspec.key())
            Xt = None
            skip_reason = ""
            if X is None:
                skip_reason = "no trace produced a usable window at this size"
            else:
                try:
                    Xt = tspec.apply(X, transform_seed)
                except ValueError as exc:
                    skip_reason = str(exc)

            for clf in config.classifiers:
                cell_seed = derive_seed(
                    config.seed, "cell", wspec.key(), tspec.key(), clf.key()
                )
                row = SweepRow(
                    scenario=config.scenario,
                    classifier=clf.kind,
                    classifier_params=clf.params_repr(),
                    window_mode=wspec.mode,
                    window_size=wspec.size,
                    transform=tspec.mode,
                    transform_params=tspec.params_repr(),
                    accuracy=None,
                    n_train=0,
                    n_test=0,
                    seed=cell_seed,
                    dropped_windows=dropped,
                )
                if skip_reason:
                    row.status = "skipped"
                    row.reason = skip_reason
                else:
                    try:
                        row.accuracy, row.n_train, row.n_test = run_cell(
                            Xt, y, clf, config.train_fraction, cell_seed
                        )
                    except Exception as exc:  # captured per cell, sweep continues
                        row.status = "skipped"
                        row.reason = f"{type(exc).__name__}: {exc}"
                rows.append(row)
    return SweepReport(rows=rows)


def _write_csv(path: Path, header: list[str], records: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)


def emit_report(report: SweepReport, directory: str | Path) -> list[Path]:
    """Write sweep.csv plus one plot-ready pivot per transform mode.

    Pivot files have one row per window size; columns are classifiers for the
    untransformed runs and parameter values (per classifier, when several ran)
    for parameterized transforms.
    """
    if not report.rows:
        raise ValueError("report is empty; nothing to write")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []

    sweep_path = directory / "sweep.csv"
    _write_csv(sweep_path, list(REPORT_COLUMNS), [r.as_record() for r in report.rows])
    paths.append(sweep_path)

    modes = []
    for row in report.rows:
        if row.transform not in modes:
            modes.append(row.transform)
    classifiers = []
    for row in report.rows:
        if row.classifier not in classifiers:
            classifiers.append(row.classifier)

    for mode in modes:
        mode_rows = [r for r in report.rows if r.transform == mode]
        param_labels = []
        for r in mode_rows:
            label = _param_label(r)
            if label not in param_labels:
                param_labels.append(label)
        if mode == "none" or param_labels == [""]:
            columns = [(clf, "") for clf in classifiers]
            names = list(classifiers)
        elif len(classifiers) == 1:
            columns = [(classifiers[0], p) for p in param_labels]
            names = list(param_labels)
        else:
            columns = [(clf, p) for clf in classifiers for p in param_labels]
            names = [f"{clf}:{p}" for clf, p in columns]

        sizes = []
        for r in mode_rows:
            key = (r.window_mode, r.window_size)
            if key not in sizes:
                sizes.append(key)
        sizes.sort(key=lambda k: (k[0], k[1]))

        lookup = {}
        for r in mode_rows:
            lookup[(r.window_mode, r.window_size, r.classifier, _param_label(r))] = r
        records = []
        for wmode, wsize in sizes:
            record = [
                repr(float(wsize)) if wmode == "timespan" else str(int(wsize))
            ]
            for clf, p in columns:
                row = lookup.get((wmode, wsize, clf, p))
                record.append(
                    "" if row is None or row.accuracy is None else repr(row.accuracy)
                )
            records.append(record)
        pivot_path = directory / f"accuracy_vs_window_{mode}.csv"
        _write_csv(pivot_path, ["window_size", *names], records)
        paths.append(pivot_path)
    return paths


def _param_label(row: SweepRow) -> str:
    if row.transform == "smooth":
        parts = dict(p.split("=") for p in row.transform_params.split(",") if p)
        if parts.get("window", "51") == "51":
            return f"deg{parts.get('degree', '')}"
        return f"w{parts.get('window')}deg{parts.get('degree')}"
    if row.transform in ("awgn", "realistic"):
        parts = dict(p.split("=") for p in row.transform_params.split(",") if "=" in p)
        nu = parts.get("nu", "")
        try:
            return f"nu{float(nu):g}"
        except ValueError:
            return f"nu{nu}"
    return ""
