"""Experiment orchestration: dataset -> windows -> transforms -> attackers.

A declarative JSON config names the data source, the window sweep, the
adversarial grid and the classifier suite. Every grid cell is evaluated on a
transform of the full concatenated window dataset (transforms run before the
train/test split: the attacker trains after the defense is already deployed)
and gets its own seed derived from the master seed and the cell coordinates,
so cells can run in any order without changing the report. `run_experiment`
encodes each window's labels once as class codes (the labels' sorted order),
draws each cell's split itself and runs `fit_cell` jobs on a fork process
pool of `_worker_count` workers: a whole cell's job returns its predicted codes
on the test rows. With more than one worker, a forest cell runs as one job per
contiguous range of its tree indices, returning its vote matrix: each tree draws
from its own seed whichever job grows it, so the summed votes' argmax is one
job's prediction. The parent scores every cell with `attackers.accuracy`.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tpbench import attackers
from tpbench.adversarial import TRANSFORM_PARAMS, TransformSpec
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
_TRANSFORM_KEYS = frozenset({"mode"}.union(*TRANSFORM_PARAMS.values()))


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def _is_number(value) -> bool:
    """A finite int or float: JSON gives no other numeric types, and a bool
    or a numeric string is not a number here."""
    return type(value) in (int, float) and math.isfinite(value)


# Config field rules: (test, what a valid value is). No value is coerced.
_COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
_OPTIONAL_COUNT = (lambda v: v is None or _COUNT[0](v), "an integer >= 1 or null")
_SEED = (lambda v: type(v) is int and v >= 0, "an integer >= 0")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a finite number > 0")
_NUMBER = (_is_number, "a finite number")
_FRACTION = (lambda v: _is_number(v) and 0 < v < 1, "a number in (0, 1)")
_BOOL = (lambda v: type(v) is bool, "true or false")
_STRING = (lambda v: type(v) is str, "a string")

_CLASSIFIER_RULES = {
    **dict.fromkeys(("epochs", "batch_size", "k", "n_trees", "rounds", "min_leaf"), _COUNT),
    **dict.fromkeys(("max_depth", "features_per_split"), _OPTIONAL_COUNT),
    "seed": _SEED,
    "bootstrap": _BOOL,
    "learning_rate": _POSITIVE,
}
_ROOT_RULES = {
    "scenario": _STRING,
    "traces_per_class": _COUNT,
    "duration": _POSITIVE,
    "train_fraction": _FRACTION,
    "seed": _SEED,
    "output_dir": _STRING,
    "pcap_dir": _STRING,
}
_PROFILE_RULES = {
    "label": _STRING,
    "protocol_mix": (lambda v: type(v) in (list, tuple) and all(map(_is_number, v)),
                     "a list of finite numbers"),
    **dict.fromkeys(("rate", "length_mean", "length_std", "window_mean", "window_std",
                     "jitter_std"), _NUMBER),
    **dict.fromkeys(("ip_pool_size", "port_pool_size"), _COUNT),
}


def _check(value, rule, field: str) -> None:
    """Raise a ConfigError naming `field` unless `rule` holds for value."""
    test, described = rule
    try:
        valid = test(value)
    except OverflowError:  # an integer too large to be a float
        valid = False
    if not valid:
        raise ConfigError(f"{field} must be {described}, got {value!r}")


def _reject_duplicates(name: str, specs) -> None:
    """A grid entry whose key an earlier one has would rerun its cells with
    the same seeds and write the same rows again."""
    first: dict[str, int] = {}
    for i, spec in enumerate(specs):
        j = first.setdefault(spec.key(), i)
        if j != i:
            raise ConfigError(f"{name}[{i}]: duplicates {name}[{j}] ({spec.key()})")


def _check_keys(doc: dict, allowed, where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {unknown}; expected some of {sorted(allowed)}"
        )


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
        params = dict(self.params)
        _check_keys(params, attackers.HYPERPARAMETERS[self.kind], f"classifier {self.kind!r}")
        hidden = params.get("hidden", ())
        if not (isinstance(hidden, tuple) and all(type(w) is int and w > 0 for w in hidden)):
            raise ConfigError(
                f"classifier {self.kind!r}: hidden must be a list of positive layer "
                f"widths, got {hidden!r}"
            )
        for name, value in params.items():
            if name in _CLASSIFIER_RULES:
                _check(value, _CLASSIFIER_RULES[name], f"classifier {self.kind!r}: {name}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ClassifierSpec":
        params = {k: v for k, v in doc.items() if k != "kind"}
        return cls.from_params(doc.get("kind", ""), params)

    @classmethod
    def from_params(cls, kind: str, params: dict) -> "ClassifierSpec":
        if isinstance(params.get("hidden"), list):
            params = {**params, "hidden": tuple(params["hidden"])}
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def params_repr(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.params)

    def key(self) -> str:
        return f"{self.kind}({self.params_repr()})"

    def train(self, X, y, seed: int, trees: range | None = None) -> attackers.TrainedModel:
        """`trees`, for a forest, grows only those tree indices."""
        params = dict(self.params)
        if "seed" in attackers.HYPERPARAMETERS[self.kind]:
            params.setdefault("seed", seed)
        if trees is not None:
            params["trees"] = trees
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
        # With one class every cell scores 1.0 or fails; profiles sharing a
        # label would run as one class whose traces repeat their ids and seeds.
        if self.pcap_files:
            if len({label for _, label in self.pcap_files}) < 2:
                raise ConfigError(f"pcap_labels: every file has label {self.pcap_files[0][1]!r}; "
                                  "need at least 2 distinct labels")
        else:
            first: dict[str, int] = {}
            for i, profile in enumerate(self.profiles):
                if (j := first.setdefault(profile.label, i)) < i:
                    raise ConfigError(
                        f"profiles[{i}]: label {profile.label!r} duplicates profiles[{j}]")
            if len(self.profiles) == 1:
                raise ConfigError("profiles: need at least 2 class profiles, got 1")


def _parse_profile(doc: dict, where: str) -> ClassProfile:
    required = {
        "label", "rate", "protocol_mix", "length_mean", "length_std",
        "window_mean", "window_std", "ip_pool_size", "port_pool_size",
    }
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be a profile object")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing profile fields {sorted(missing)}")
    _check_keys(doc, required | {"jitter_std"}, where)
    for name, value in doc.items():
        _check(value, _PROFILE_RULES[name], f"{where}: {name}")
    try:
        profile = ClassProfile(
            label=doc["label"],
            rate=float(doc["rate"]),
            protocol_mix=tuple(float(p) for p in doc["protocol_mix"]),
            length_mean=float(doc["length_mean"]),
            length_std=float(doc["length_std"]),
            window_mean=float(doc["window_mean"]),
            window_std=float(doc["window_std"]),
            ip_pool_size=doc["ip_pool_size"],
            port_pool_size=doc["port_pool_size"],
            jitter_std=float(doc.get("jitter_std", 0.0)),
        )
        profile.validate()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return profile


def config_from_dict(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, _ROOT_KEYS, "config")
    for name, rule in _ROOT_RULES.items():
        if name in doc:
            _check(doc[name], rule, name)

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
            _check(label, _STRING, f"pcap_labels[{name}]")
            path = pcap_dir / name
            if not path.is_file():
                raise ConfigError(f"pcap_labels: file not found: {path}")
            pcap_files.append((path, label))

    bursts = doc.get("burst_sizes")
    if bursts is None and "timespans" not in doc:
        bursts = list(DEFAULT_BURST_SIZES)
    window_specs: list[WindowSpec] = []
    for name, sizes, make in (
        ("burst_sizes", bursts, WindowSpec.burst),
        ("timespans", doc.get("timespans"), WindowSpec.time_span),
    ):
        if sizes is not None and not isinstance(sizes, list):
            raise ConfigError(f"{name}: must be a list of window sizes")
        specs = []
        for i, size in enumerate(sizes or []):
            try:
                specs.append(make(size))
            except ValueError as exc:
                raise ConfigError(f"{name}[{i}]: {exc}") from exc
        _reject_duplicates(name, specs)
        window_specs.extend(specs)

    transforms = []
    for i, tdoc in enumerate(doc.get("transforms", [{"mode": "none"}])):
        where = f"transforms[{i}]"
        if not isinstance(tdoc, dict):
            raise ConfigError(f"{where}: must be an object with a mode")
        _check_keys(tdoc, _TRANSFORM_KEYS, where)
        try:
            spec = TransformSpec(**{"mode": "none", **tdoc})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        _check_keys(tdoc, {"mode", *TRANSFORM_PARAMS[spec.mode]}, f"{where} (mode {spec.mode!r})")
        transforms.append(spec)
    _reject_duplicates("transforms", transforms)

    classifiers = []
    for i, cdoc in enumerate(doc.get("classifiers", [])):
        if not isinstance(cdoc, dict):
            raise ConfigError(f"classifiers[{i}]: must be an object with a kind")
        try:
            classifiers.append(ClassifierSpec.from_dict(cdoc))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"classifiers[{i}]: {exc}") from exc
    _reject_duplicates("classifiers", classifiers)

    config = ExperimentConfig(
        scenario=scenario,
        profiles=profiles,
        traces_per_class=doc.get("traces_per_class", 3),
        duration=float(doc.get("duration", 60.0)),
        pcap_files=pcap_files,
        window_specs=window_specs,
        transforms=transforms,
        classifiers=classifiers,
        train_fraction=float(doc.get("train_fraction", 0.7)),
        seed=doc.get("seed", 0),
        output_dir=base_dir / doc.get("output_dir", "out"),
    )
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
    """One grid cell: its coordinates as spec objects, then its outcome."""

    scenario: str
    classifier: ClassifierSpec
    window: WindowSpec
    transform: TransformSpec
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
            self.classifier.kind,
            self.classifier.params_repr(),
            self.window.mode,
            self.window.size_repr(),
            self.transform.mode,
            self.transform.params_repr(),
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


def cell_seeds(cell_seed: int) -> tuple[int, int]:
    """(split seed, train seed) of a cell; the sweep and `attack` derive both here."""
    return derive_seed(cell_seed, "split"), derive_seed(cell_seed, "train")


def fit_cell(X, y, clf, train_idx, test_idx, cell_seed, trees=None):
    """Train a cell on its train rows with `cell_seeds(cell_seed)[1]`; return (model,
    outcome): the test rows' predicted labels, in `y`'s dtype, for a whole cell
    (`trees` None), else the vote matrix of trees `trees` of its forest on them."""
    model = clf.train(X[train_idx], y[train_idx], cell_seeds(cell_seed)[1], trees)
    if trees is None:
        return model, attackers.predict(model, X[test_idx]).astype(y.dtype)
    return model, attackers.forest_votes(model, X[test_idx])


def _tree_ranges(clf: ClassifierSpec, workers: int) -> list[range | None]:
    """The jobs one cell of `clf` runs as on `workers` processes: a forest's
    tree indices cut into min(workers, n_trees) contiguous ranges when that
    is 2 or more, else [None], the whole cell as one job."""
    if clf.kind != "forest":
        return [None]
    n_trees = dict(clf.params).get("n_trees", attackers.HYPERPARAMETERS["forest"]["n_trees"])
    parts = min(workers, n_trees)
    if parts < 2:
        return [None]
    return [range(n_trees * p // parts, n_trees * (p + 1) // parts) for p in range(parts)]


# The `fit_cell` arguments (Xt, y, classifier, train_idx, test_idx, cell_seed,
# trees) of every job of the sweep in progress: a whole cell when trees is
# None, else one tree range of a forest cell. Filled before the pool forks, so
# its workers inherit the matrices and are sent only indices.
_JOBS: list[tuple] = []


def _run_job(i: int) -> tuple[np.ndarray | None, str]:
    """(`fit_cell(*_JOBS[i])[1]`, "") or, when it raised, (None, the skip reason)."""
    try:
        return fit_cell(*_JOBS[i])[1], ""
    except Exception as exc:  # captured per cell, sweep continues
        return None, f"{type(exc).__name__}: {exc}"


def _worker_count() -> int:
    """Processes for a sweep's cells: `TPB_WORKERS` when set, else every CPU
    in this process's affinity mask, or 1 where `fork` is not available."""
    value = os.environ.get("TPB_WORKERS")
    if value is not None:
        try:
            workers = int(value)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(f"TPB_WORKERS must be an integer >= 1, got {value!r}")
        return workers
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(
        os, "sched_getaffinity"
    ):
        return 1
    return len(os.sched_getaffinity(0))


def _run_jobs(workers: int) -> list[tuple[object, str]]:
    """Every `_run_job` result in job order, on at most `workers` forked
    processes; in this process when one would do. A worker that dies raises
    `BrokenProcessPool`."""
    workers = min(workers, len(_JOBS))
    if workers <= 1:
        return [_run_job(i) for i in range(len(_JOBS))]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_run_job, range(len(_JOBS)), chunksize=1))


def run_experiment(config: ExperimentConfig) -> SweepReport:
    config.validate()
    workers = _worker_count()
    traces = _load_traces(config)

    rows: list[SweepRow] = []
    jobs = []
    # each queued cell's row, n_train, test rows' class codes and job indices
    cells: list[tuple[SweepRow, int, np.ndarray, slice]] = []
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
            X, labels, _ = stack_series(series_list)
            y = np.unique(labels, return_inverse=True)[1]  # class codes, labels in sorted order
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
                    classifier=clf,
                    window=wspec,
                    transform=tspec,
                    accuracy=None,
                    n_train=0,
                    n_test=0,
                    seed=cell_seed,
                    dropped_windows=dropped,
                )
                rows.append(row)
                reason = skip_reason
                if not reason:
                    try:
                        train_idx, test_idx = attackers.split(
                            y, config.train_fraction, cell_seeds(cell_seed)[0]
                        )
                    except ValueError as exc:  # a class with one row, as a job reports it
                        reason = f"{type(exc).__name__}: {exc}"
                if reason:
                    row.status = "skipped"
                    row.reason = reason
                    continue
                first = len(jobs)
                jobs.extend((Xt, y, clf, train_idx, test_idx, cell_seed, trees)
                            for trees in _tree_ranges(clf, workers))
                cells.append((row, train_idx.size, y[test_idx], slice(first, len(jobs))))

    _JOBS.extend(jobs)
    try:
        results = _run_jobs(workers)
    finally:
        _JOBS.clear()
    for row, n_train, truth, cell_jobs in cells:
        outcomes = results[cell_jobs]
        reasons = [reason for _, reason in outcomes if reason]
        if reasons:
            # every range trains alike, and the first to fail holds the
            # first tree a serial fit fails at: its reason is the serial one
            row.status = "skipped"
            row.reason = reasons[0]
            continue
        predicted = outcomes[0][0]
        if predicted.ndim == 2:  # a forest's tree ranges: its vote matrices
            predicted = np.argmax(sum(votes for votes, _ in outcomes), axis=1)
        row.accuracy = attackers.accuracy(predicted, truth)
        row.n_train, row.n_test = n_train, truth.size
    return SweepReport(rows=rows)


def _write_csv(path: Path, header: list[str], records: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)


def _distinct(specs) -> list:
    """One spec per key, in order of first appearance."""
    seen = {}
    for spec in specs:
        seen.setdefault(spec.key(), spec)
    return list(seen.values())


def emit_report(report: SweepReport, directory: str | Path) -> list[Path]:
    """Write sweep.csv plus one plot-ready pivot per transform mode.

    Pivot files have one row per window size; columns are classifiers for the
    untransformed runs and transform labels (per classifier, when several
    ran) for parameterized transforms. A classifier column is named by its
    kind, or by its key when specs of one kind differ.
    """
    if not report.rows:
        raise ValueError("report is empty; nothing to write")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []

    sweep_path = directory / "sweep.csv"
    _write_csv(sweep_path, list(REPORT_COLUMNS), [r.as_record() for r in report.rows])
    paths.append(sweep_path)

    classifiers = _distinct(r.classifier for r in report.rows)
    kinds = [clf.kind for clf in classifiers]
    clf_names = {
        clf.key(): clf.kind if kinds.count(clf.kind) == 1 else clf.key() for clf in classifiers
    }
    cells = {
        (r.window.key(), r.classifier.key(), r.transform.key()): r for r in report.rows
    }

    for mode in dict.fromkeys(r.transform.mode for r in report.rows):
        mode_rows = [r for r in report.rows if r.transform.mode == mode]
        transforms = _distinct(r.transform for r in mode_rows)
        columns = [(clf, t) for clf in classifiers for t in transforms]
        names = [
            clf_names[clf.key()] if mode == "none"
            else t.label() if len(classifiers) == 1
            else f"{clf_names[clf.key()]}:{t.label()}"
            for clf, t in columns
        ]
        windows = sorted(_distinct(r.window for r in mode_rows), key=lambda w: (w.mode, w.size))
        records = []
        for w in windows:
            record = [w.size_repr()]
            for clf, t in columns:
                row = cells.get((w.key(), clf.key(), t.key()))
                record.append(
                    "" if row is None or row.accuracy is None else repr(row.accuracy)
                )
            records.append(record)
        pivot_path = directory / f"accuracy_vs_window_{mode}.csv"
        _write_csv(pivot_path, ["window_size", *names], records)
        paths.append(pivot_path)
    return paths
