"""Experiment orchestration: dataset -> windows -> transforms -> attackers.

A declarative JSON config names the data source, the window sweep, the
adversarial grid and the classifier suite. Every grid cell is evaluated on a
transform of the full concatenated window dataset (transforms run before the
train/test split: the attacker trains after the defense is already deployed)
and gets its own seed derived from the master seed and the cell coordinates,
so cells can run in any order without changing the report. A sweep runs in
two phases on a fork process pool of `_worker_count` workers, through one
`_run_jobs`. First `source_series` runs one job per capture, which decodes it,
or per trace of a class profile, which draws that trace alone; the job windows
its trace under every window spec it is given (the sweep gives the config's,
`extract --config` its one) and returns only its window tables, so a worker
holds one trace at a time and no trace reaches the parent, which stacks each
spec's tables once. Then
`run_experiment` gives each window one reason, before any transform: an empty
table has no usable window, and otherwise a failed check of its labels' class
codes (`attackers.class_codes`, the labels' sorted order) names the class
that allows no split. Every cell of a window with a reason is skipped with it;
only a window without one runs its transforms. The parent splits each
runnable cell's codes itself and runs `fit_cell` jobs, each returning
`attackers.votes` on the test rows, a (test rows, classes) int64 matrix. A forest cell runs as a job per worker,
each growing a contiguous range of its tree indices from each tree's own
seed, so the ranges' votes sum to the whole forest's.
No job returns its model: a model lives only in the process that fit it.
The parent sums each cell's matrices and scores them in one place,
`score_cell`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from tpbench import attackers
from tpbench.adversarial import TransformSpec, mode_params
from tpbench.features import WindowSpec, WindowTable, extract_series, stack_series
from tpbench.pcap import load_pcap
from tpbench.rules import (
    COUNT,
    FRACTION,
    POSITIVE,
    SEED,
    STRING,
    ConfigError,
    check,
    check_keys,
    named,
    read_text,
    write_csv,
)
from tpbench.seeding import derive_seed
from tpbench.traffic import ClassProfile, builtin_profiles, generate_dataset

# The fields of an ExperimentConfig that hold a config value as given.
_CONFIG_RULES = {
    "scenario": STRING,
    "traces_per_class": COUNT,
    "duration": POSITIVE,
    "train_fraction": FRACTION,
    "seed": SEED,
}


def _reject_duplicates(name: str, specs) -> None:
    """A grid entry whose key an earlier one has would rerun its cells with
    the same seeds and write the same rows again."""
    first: dict[str, int] = {}
    for i, spec in enumerate(specs):
        j = first.setdefault(spec.key(), i)
        if j != i:
            raise ConfigError(f"{name}[{i}]: duplicates {name}[{j}] ({spec.key()})")


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind and its hyperparameters, checked when built. `params`,
    given as a dict or as (name, value) pairs, is held as pairs sorted by name,
    `hidden` as a tuple, so one classifier has one key and one cell seed."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        params = dict(self.params)
        if isinstance(params.get("hidden"), list):  # JSON's list; the key prints a tuple
            params["hidden"] = tuple(params["hidden"])
        attackers.check_params(self.kind, params)
        object.__setattr__(self, "params", tuple(sorted(params.items())))

    def params_repr(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.params)

    def key(self) -> str:
        return f"{self.kind}({self.params_repr()})"


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's data source and grid, checked when built and then fixed, its
    lists held as tuples (`dataclasses.replace` builds a changed one). These
    defaults are the only ones: `config_from_dict` passes only a document's keys."""

    scenario: str = "custom"  # a PRESETS name, or the run's name with profiles or pcaps
    profiles: tuple[ClassProfile, ...] = ()
    traces_per_class: int = 3
    duration: float = 60.0
    pcap_files: tuple[tuple[Path, str], ...] = ()  # (path, label)
    window_specs: tuple[WindowSpec, ...] = tuple(
        WindowSpec.burst(n) for n in (250, 500, 750, 1000, 1250, 1500))
    transforms: tuple[TransformSpec, ...] = (TransformSpec("none"),)
    classifiers: tuple[ClassifierSpec, ...] = ()
    train_fraction: float = 0.7
    seed: int = 0
    output_dir: Path = Path("out")

    def __post_init__(self):
        for name in ("profiles", "pcap_files", "window_specs", "transforms", "classifiers"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, rule in _CONFIG_RULES.items():
            check(getattr(self, name), rule, name)
        ids: dict[str, int] = {}  # trace id (a capture's file stem) -> its first entry
        for i, (path, label) in enumerate(self.pcap_files):
            check(label, STRING, f"pcap_labels[{path}]")
            if not path.is_file():
                raise ConfigError(f"pcap_labels[{path}]: file not found")
            # a capture listed twice leaks across the split; a shared id merges two traces
            if (j := ids.setdefault(path.stem, i)) < i:
                raise ConfigError(f"pcap_labels[{path}]: trace id {path.stem!r} duplicates "
                                  f"that of pcap_labels[{self.pcap_files[j][0]}]")
        if not self.window_specs:
            raise ConfigError("window sweep is empty (burst_sizes / timespans)")
        if not self.transforms:
            raise ConfigError("transforms list is empty")
        if not self.classifiers:
            raise ConfigError("classifiers list is empty")
        for name, specs in (
            ("burst_sizes", [w for w in self.window_specs if w.mode == "burst"]),
            ("timespans", [w for w in self.window_specs if w.mode == "timespan"]),
            ("transforms", self.transforms),
            ("classifiers", self.classifiers),
        ):
            _reject_duplicates(name, specs)
        if not self.pcap_files and not self.profiles:
            raise ConfigError("no data source: give scenario/profiles or pcap_dir")
        if self.pcap_files and self.profiles:  # the sweep would run only the pcaps
            raise ConfigError("profiles: not allowed with pcap_dir")
        # With one class every cell scores 1.0 or fails; profiles sharing a
        # label would run as one class whose traces repeat their ids and seeds.
        if self.pcap_files and len({label for _, label in self.pcap_files}) < 2:
            raise ConfigError(f"pcap_labels: every file has label {self.pcap_files[0][1]!r}; "
                              "need at least 2 distinct labels")
        first: dict[str, int] = {}
        for i, profile in enumerate(self.profiles):  # none with pcap_files
            if (j := first.setdefault(profile.label, i)) < i:
                raise ConfigError(
                    f"profiles[{i}]: label {profile.label!r} duplicates profiles[{j}]")
        if len(self.profiles) == 1:
            raise ConfigError("profiles: need at least 2 class profiles, got 1")


def _read_list(doc: dict, name: str, read_entry) -> list:
    """doc[name], which must be a JSON list, with each entry read by
    `read_entry`; entry i's error is named `<name>[i]: ...`."""
    entries = doc[name]
    if not isinstance(entries, list):
        raise ConfigError(f"{name}: must be a list, got {entries!r}")
    read = []
    for i, entry in enumerate(entries):
        with named(f"{name}[{i}]"):
            read.append(read_entry(entry))
    return read


def _read_object(value, keys=None) -> dict:
    """value, which must be a JSON object with only `keys` (any keys when
    None, for a reader that checks them itself)."""
    if not isinstance(value, dict):
        raise ConfigError(f"must be an object, got {value!r}")
    if keys is not None:
        check_keys(value, keys)
    return value


def _read_profile(entry) -> ClassProfile:
    entry = _read_object(entry, {f.name for f in fields(ClassProfile)})
    missing = [f.name for f in fields(ClassProfile) if f.name not in entry]
    if missing:
        raise ConfigError(f"missing profile fields {sorted(missing)}")
    return ClassProfile(**entry)


def read_transform(entry) -> TransformSpec:
    mode = _read_object(entry).get("mode", "none")
    params = mode_params(mode)
    with named(f"transform {mode}"):
        check_keys(entry, {"mode", *params})
    return TransformSpec(**entry)


def _read_classifier(entry) -> ClassifierSpec:
    params = dict(_read_object(entry))  # ClassifierSpec checks the keys of its kind
    return ClassifierSpec(params.pop("kind", ""), params)


# Root key -> the reader of its list's entries; a list key names an
# ExperimentConfig field, but burst_sizes and timespans share window_specs.
_LIST_READERS = {
    "burst_sizes": WindowSpec.burst,
    "timespans": WindowSpec.time_span,
    "profiles": _read_profile,
    "transforms": read_transform,
    "classifiers": _read_classifier,
}
# Root keys whose value is an ExperimentConfig field's as given.
_VALUE_KEYS = (*_CONFIG_RULES, "output_dir")
_ROOT_KEYS = frozenset({*_VALUE_KEYS, *_LIST_READERS, "pcap_dir", "pcap_labels"})


def config_from_dict(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    """The config a JSON document describes. A key the document omits keeps
    ExperimentConfig's default; `output_dir` and `pcap_dir` are read
    relative to base_dir."""
    with named("config"):
        _read_object(doc, _ROOT_KEYS)
    # Read before the config is built: a preset name, and the two paths
    for name in ("scenario", "pcap_dir", "output_dir"):
        if name in doc:
            check(doc[name], STRING, name)
    given = {name: doc[name] for name in _VALUE_KEYS if name in doc}

    # One data source: pcap_dir with pcap_labels, or profiles (given or the
    # scenario's preset) with traces_per_class and duration.
    if "pcap_dir" in doc:
        for name in ("profiles", "traces_per_class", "duration"):
            if name in doc:
                raise ConfigError(f"{name}: not allowed with pcap_dir")
        pcap_dir = base_dir / doc["pcap_dir"]
        labels = doc.get("pcap_labels")
        if not isinstance(labels, dict) or not labels:
            raise ConfigError("pcap_labels: required with pcap_dir (file -> label)")
        given["pcap_files"] = [(pcap_dir / name, label) for name, label in labels.items()]
    elif "pcap_labels" in doc:
        raise ConfigError("pcap_labels: not allowed without pcap_dir")

    lists = {name: _read_list(doc, name, read)
             for name, read in _LIST_READERS.items() if name in doc}
    if "burst_sizes" in lists or "timespans" in lists:
        given["window_specs"] = lists.pop("burst_sizes", []) + lists.pop("timespans", [])
    if "pcap_dir" not in doc and "profiles" not in doc:
        with named("scenario"):
            lists["profiles"] = builtin_profiles(given.get("scenario", ExperimentConfig.scenario))
    given["output_dir"] = base_dir / given.get("output_dir", ExperimentConfig.output_dir)
    return ExperimentConfig(**given, **lists)


def load_config(path: str | Path) -> ExperimentConfig:
    """The config of the JSON file at `path`, whose text `read_text` reads."""
    path = Path(path)
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # not UTF-8, named by read_text
        raise ConfigError(str(exc)) from exc
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

    def as_record(self) -> dict[str, str]:
        """The cell's `sweep.csv` line: column name -> text, in file order."""
        return {
            "scenario": self.scenario,
            "classifier": self.classifier.kind,
            "classifier_params": self.classifier.params_repr(),
            "window_mode": self.window.mode,
            "window_size": self.window.size_repr(),
            "transform": self.transform.mode,
            "transform_params": self.transform.params_repr(),
            "accuracy": "" if self.accuracy is None else repr(self.accuracy),
            "n_train": str(self.n_train),
            "n_test": str(self.n_test),
            "seed": str(self.seed),
            "dropped_windows": str(self.dropped_windows),
            "status": self.status,
            "reason": self.reason,
        }


@dataclass
class SweepReport:
    rows: list[SweepRow]

    def ok_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if r.status == "ok"]

    def skipped_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if r.status != "ok"]


def _unit_series(config: ExperimentConfig, wspecs, i: int) -> list[WindowTable]:
    """Source unit i of a config, its i-th capture or, with k traces per
    class, trace i % k of profile i // k, as its table under each of
    `wspecs` (of no row where the trace gives no window). A trace's seed
    comes from its label and index, so it is the trace the whole dataset holds."""
    if config.pcap_files:
        trace = load_pcap(*config.pcap_files[i])
    else:
        p, k = divmod(i, config.traces_per_class)
        (trace,) = generate_dataset([config.profiles[p]], config.traces_per_class,
                                    config.duration, derive_seed(config.seed, "dataset"),
                                    indices=range(k, k + 1))
    return [extract_series(trace, wspec) for wspec in wspecs]


def source_series(config: ExperimentConfig, wspecs) -> list[WindowTable]:
    """The window table of each of `wspecs` (the sweep's are the config's),
    stacked once by `stack_series` from the config's traces in the sweep's
    order: the captures in `pcap_files` order, else profile order, then
    trace index. Each capture is loaded, or each trace drawn, and windowed
    in its own job on `_worker_count()` processes, so a worker holds one
    trace at a time; only the per-trace tables come back."""
    units = len(config.pcap_files) or len(config.profiles) * config.traces_per_class
    per_trace = _run_jobs(_unit_series, [(config, wspecs, i) for i in range(units)],
                          _worker_count())
    return [stack_series([row[j] for row in per_trace]) for j in range(len(wspecs))]


def cell_seeds(cell_seed: int) -> tuple[int, int]:
    """(split seed, train seed) of a cell; the sweep and `attack` derive both here."""
    return derive_seed(cell_seed, "split"), derive_seed(cell_seed, "train")


def fit_cell(X, y, clf, train_idx, test_idx, cell_seed, trees=None):
    """Train a cell on its train rows with `cell_seeds(cell_seed)[1]`, every fit's one
    seed, and return the model's `attackers.votes` on the test rows, not the model;
    with `trees`, a range of a forest's tree indices, the votes of those trees."""
    model = attackers.train(clf.kind, X[train_idx], y[train_idx], seed=cell_seeds(cell_seed)[1],
                            trees=trees, **dict(clf.params))
    return attackers.votes(model, X[test_idx])


def score_cell(votes: list[np.ndarray], truth: np.ndarray) -> float:
    """A cell's accuracy: the first-max column of its jobs' summed vote
    matrices, a class code as every class has a train row, against the test
    rows' class codes `truth`."""
    return attackers.accuracy(np.argmax(sum(votes), axis=1), truth)


def _tree_ranges(clf: ClassifierSpec, workers: int) -> list[range | None]:
    """The jobs one cell of `clf` runs as on `workers` processes: a forest's
    tree indices cut into min(workers, n_trees) contiguous ranges, else
    [None], the whole cell as one job."""
    if clf.kind != "forest":
        return [None]
    n_trees = dict(clf.params).get("n_trees", attackers.HYPERPARAMETERS["forest"]["n_trees"])
    parts = min(workers, n_trees)
    return [range(n_trees * p // parts, n_trees * (p + 1) // parts) for p in range(parts)]


def _cell_job(*job) -> tuple[np.ndarray | None, str]:
    """(`fit_cell(*job)`, "") or, when it raised, (None, the skip reason)."""
    try:
        return fit_cell(*job), ""
    except Exception as exc:  # captured per cell, sweep continues
        return None, f"{type(exc).__name__}: {exc}"


def _worker_count() -> int:
    """Processes for a sweep's pools: `TPB_WORKERS` when set, else every CPU
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


# The job function and argument tuples of the pool in progress. Set before
# the pool forks, so its workers inherit them and are sent only indices.
_PHASE: list = []


def _run_job(i: int):
    fn, jobs = _PHASE
    return fn(*jobs[i])


def _run_jobs(fn, jobs: list[tuple], workers: int) -> list:
    """`fn(*job)` of every job in job order, on at most `workers` forked
    processes; in this process when one would do. A worker that dies raises
    `BrokenProcessPool`; an exception `fn` raises is raised here."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _PHASE[:] = fn, jobs
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run_job, range(len(jobs)), chunksize=1))
    finally:
        _PHASE.clear()


def run_experiment(config: ExperimentConfig) -> SweepReport:
    workers = _worker_count()

    rows: list[SweepRow] = []
    jobs = []
    # each queued cell's row, n_train, test rows' class codes and job indices
    cells: list[tuple[SweepRow, int, np.ndarray, slice]] = []
    for wspec, table in zip(config.window_specs,
                            source_series(config, config.window_specs)):
        window_reason = ""  # a window that cannot be split gives no cell: no transform runs
        if not table.labels.size:
            window_reason = "no trace produced a usable window at this size"
        else:
            try:  # class codes, labels in sorted order; a split of them cannot fail
                y = attackers.class_codes(table.labels)[1]
            except ValueError as exc:  # too few classes or rows, named by label
                window_reason = f"{type(exc).__name__}: {exc}"
        for tspec in config.transforms:
            skip_reason = window_reason
            if not skip_reason:
                try:
                    Xt = tspec.apply(table.X, derive_seed(
                        config.seed, "transform", wspec.key(), tspec.key()))
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
                    dropped_windows=table.dropped_windows,
                )
                rows.append(row)
                if skip_reason:
                    row.status = "skipped"
                    row.reason = skip_reason
                    continue
                train_idx, test_idx = attackers.split(y, config.train_fraction,
                                                      cell_seeds(cell_seed)[0])
                first = len(jobs)
                jobs.extend((Xt, y, clf, train_idx, test_idx, cell_seed, trees)
                            for trees in _tree_ranges(clf, workers))
                cells.append((row, train_idx.size, y[test_idx], slice(first, len(jobs))))

    results = _run_jobs(_cell_job, jobs, workers)
    for row, n_train, truth, cell_jobs in cells:
        outcomes = results[cell_jobs]
        reasons = [reason for _, reason in outcomes if reason]
        if reasons:
            # every range trains alike, and the first to fail holds the
            # first tree a serial fit fails at: its reason is the serial one
            row.status = "skipped"
            row.reason = reasons[0]
            continue
        row.accuracy = score_cell([votes for votes, _ in outcomes], truth)
        row.n_train, row.n_test = n_train, truth.size
    return SweepReport(rows=rows)


def _distinct(specs) -> list:
    """One spec per key, in order of first appearance."""
    seen = {}
    for spec in specs:
        seen.setdefault(spec.key(), spec)
    return list(seen.values())


def emit_report(report: SweepReport, directory: str | Path) -> list[Path]:
    """Write sweep.csv plus one plot-ready pivot per transform mode.

    sweep.csv has one line per row, `SweepRow.as_record`, under a header of
    that record's keys. Pivot files have one row per window size; columns
    are classifiers for the untransformed runs and transform labels (per
    classifier, when several ran) for parameterized transforms. A classifier column is named by its
    kind, or by its key when specs of one kind differ.
    """
    if not report.rows:
        raise ValueError("report is empty; nothing to write")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []

    sweep_path = directory / "sweep.csv"
    lines = [r.as_record() for r in report.rows]
    write_csv(sweep_path, lines[0], (line.values() for line in lines))
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
        write_csv(pivot_path, ["window_size", *names], records)
        paths.append(pivot_path)
    return paths
