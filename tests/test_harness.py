import concurrent.futures
import csv
import json
import multiprocessing
import os
import re
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from helpers import build_pcap, ipv4_frame, tree_arrays
from tpbench import attackers, harness
from tpbench.attackers import knn
from tpbench.features import WindowSpec, extract_series, stack_series
from tpbench.harness import (
    ConfigError,
    ClassifierSpec,
    ExperimentConfig,
    TransformSpec,
    config_from_dict,
    emit_report,
    fit_cell,
    load_config,
    run_experiment,
    score_cell,
)
from tpbench.pcap import load_pcap
from tpbench.seeding import derive_seed
from tpbench.traffic import Protocol, builtin_profiles, generate_dataset, generate_trace


def small_config(tmp_path, **overrides):
    doc = {
        "scenario": "mic_onoff",
        "traces_per_class": 2,
        "duration": 10.0,
        "burst_sizes": [200],
        "transforms": [{"mode": "none"}],
        "classifiers": [{"kind": "knn", "k": 5}],
        "seed": 42,
        "output_dir": "out",
    }
    doc.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


def test_single_cell_report(tmp_path):
    config = load_config(small_config(tmp_path))
    report = run_experiment(config)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.status == "ok"
    assert 0.0 <= row.accuracy <= 1.0
    assert row.n_train > 0 and row.n_test > 0


def test_sweep_csv_byte_identical_across_runs(tmp_path):
    path = small_config(
        tmp_path,
        burst_sizes=[150, 300],
        transforms=[{"mode": "none"}, {"mode": "awgn", "nu": 2.0}],
        classifiers=[{"kind": "knn"}, {"kind": "tree"}],
    )
    config = load_config(path)
    emit_report(run_experiment(config), tmp_path / "a")
    emit_report(run_experiment(load_config(path)), tmp_path / "b")
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
        tmp_path / "b" / "sweep.csv"
    ).read_bytes()


def test_sweep_csv_header_is_the_record_keys(tmp_path):
    """sweep.csv's header names its 14 columns in file order, and a cell's
    line holds its values under them: an integer time span and nu print as
    the floats they are held as."""
    from tpbench.harness import SweepReport, SweepRow
    row = SweepRow(scenario="s", classifier=ClassifierSpec("knn", {"k": 3}),
                   window=WindowSpec.time_span(2), transform=TransformSpec("awgn", nu=2),
                   accuracy=0.5, n_train=6, n_test=4, seed=7, dropped_windows=1)
    emit_report(SweepReport(rows=[row]), tmp_path)
    assert (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines() == [
        "scenario,classifier,classifier_params,window_mode,window_size,transform,"
        "transform_params,accuracy,n_train,n_test,seed,dropped_windows,status,reason",
        "s,knn,k=3,timespan,2.0,awgn,nu=2.0,0.5,6,4,7,1,ok,",
    ]


def record_pools(monkeypatch, fork: bool):
    """Patch the process pool to note each pool's (max_workers, start method).
    With fork=False the pool forks nothing and runs its jobs in this process."""
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recording(real):
        def __init__(self, max_workers, mp_context):
            made.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context)

    class InProcess:
        def __init__(self, max_workers, mp_context):
            made.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        Recording if fork else InProcess)
    return made


def test_worker_count_rule(monkeypatch):
    for value, workers in (("1", 1), ("3", 3), ("64", 64)):
        monkeypatch.setenv("TPB_WORKERS", value)
        assert harness._worker_count() == workers
    for value in ("0", "-1", "two", "1.5", ""):
        monkeypatch.setenv("TPB_WORKERS", value)
        with pytest.raises(ConfigError, match=rf"TPB_WORKERS must be an integer >= 1, got '{value}'"):
            harness._worker_count()
    monkeypatch.delenv("TPB_WORKERS")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert harness._worker_count() == 3
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert harness._worker_count() == 1


def test_pool_never_outnumbers_runnable_cells(tmp_path, monkeypatch):
    """The pool is capped at the jobs, counting each tree range of a split
    forest cell as one job."""
    made = record_pools(monkeypatch, fork=False)
    X = np.arange(40.0).reshape(20, 2)
    y = np.repeat(["a", "b"], 10)
    jobs = [(X, y, ClassifierSpec("knn"), *attackers.split(y, 0.7, s),
             s, None) for s in (1, 2, 3)]
    results = harness._run_jobs(harness._cell_job, jobs, 64)
    assert made == [(3, "fork")]
    expected = [fit_cell(*job) for job in jobs]
    assert len(results) == len(expected)
    assert all(np.array_equal(got, want) and reason == ""
               for (got, reason), want in zip(results, expected))

    monkeypatch.undo()
    made = record_pools(monkeypatch, fork=False)
    path = small_config(tmp_path, classifiers=[{"kind": "knn"}, {"kind": "forest", "n_trees": 5}])
    # set-up: one job per trace, 2 profiles x 2 traces; cells at 3 workers:
    # 1 + 3 jobs, at 64 workers: 1 knn job + one per tree
    for workers, setup, pool in (("3", 3, 3), ("64", 2 * 2, 1 + 5)):
        monkeypatch.setenv("TPB_WORKERS", workers)
        assert [r.status for r in run_experiment(load_config(path)).rows] == ["ok", "ok"]
        assert made == [(setup, "fork"), (pool, "fork")]
        made.clear()


def die_in_worker(*args, **kwargs):
    if multiprocessing.parent_process() is None:
        raise AssertionError("the job ran in the calling process")
    os._exit(1)


def test_dead_worker_fails_the_sweep(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(harness, "fit_cell", die_in_worker)
    X = np.zeros((4, 2))
    rows = np.arange(4)
    jobs = [(X, X[:, 0], ClassifierSpec("knn"), rows[:2], rows[2:], s, None) for s in (1, 2)]
    with pytest.raises(BrokenProcessPool):
        harness._run_jobs(harness._cell_job, jobs, 2)


def test_dead_worker_in_a_forest_part_fails_the_sweep(tmp_path, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(harness, "fit_cell",
                        lambda *job: fit_cell(*job) if job[-1] is None else die_in_worker())
    monkeypatch.setenv("TPB_WORKERS", "2")
    config = load_config(small_config(
        tmp_path, classifiers=[{"kind": "knn"}, {"kind": "forest", "n_trees": 4}]))
    with pytest.raises(BrokenProcessPool):
        run_experiment(config)


def test_dead_worker_in_a_set_up_job_fails_the_sweep(tmp_path, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(harness, "generate_dataset", die_in_worker)
    monkeypatch.setenv("TPB_WORKERS", "2")
    with pytest.raises(BrokenProcessPool):
        run_experiment(load_config(small_config(tmp_path)))


def test_a_set_up_job_of_a_profile_config_windows_one_trace(tmp_path, monkeypatch):
    """Job i draws trace i % k of profile i // k alone, and returns its
    table under each window spec: the one `extract_series` makes of that
    trace of the whole dataset, with no row where it gives no window."""
    config = load_config(small_config(tmp_path, traces_per_class=3, duration=1.0,
                                      burst_sizes=[200, 600]))
    traces = generate_dataset(config.profiles, 3, 1.0, derive_seed(config.seed, "dataset"))
    drawn = []
    real = harness.generate_dataset

    def recording(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(harness, "generate_dataset", recording)
    for i, trace in enumerate(traces):
        tables = harness._unit_series(config, config.window_specs, i)
        assert [t.trace_id for t in drawn.pop()] == [trace.trace_id]
        assert len(tables) == len(config.window_specs)
        for wspec, table in zip(config.window_specs, tables):
            want = extract_series(trace, wspec)
            assert table.trace_ids == want.trace_ids == ([trace.trace_id] if len(want) else [])
            assert table.labels.tolist() == want.labels.tolist()
            assert np.array_equal(table.trace, want.trace)
            assert table.X.tobytes() == want.X.tobytes()
            assert table.dropped_windows == want.dropped_windows
    assert not all(len(extract_series(t, config.window_specs[1])) for t in traces)


def write_captures(directory, names):
    """One capture per name, 40 packets 0.05 s apart; odd captures are UDP
    with a smaller gap, so the two labels' windows differ."""
    for i, name in enumerate(names):
        protocol, window = (Protocol.UDP, 0) if i % 2 else (Protocol.TCP, 100 + i)
        frame = ipv4_frame(protocol, 1, 2 + i, 80, 81, tcp_window=window)
        gap = 0.04 if i % 2 else 0.05
        (directory / name).write_bytes(build_pcap([(k * gap, frame) for k in range(40)]))


SOURCES = {
    "pcap": {"pcap_dir": ".",
             "pcap_labels": {"c.pcap": "x", "a.pcap": "y", "d.pcap": "x", "b.pcap": "y"},
             "burst_sizes": [5, 10], "timespans": [0.5]},
    "profiles": {"scenario": "utility_media_travel", "traces_per_class": 2, "duration": 3.0,
                 "burst_sizes": [100, 250]},
}


@pytest.mark.parametrize("source", list(SOURCES))
def test_traces_never_reach_the_parent_with_a_pool(source, tmp_path, monkeypatch):
    """With a pool, every capture is decoded and every trace drawn in a
    worker, and the sweep writes the serial bytes; at one worker each runs
    once in the calling process, one trace per call, through the harness
    names a tracer wraps."""
    write_captures(tmp_path, ["a.pcap", "b.pcap", "c.pcap", "d.pcap"])
    doc = {**SOURCES[source], "transforms": [{"mode": "none"}, {"mode": "awgn", "nu": 2.0}],
           "classifiers": [{"kind": "knn", "k": 3}], "seed": 5}
    calls = []

    def in_worker(name, real):
        def wrapped(*args, **kwargs):
            if multiprocessing.parent_process() is None:
                if os.environ["TPB_WORKERS"] != "1":
                    raise AssertionError(f"{name} ran in the parent")
                calls.append((name, args[0], *kwargs.values()))
            return real(*args, **kwargs)
        return wrapped

    for name in ("load_pcap", "generate_dataset"):
        monkeypatch.setattr(harness, name, in_worker(name, getattr(harness, name)))
    out = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("TPB_WORKERS", workers)
        path = tmp_path / f"{workers}.json"
        path.write_text(json.dumps({**doc, "output_dir": workers}))
        config = load_config(path)
        report = run_experiment(config)
        assert len(report.ok_rows()) == len(report.rows) == 2 * len(config.window_specs)
        emit_report(report, config.output_dir)
        out[workers] = (config.output_dir / "sweep.csv").read_bytes()
    assert out["2"] == out["1"]
    if source == "pcap":
        assert calls == [("load_pcap", tmp_path / name) for name in SOURCES["pcap"]["pcap_labels"]]
    else:
        assert calls == [("generate_dataset", [p], range(k, k + 1))
                         for p in builtin_profiles("utility_media_travel") for k in range(2)]


def test_a_trace_without_a_window_drops_alike_in_the_pool(tmp_path, monkeypatch):
    """mic_off-2, -4 and -5 give no 600-packet window in 1 s; each counts as
    one dropped window at one worker and at two."""
    path = small_config(tmp_path, traces_per_class=6, duration=1.0, burst_sizes=[200, 600])
    dropped = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("TPB_WORKERS", workers)
        dropped[workers] = [r.dropped_windows for r in run_experiment(load_config(path)).rows]
    assert dropped["1"] == dropped["2"]
    assert dropped["1"][1] == 3


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_capture_without_a_window_counts_every_window_it_lost(workers, tmp_path, monkeypatch):
    """Under a time span, a capture of four lone packets keeps no window and
    adds all four to `sweep.csv`'s `dropped_windows`, beside the short
    windows of the captures that keep some."""
    write_captures(tmp_path, ["a.pcap", "b.pcap"])
    lone = ipv4_frame(Protocol.TCP, 1, 9, 80, 81, tcp_window=7)
    (tmp_path / "c.pcap").write_bytes(build_pcap([(k * 3.0, lone) for k in range(4)]))
    labels = {"a.pcap": "x", "b.pcap": "y", "c.pcap": "y"}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"pcap_dir": ".", "pcap_labels": labels, "timespans": [0.06],
                                "classifiers": [{"kind": "knn", "k": 3}], "output_dir": "out"}))
    monkeypatch.setenv("TPB_WORKERS", workers)
    config = load_config(path)
    emit_report(run_experiment(config), config.output_dir)
    with open(config.output_dir / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    short = sum(extract_series(load_pcap(tmp_path / name, labels[name]),
                               WindowSpec.time_span(0.06)).dropped_windows
                for name in ("a.pcap", "b.pcap"))
    assert short > 0
    assert int(row["dropped_windows"]) == 4 + short


@pytest.mark.parametrize("workers", [1, 2])
def test_each_window_spec_gets_one_table_of_its_traces_in_source_order(workers, tmp_path,
                                                                         monkeypatch):
    """Each spec's table holds the rows of the traces that give a window, in
    profile then trace index order, each row with its own trace's id and
    label; its `dropped_windows` is what `sweep.csv` reports at that spec,
    the sum of its traces' counts. A sweep stacks once per spec."""
    monkeypatch.setenv("TPB_WORKERS", str(workers))
    config = load_config(small_config(tmp_path, traces_per_class=6, duration=1.0,
                                      burst_sizes=[200, 600]))
    stacked = []
    real_stack = harness.stack_series
    monkeypatch.setattr(harness, "stack_series", lambda s: stacked.append(1) or real_stack(s))
    emit_report(run_experiment(config), config.output_dir)
    assert len(stacked) == len(config.window_specs)
    with open(config.output_dir / "sweep.csv", newline="") as fh:
        reported = {row["window_size"]: int(row["dropped_windows"]) for row in csv.DictReader(fh)}
    traces = generate_dataset(config.profiles, 6, 1.0, derive_seed(config.seed, "dataset"))
    tables = harness.source_series(config, config.window_specs)
    for wspec, table in zip(config.window_specs, tables):
        kept = [(trace, series) for trace in traces
                if len(series := extract_series(trace, wspec))]
        assert table.trace_ids == [trace.trace_id for trace, _ in kept]
        assert [table.trace_ids[t] for t in table.trace] == [
            trace.trace_id for trace, series in kept for _ in range(len(series))]
        assert table.labels.tolist() == [trace.label for trace, series in kept
                                         for _ in range(len(series))]
        assert np.array_equal(table.X, np.concatenate([series.X for _, series in kept]))
        assert table.dropped_windows == reported[wspec.size_repr()] == sum(
            extract_series(trace, wspec).dropped_windows for trace in traces)
    assert len(kept) == len(traces) - 3  # three traces give no 600-packet window


def pool_config(tmp_path, name):
    """All five classifiers, smoothing skipped at burst 2000 (too few rows for
    its window) and an MLP whose loss diverges."""
    return small_config(
        tmp_path / name,
        burst_sizes=[200, 2000],
        transforms=[{"mode": "none"}, {"mode": "smooth", "window": 51, "degree": 1}],
        classifiers=[{"kind": "knn"}, {"kind": "tree"}, {"kind": "forest", "n_trees": 5},
                     {"kind": "adaboost", "rounds": 5},
                     {"kind": "mlp", "hidden": [8], "epochs": 5},
                     {"kind": "mlp", "hidden": [8], "epochs": 5, "learning_rate": 1e300}],
    )


def sweep_bytes(tmp_path, name):
    (tmp_path / name).mkdir()
    config = load_config(pool_config(tmp_path, name))
    report = run_experiment(config)
    emit_report(report, config.output_dir)
    return report, (config.output_dir / "sweep.csv").read_bytes()


def test_pool_rows_equal_serial_rows_including_captured_failures(tmp_path, monkeypatch):
    """The forest cells run as two tree ranges in the pool, at TPB_WORKERS=2
    and at the default with 2 CPUs, and as one job each serially."""
    monkeypatch.setenv("TPB_WORKERS", "1")
    made = record_pools(monkeypatch, fork=True)
    serial_report, serial = sweep_bytes(tmp_path, "serial")
    assert made == []

    monkeypatch.setenv("TPB_WORKERS", "2")
    assert sweep_bytes(tmp_path, "two")[1] == serial
    monkeypatch.delenv("TPB_WORKERS")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pool_report, pool = sweep_bytes(tmp_path, "pool")
    assert made == [(2, "fork")] * 4  # a set-up pool and a cell pool per sweep
    assert pool == serial

    reasons = {r.reason for r in pool_report.skipped_rows()}
    assert {r.reason for r in serial_report.skipped_rows()} == reasons
    diverged = {r.reason for r in pool_report.skipped_rows()
                if r.classifier.params_repr().endswith("learning_rate=1e+300")
                and r.transform.mode == "none"}
    assert diverged and all(r.startswith("TrainingDivergedError: non-finite training loss")
                            for r in diverged)
    assert any(r.startswith("series length") and "< window 51" in r for r in reasons)
    assert {r.classifier.kind for r in pool_report.ok_rows()} == set(
        ("knn", "tree", "forest", "adaboost", "mlp"))


def test_knn_sweep_over_many_query_blocks_is_byte_identical_in_the_pool(tmp_path, monkeypatch):
    """kNN cells whose test rows span many screen blocks write the same
    sweep.csv serially and on two forked workers."""
    path = small_config(
        tmp_path,
        burst_sizes=[20, 40],
        transforms=[{"mode": "none"}, {"mode": "awgn", "nu": 2.0}],
        classifiers=[{"kind": "knn", "k": 5}, {"kind": "knn", "k": 1}],
    )
    made = record_pools(monkeypatch, fork=True)
    out = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("TPB_WORKERS", workers)
        report = run_experiment(load_config(path))
        emit_report(report, tmp_path / workers)
        out[workers] = (tmp_path / workers / "sweep.csv").read_bytes()
    assert made == [(2, "fork"), (2, "fork")]
    assert out["1"] == out["2"]
    rows = report.ok_rows()
    assert len(rows) == 8
    assert all(r.n_test > 5 * knn.block_rows(r.n_train, 12) for r in rows)
    assert any(r.accuracy < 1.0 for r in rows)


def test_split_forest_equals_unsplit_forest():
    """Every way the harness cuts a forest's trees gives, range by range, the
    trees of the unsplit forest, and summed votes score as the whole cell."""
    from tpbench.attackers.forest import fit_forest

    rng = np.random.default_rng(3)
    X = rng.normal(size=(90, 4)) + np.repeat(np.arange(3.0), 30)[:, None]
    y = np.repeat(["a", "b", "c"], 30)
    codes = np.repeat(np.arange(3), 30)
    X[:, 0] += rng.normal(scale=2.0, size=90)  # noisy enough that trees disagree
    for n_trees in (1, 2, 5, 7):
        clf = ClassifierSpec("forest", {"n_trees": n_trees})
        whole = fit_forest(X, codes, 3, n_trees=n_trees, seed=11)
        split_seed, train_seed = harness.cell_seeds(17)
        train_idx, test_idx = attackers.split(y, 0.7, split_seed)
        model = attackers.train("forest", X[train_idx], y[train_idx], n_trees=n_trees,
                                seed=train_seed)
        labels = attackers.predict(model, X[test_idx])
        whole_votes = fit_cell(X, y, clf, train_idx, test_idx, 17)
        assert np.array_equal(whole_votes, attackers.votes(model, X[test_idx]))
        assert np.array_equal(model.classes[whole_votes.argmax(axis=1)], labels)
        cell = (attackers.accuracy(labels, y[test_idx]), train_idx.size, test_idx.size)
        for parts in range(1, n_trees + 2):
            ranges = harness._tree_ranges(clf, parts)
            assert len(ranges) == min(parts, n_trees)  # one range, not None, at one part
            assert [t for r in ranges for t in r] == list(range(n_trees))
            grown = [tree for r in ranges
                     for tree in fit_forest(X, codes, 3, n_trees=n_trees, seed=11, trees=r).trees]
            assert list(map(tree_arrays, grown)) == list(map(tree_arrays, whole.trees))
            range_votes = [fit_cell(X, y, clf, train_idx, test_idx, 17, r) for r in ranges]
            assert all(votes.dtype == np.int64 for votes in range_votes)
            assert np.array_equal(sum(range_votes), whole_votes)  # exact integer counts
            assert (score_cell(range_votes, codes[test_idx]),
                    train_idx.size, test_idx.size) == cell
    assert harness._tree_ranges(ClassifierSpec("tree"), 4) == [None]  # the other kinds' one job


def test_a_cell_whose_split_fails_gets_the_serial_row_and_no_job(tmp_path, monkeypatch):
    """With one row left in a class, or no row of a class (a class whose
    traces all give no window), every cell's split raises in the parent:
    each cell gets one row with the serial reason, naming the class by its
    label, and no job is queued. One class would score every cell 1.0."""
    real_stack = harness.stack_series
    path = small_config(tmp_path, classifiers=[{"kind": "knn"}, {"kind": "forest", "n_trees": 5}])
    for rows_left, reason in ((1, "class 'mic_on' has 1 row(s); need at least 2"),
                              (0, "only class(es) ['mic_off'] present; need at least 2 classes")):
        def keep_in_last_class(series):
            table = real_stack(series)
            keep = np.ones(table.labels.size, dtype=bool)
            keep[np.flatnonzero(table.labels == table.labels[-1])[rows_left:]] = False
            return replace(table, X=table.X[keep], labels=table.labels[keep],
                           trace=table.trace[keep])

        monkeypatch.setattr(harness, "stack_series", keep_in_last_class)
        monkeypatch.setenv("TPB_WORKERS", "1")
        serial = run_experiment(load_config(path)).rows

        jobs = []
        monkeypatch.setattr(harness, "fit_cell", lambda *job: jobs.append(job) or fit_cell(*job))
        made = record_pools(monkeypatch, fork=False)
        monkeypatch.setenv("TPB_WORKERS", "2")
        pooled = run_experiment(load_config(path)).rows
        monkeypatch.undo()
        assert made == [(2, "fork")] and jobs == []  # the set-up pool only
        assert [r.as_record() for r in pooled] == [r.as_record() for r in serial]
        assert [r.status for r in pooled] == ["skipped", "skipped"]
        for row in pooled:
            assert row.reason == f"ValueError: {reason}"
            assert (row.n_train, row.n_test) == (0, 0)


def test_a_sweep_left_with_one_class_names_its_label(tmp_path, monkeypatch):
    """No mic_off trace of 1 s gives an 800-packet window, so every cell's
    split fails on the one class left, and its reason names that class's
    label, not its code."""
    monkeypatch.setenv("TPB_WORKERS", "1")
    path = small_config(tmp_path, traces_per_class=6, duration=1.0, burst_sizes=[800], seed=3,
                        classifiers=[{"kind": "knn", "k": 3}, {"kind": "adaboost", "rounds": 5}])
    rows = run_experiment(load_config(path)).rows
    assert [(r.status, r.reason) for r in rows] == [(
        "skipped", "ValueError: only class(es) ['mic_on'] present; need at least 2 classes")] * 2


def test_split_runs_once_per_runnable_cell(tmp_path, monkeypatch):
    """The parent draws each cell's split once, of the class codes, however
    many tree ranges its forest runs as; a cell skipped before its split
    draws none."""
    calls = []
    real_split = attackers.split
    monkeypatch.setattr(attackers, "split", lambda *a: calls.append(a) or real_split(*a))
    made = record_pools(monkeypatch, fork=False)
    monkeypatch.setenv("TPB_WORKERS", "2")
    path = small_config(
        tmp_path, burst_sizes=[200, 2000],
        transforms=[{"mode": "none"}, {"mode": "smooth", "window": 51, "degree": 1}],
        classifiers=[{"kind": "knn"}, {"kind": "forest", "n_trees": 5}])
    report = run_experiment(load_config(path))
    assert made == [(2, "fork"), (2, "fork")]
    assert len(report.skipped_rows()) == 2  # smoothing at burst 2000
    assert len(calls) == len(report.ok_rows()) == 6
    assert all(codes.dtype == np.int64 for codes, *_ in calls)


def test_one_cpu_or_no_fork_runs_serially_without_a_pool(tmp_path, monkeypatch):
    monkeypatch.setenv("TPB_WORKERS", "1")
    _, serial = sweep_bytes(tmp_path, "serial")
    monkeypatch.delenv("TPB_WORKERS")
    made = record_pools(monkeypatch, fork=True)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sweep_bytes(tmp_path, "one_cpu")[1] == serial
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert sweep_bytes(tmp_path, "no_fork")[1] == serial
    assert made == []


def test_grid_accounting_with_smoothing_skips(tmp_path):
    # 2 traces/class x 10 s at ~600-1100 pkt/s; burst 2000 leaves the stacked
    # series well below the 51-row smoothing window
    path = small_config(
        tmp_path,
        burst_sizes=[200, 2000],
        transforms=[{"mode": "none"}, {"mode": "smooth", "window": 51, "degree": 1}],
        classifiers=[{"kind": "knn"}, {"kind": "tree"}],
    )
    report = run_experiment(load_config(path))
    assert len(report.rows) == 2 * 2 * 2  # full grid, no silent drops
    skipped = report.skipped_rows()
    assert len(skipped) == 2  # smooth cells at burst 2000, one per classifier
    for row in skipped:
        assert row.window == WindowSpec.burst(2000)
        assert row.transform.mode == "smooth"
        assert "< window 51" in row.reason or "usable window" in row.reason


def test_non_finite_transform_output_skips_cell(tmp_path):
    path = small_config(
        tmp_path,
        transforms=[{"mode": "none"}, {"mode": "awgn", "nu": 1e308}],
        classifiers=[{"kind": "knn"}, {"kind": "tree"}],
    )
    report = run_experiment(load_config(path))
    assert [row.status for row in report.rows] == ["ok", "ok", "skipped", "skipped"]
    for row in report.skipped_rows():
        assert row.reason == "transform awgn(nu=1e+308) produced non-finite values"
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match=r"transform none\(\) produced non-finite"):
            TransformSpec("none").apply(np.array([[1.0, bad], [2.0, 3.0]]), 0)


def test_pivot_smoothing_columns_per_degree(tmp_path):
    path = small_config(
        tmp_path,
        burst_sizes=[150, 250],
        transforms=[{"mode": "smooth", "window": 51, "degree": d}
                    for d in (1, 3, 5, 7, 9)],
        classifiers=[{"kind": "tree"}],
    )
    config = load_config(path)
    paths = emit_report(run_experiment(config), tmp_path / "out")
    pivot = next(p for p in paths if p.name == "accuracy_vs_window_smooth.csv")
    header = pivot.read_text().splitlines()[0].split(",")
    assert header == ["window_size", "deg1", "deg3", "deg5", "deg7", "deg9"]


def test_pivot_none_columns_per_classifier(tmp_path):
    path = small_config(
        tmp_path,
        classifiers=[{"kind": "knn"}, {"kind": "tree"}, {"kind": "adaboost",
                                                         "rounds": 5}],
    )
    config = load_config(path)
    paths = emit_report(run_experiment(config), tmp_path / "out")
    pivot = next(p for p in paths if p.name == "accuracy_vs_window_none.csv")
    header = pivot.read_text().splitlines()[0].split(",")
    assert header == ["window_size", "knn", "tree", "adaboost"]


def test_pivot_columns_keep_distinct_specs_apart(tmp_path):
    def pivot(path, mode):
        lines = (path / f"accuracy_vs_window_{mode}.csv").read_text().splitlines()
        return lines[0].split(","), [line.split(",") for line in lines[1:]]

    def cells(path):
        with open(path / "sweep.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    transforms = [{"mode": "awgn", "nu": 2.0},
                  {"mode": "awgn", "nu": 0.1234567},
                  {"mode": "awgn", "nu": 0.12345678}]
    config = load_config(small_config(tmp_path, burst_sizes=[150, 300], transforms=transforms,
                                      classifiers=[{"kind": "tree"}]))
    emit_report(run_experiment(config), tmp_path / "nu")
    header, records = pivot(tmp_path / "nu", "awgn")
    assert header == ["window_size", "nu2", "nu0.1234567", "nu0.12345678"]
    rows = cells(tmp_path / "nu")
    assert len(rows) == 6 and all(r["status"] == "ok" for r in rows)
    for record in records:
        for params, value in zip(("nu=2.0", "nu=0.1234567", "nu=0.12345678"), record[1:]):
            want = [r["accuracy"] for r in rows
                    if r["window_size"] == record[0] and r["transform_params"] == params]
            assert want == [value]

    config = load_config(small_config(
        tmp_path, classifiers=[{"kind": "knn", "k": 1}, {"kind": "knn", "k": 15},
                               {"kind": "tree"}]))
    emit_report(run_experiment(config), tmp_path / "knn")
    header, [record] = pivot(tmp_path / "knn", "none")
    assert header == ["window_size", "knn(k=1)", "knn(k=15)", "tree"]
    assert record[1:] == [r["accuracy"] for r in cells(tmp_path / "knn")]


def test_config_json_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"scenario": "mic_onoff",\n  "seed": }')
    with pytest.raises(ConfigError, match=r"line 2"):
        load_config(path)


def test_a_config_with_a_byte_order_mark_loads_as_the_plain_file(tmp_path):
    """Some editors start a UTF-8 file with EF BB BF; the mark is no part of
    the JSON, and an error's line and column are those of the plain file."""
    plain = small_config(tmp_path)
    marked = tmp_path / "bom.json"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(marked) == load_config(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + b'{"scenario": "mic_onoff",\n  "seed": }')
    with pytest.raises(ConfigError, match=r"bom.json: line 2, column 11: Expecting value"):
        load_config(marked)


def test_config_field_errors_are_named(tmp_path):
    base = {"scenario": "mic_onoff", "burst_sizes": [100]}
    with pytest.raises(ConfigError, match="classifiers"):
        config_from_dict({**base, "classifiers": [{"kind": "svm"}],
                          "transforms": [{"mode": "none"}]})
    with pytest.raises(ConfigError, match="transforms"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "transforms": [{"mode": "blur"}]})
    with pytest.raises(ConfigError, match="empty"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "transforms": []})
    with pytest.raises(ConfigError, match="scenario"):
        config_from_dict({"scenario": "no_such_preset",
                          "classifiers": [{"kind": "knn"}],
                          "transforms": [{"mode": "none"}]})
    with pytest.raises(ConfigError, match="profiles"):
        config_from_dict({
            "profiles": [{"label": "a"}],
            "classifiers": [{"kind": "knn"}],
            "transforms": [{"mode": "none"}],
            "burst_sizes": [100],
        })
    with pytest.raises(ConfigError, match=r"classifiers\[0\].*'kk'"):
        config_from_dict({**base, "classifiers": [{"kind": "knn", "kk": 3}]})
    with pytest.raises(ConfigError, match=r"classifiers\[0\].*hidden must be a list"):
        config_from_dict({**base, "classifiers": [{"kind": "mlp", "hidden": 5}]})
    with pytest.raises(ConfigError, match=r"transforms\[0\].*'windw'"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "transforms": [{"mode": "smooth", "windw": 21}]})
    with pytest.raises(ConfigError, match=r"config.*'seeed'"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}], "seeed": 1})
    with pytest.raises(ConfigError, match=r"transforms\[0\]: must be an object"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "transforms": ["none"]})
    for transform, named in (
        ({"mode": "smooth", "window": 51.9}, r"window must be an odd integer >= 3, got 51\.9"),
        ({"mode": "smooth", "degree": "3"}, r"degree must be an integer in \[0, window - 1\]"),
        ({"mode": "awgn", "nu": 2.0, "clamp_counts": True},
         r"transform awgn: unknown key\(s\) \['clamp_counts'\]"),
        ({"mode": "awgn", "nu": "nan"}, "nu must be a finite number > 0, got 'nan'"),
        ({"mode": "awgn", "nu": float("nan")}, "nu must be a finite number > 0, got nan"),
        ({"mode": "realistic", "nu": float("inf")}, "nu must be a finite number > 0, got inf"),
        ({"mode": "awgn", "nu": 0}, "nu must be a finite number > 0, got 0"),
        ({"mode": "awgn", "nu": 10**400}, "nu must be a finite number > 0, got 1000"),
        ({"mode": "awgn"}, "nu must be a finite number > 0"),
        ({"mode": "none", "nu": 2.0}, r"transform none: unknown key\(s\) \['nu'\]"),
        ({"mode": "smooth", "nu": 2.0}, r"transform smooth: unknown key\(s\) \['nu'\]"),
        ({"mode": "smooth", "clamp_counts": True}, r"unknown key\(s\) \['clamp_counts'\]"),
        ({"mode": "awgn", "nu": 2.0, "window": 51}, r"transform awgn: unknown key\(s\) \['window'\]"),
        ({"mode": "realistic", "nu": 2.0, "degree": 1}, r"unknown key\(s\) \['degree'\]"),
    ):
        with pytest.raises(ConfigError, match=rf"transforms\[1\].*{named}"):
            config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                              "transforms": [{"mode": "none"}, transform]})
    config = config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                               "transforms": [{"mode": "awgn", "nu": 2}]})
    assert config.transforms[0].key() == "awgn(nu=2.0)"
    for windows, named in (
        ({"timespans": ["nan"]}, r"timespans\[0\]: timespan must be a finite number > 0, got 'nan'"),
        ({"timespans": [0.5, float("inf")]}, r"timespans\[1\]: timespan must be .* got inf"),
        ({"timespans": [True]}, r"timespans\[0\]: timespan must be"),
        ({"timespans": [10**400]}, r"timespans\[0\]: timespan must be a finite number > 0, got 1000"),
        ({"burst_sizes": [250.7]}, r"burst_sizes\[0\]: burst size must be an integer >= 2, got 250\.7"),
        ({"burst_sizes": [100, "250"]}, r"burst_sizes\[1\]: burst size must be an integer"),
        ({"burst_sizes": 250}, r"burst_sizes: must be a list"),
    ):
        with pytest.raises(ConfigError, match=named):
            config_from_dict({**base, **windows, "classifiers": [{"kind": "knn"}]})
    config = config_from_dict({**base, "burst_sizes": [], "timespans": [1],
                               "classifiers": [{"kind": "knn"}]})
    assert config.window_specs[0].key() == "timespan:1.0"
    profile = asdict(builtin_profiles("mic_onoff")[0])
    with pytest.raises(ConfigError, match=r"profiles\[0\].*'jiter_std'"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "profiles": [{**profile, "jiter_std": 0.1}]})
    # a removed field fails by name: inter-packet gaps are plain exponential draws
    with pytest.raises(ConfigError, match=r"^profiles\[0\]: unknown key\(s\) \['jitter_std'\]; "
                                          r"expected some of \['ip_pool_size', 'label', "):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "profiles": [{**profile, "jitter_std": 0.0}]})
    for field, named in (
        ({"ip_pool_size": 2.9}, r"ip_pool_size must be an integer in \[1, 16777216\], got 2\.9"),
        ({"ip_pool_size": 10**400}, r"ip_pool_size must be an integer in \[1, 16777216\], got 1000"),
        ({"port_pool_size": 0}, r"port_pool_size must be an integer in \[1, 65535\], got 0"),
        ({"port_pool_size": 70000}, r"port_pool_size must be an integer in \[1, 65535\], got 70000"),
        ({"label": 5}, "label must be a string, got 5"),
        ({"rate": "600"}, "rate must be a finite number > 0, got '600'"),
        ({"rate": float("inf")}, "rate must be a finite number > 0, got inf"),
        ({"rate": float("nan")}, "rate must be a finite number > 0, got nan"),
        ({"rate": 0}, "rate must be a finite number > 0, got 0"),
        ({"length_mean": float("nan")}, "length_mean must be a finite number > 0, got nan"),
        ({"length_mean": -5.0}, r"length_mean must be a finite number > 0, got -5\.0"),
        ({"window_std": True}, "window_std must be a finite number >= 0, got True"),
        ({"protocol_mix": [0.5, "0.5", 0.0]},
         r"protocol_mix must be three finite numbers >= 0 summing to 1, got \[0\.5, '0\.5', 0\.0\]"),
        ({"protocol_mix": [0.5, float("nan"), 0.5]}, "protocol_mix must be three finite numbers"),
        ({"protocol_mix": [0.5, 0.5]}, r"protocol_mix must be three .* got \[0\.5, 0\.5\]"),
        ({"protocol_mix": [0.9, 0.2, -0.1]}, r"protocol_mix must be three .* got \[0\.9, 0\.2, -0\.1\]"),
        ({"protocol_mix": [0.5, 0.2, 0.2]}, r"protocol_mix must be three .* got \[0\.5, 0\.2, 0\.2\]"),
    ):
        profiles = [{**profile, **field}, asdict(builtin_profiles("mic_onoff")[1])]
        with pytest.raises(ConfigError, match=rf"profiles\[0\]: .*{named}"):
            config_from_dict({**base, "classifiers": [{"kind": "knn"}], "profiles": profiles})
    with pytest.raises(ConfigError, match=r"^profiles\[0\]: must be an object, got 3$"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}], "profiles": [3]})
    for name in ("a.pcap", "b.pcap"):
        (tmp_path / name).write_bytes(b"")
    other = asdict(builtin_profiles("mic_onoff")[1])
    pcaps = {"pcap_dir": str(tmp_path), "pcap_labels": {"a.pcap": "x", "b.pcap": "y"}}
    for source, named in (  # fewer than two classes
        ({"profiles": [profile, other, {**other, "label": profile["label"]}]},
         rf"^profiles\[2\]: label '{profile['label']}' duplicates profiles\[0\]$"),
        ({"profiles": [profile]}, r"^profiles: need at least 2 class profiles, got 1$"),
        ({"pcap_dir": str(tmp_path), "pcap_labels": {"a.pcap": "x", "b.pcap": "x"}},
         r"^pcap_labels: every file has label 'x'; need at least 2 distinct labels$"),
        # fields of the other data source, which would be read and never used
        ({**pcaps, "profiles": [profile, other]}, r"^profiles: not allowed with pcap_dir$"),
        ({**pcaps, "traces_per_class": 9, "duration": 5.0},
         r"^traces_per_class: not allowed with pcap_dir$"),
        ({**pcaps, "duration": 5.0}, r"^duration: not allowed with pcap_dir$"),
        ({"pcap_labels": pcaps["pcap_labels"]}, r"^pcap_labels: not allowed without pcap_dir$"),
    ):
        with pytest.raises(ConfigError, match=named):
            config_from_dict({**base, "classifiers": [{"kind": "knn"}], **source})
    config = config_from_dict({**base, "classifiers": [{"kind": "knn"}], "pcap_dir": str(tmp_path),
                               "pcap_labels": {"a.pcap": "x", "b.pcap": "y"}})
    assert [label for _, label in config.pcap_files] == ["x", "y"]
    for root, named in (
        ({"seed": 1.5}, r"seed must be an integer >= 0, got 1\.5"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"seed": -3}, "seed must be an integer >= 0, got -3"),
        ({"traces_per_class": 2.9}, r"traces_per_class must be an integer >= 1, got 2\.9"),
        ({"traces_per_class": 0}, "traces_per_class must be an integer >= 1, got 0"),
        ({"train_fraction": "0.7"}, r"train_fraction must be a number in \(0, 1\), got '0\.7'"),
        ({"train_fraction": True}, r"train_fraction must be a number in \(0, 1\), got True"),
        ({"train_fraction": 1.0}, r"train_fraction must be a number in \(0, 1\), got 1\.0"),
        ({"duration": "nan"}, "duration must be a finite number > 0, got 'nan'"),
        ({"duration": float("nan")}, "duration must be a finite number > 0, got nan"),
        ({"duration": -1}, "duration must be a finite number > 0, got -1"),
        ({"duration": 1e400}, "duration must be a finite number > 0, got inf"),
        ({"duration": 10**400}, "duration must be a finite number > 0, got 1000"),
        ({"output_dir": 3}, "output_dir must be a string, got 3"),
        ({"pcap_dir": ["."]}, r"pcap_dir must be a string, got \['\.'\]"),
        ({"scenario": 7}, "scenario must be a string, got 7"),
        ({"scenario": "foo"}, r"scenario: no built-in profiles for 'foo'; expected one of "
                              r"\['mic_onoff', 'mic_on_noise', 'utility_media_travel'\]$"),
        ({"pcap_dir": ".", "pcap_labels": {"a.pcap": 5}},
         r"pcap_labels\[a\.pcap\] must be a string, got 5"),
    ):
        with pytest.raises(ConfigError, match=f"^{named}"):
            config_from_dict({**base, "classifiers": [{"kind": "knn"}], **root})
    for classifier, named in (
        ({"kind": "mlp", "epochs": 0}, "epochs must be an integer >= 1"),
        ({"kind": "mlp", "epochs": 2.5}, "epochs must be an integer >= 1"),
        ({"kind": "knn", "k": 0}, "k must be an integer >= 1"),
        ({"kind": "knn", "k": True}, "k must be an integer >= 1"),
        ({"kind": "forest", "n_trees": 0}, "n_trees must be an integer >= 1"),
        ({"kind": "adaboost", "rounds": "50"}, "rounds must be an integer >= 1"),
        ({"kind": "mlp", "learning_rate": -1}, "learning_rate must be a finite number > 0"),
        ({"kind": "mlp", "learning_rate": 0}, "learning_rate must be a finite number > 0"),
        ({"kind": "mlp", "learning_rate": float("inf")}, "learning_rate must be"),
        ({"kind": "mlp", "learning_rate": True}, "learning_rate must be"),
        ({"kind": "forest", "bootstrap": False}, r"unknown key\(s\) \['bootstrap'\]"),
        # a fit's seed is its cell's, and the MLP's batch size its kernel's
        ({"kind": "forest", "seed": 0},
         r"unknown key\(s\) \['seed'\]; expected some of \['n_trees'\]$"),
        ({"kind": "mlp", "seed": 0}, r"unknown key\(s\) \['seed'\]"),
        ({"kind": "mlp", "batch_size": 32},
         r"unknown key\(s\) \['batch_size'\]; expected some of "
         r"\['epochs', 'hidden', 'learning_rate'\]$"),
        ({"kind": "forest", "trees": [0, 1]}, r"unknown key\(s\) \['trees'\]"),
    ):
        with pytest.raises(ConfigError, match=rf"classifiers\[0\]: classifier '{classifier['kind']}': {named}"):
            config_from_dict({**base, "transforms": [{"mode": "none"}],
                              "classifiers": [classifier]})
    config_from_dict({**base, "transforms": [{"mode": "none"}],
                      "classifiers": [{"kind": "tree"},
                                      {"kind": "forest", "n_trees": 1},
                                      {"kind": "mlp", "epochs": 1}]})
    for grid, named in (
        ({"transforms": [{"mode": "awgn", "nu": 2.0}, {"mode": "awgn", "nu": 2}]},
         r"transforms\[1\]: duplicates transforms\[0\] \(awgn\(nu=2\.0\)\)"),
        ({"transforms": [{"mode": "none"}, {"mode": "smooth"},
                         {"mode": "smooth", "window": 51, "degree": 1}]},
         r"transforms\[2\]: duplicates transforms\[1\] \(smooth\(window=51,degree=1\)\)"),
        ({"classifiers": [{"kind": "knn", "k": 5}, {"kind": "tree"}, {"kind": "knn", "k": 5}]},
         r"classifiers\[2\]: duplicates classifiers\[0\] \(knn\(k=5\)\)"),
        ({"burst_sizes": [250, 500, 250]},
         r"burst_sizes\[2\]: duplicates burst_sizes\[0\] \(burst:250\)"),
        ({"timespans": [0.5, 0.5]}, r"timespans\[1\]: duplicates timespans\[0\] \(timespan:0\.5\)"),
    ):
        with pytest.raises(ConfigError, match=named):
            config_from_dict({**base, "transforms": [{"mode": "none"}],
                              "classifiers": [{"kind": "knn"}], **grid})
    config = config_from_dict({**base, "burst_sizes": [250], "timespans": [250],
                               "classifiers": [{"kind": "knn"}]})
    assert [w.key() for w in config.window_specs] == ["burst:250", "timespan:250.0"]


def test_config_missing_pcap_file_fails_at_load(tmp_path):
    doc = {
        "pcap_dir": ".",
        "pcap_labels": {"nothere.pcap": "x"},
        "classifiers": [{"kind": "knn"}],
        "transforms": [{"mode": "none"}],
        "burst_sizes": [100],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="nothere.pcap"):
        load_config(path)


@pytest.mark.parametrize("name", ["burst_sizes", "timespans", "profiles", "transforms",
                                  "classifiers"])
def test_a_list_field_that_is_no_json_list_fails_naming_the_field(name):
    """null is no way to ask for the default, and an object is not a list of one."""
    base = {"scenario": "mic_onoff", "classifiers": [{"kind": "knn"}]}
    for value in (5, 2.5, True, None, "none", {"mode": "none"}, {}):
        with pytest.raises(ConfigError, match=f"^{name}: must be a list, got {re.escape(repr(value))}$"):
            config_from_dict({**base, name: value})


def test_a_config_built_in_code_gets_the_defaults_of_a_json_config():
    """ExperimentConfig's defaults are the only ones: a config built in code
    with profiles and classifiers alone equals the JSON config that gives
    just those, and runs the default grid, six burst sizes untransformed."""
    profiles = builtin_profiles("mic_onoff")
    built = ExperimentConfig(profiles=profiles, classifiers=[ClassifierSpec("knn")])
    read = config_from_dict({"profiles": [asdict(p) for p in profiles],
                             "classifiers": [{"kind": "knn"}]})
    assert read == built
    assert config_from_dict({"scenario": "mic_onoff", "classifiers": [{"kind": "knn"}]}) == replace(
        built, scenario="mic_onoff")
    report = run_experiment(replace(built, duration=10.0))
    assert [(r.window.key(), r.transform.key(), r.status) for r in report.rows] == [
        (f"burst:{n}", "none()", "ok") for n in (250, 500, 750, 1000, 1250, 1500)]


def test_validate_rejects_a_config_built_with_both_data_sources(tmp_path):
    """A config built in code, here by `replace`, holds one data source too:
    the sweep would load the pcaps and never run the profiles. Its fields
    meet the rules a JSON config's do, its captures must exist, and a
    repeated grid entry, which would rerun its cells with the same seeds,
    fails as in a JSON config; each fails as the config is built."""
    for name in ("a.pcap", "b.pcap"):
        (tmp_path / name).write_bytes(b"")
    config = load_config(small_config(tmp_path))
    assert config.profiles and not config.pcap_files
    for field, named in (
        ({"seed": 1.5}, r"seed must be an integer >= 0, got 1\.5"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"traces_per_class": 2.5}, r"traces_per_class must be an integer >= 1, got 2\.5"),
        ({"duration": "5"}, "duration must be a finite number > 0, got '5'"),
        ({"train_fraction": "0.7"}, r"train_fraction must be a number in \(0, 1\), got '0\.7'"),
        ({"profiles": [], "pcap_files": [(tmp_path / "a.pcap", 5), (tmp_path / "b.pcap", "y")]},
         r"pcap_labels\[a\.pcap\] must be a string, got 5"),
        ({"profiles": [],
          "pcap_files": [(tmp_path / "a.pcap", "x"), (tmp_path / "nope.pcap", "y")]},
         rf"pcap_labels\[nope\.pcap\]: file not found: {re.escape(str(tmp_path / 'nope.pcap'))}"),
        # a repeated grid entry, named by its list in a JSON config
        ({"window_specs": [WindowSpec.burst(250), WindowSpec.time_span(0.5),
                           WindowSpec.burst(250)]},
         r"burst_sizes\[1\]: duplicates burst_sizes\[0\] \(burst:250\)"),
        ({"window_specs": [WindowSpec.burst(250), WindowSpec.time_span(0.5),
                           WindowSpec.time_span(0.5)]},
         r"timespans\[1\]: duplicates timespans\[0\] \(timespan:0\.5\)"),
        ({"transforms": [TransformSpec("none"), TransformSpec("none")]},
         r"transforms\[1\]: duplicates transforms\[0\] \(none\(\)\)"),
        ({"classifiers": [ClassifierSpec("knn"), ClassifierSpec("knn")]},
         r"classifiers\[1\]: duplicates classifiers\[0\] \(knn\(\)\)"),
    ):
        with pytest.raises(ConfigError, match=f"^{named}$"):
            replace(config, **field)
    pcaps = [(tmp_path / "a.pcap", "x"), (tmp_path / "b.pcap", "y")]
    with pytest.raises(ConfigError, match=r"^profiles: not allowed with pcap_dir$"):
        replace(config, pcap_files=pcaps)
    assert replace(config, pcap_files=pcaps, profiles=[]).pcap_files == tuple(pcaps)


def test_a_built_config_object_is_fixed_and_a_changed_one_is_checked(tmp_path):
    """Each of the five config types, and a trace, is frozen, so none changes
    after its check, and `replace`, the way to change one, checks the new
    object as its constructor does; a config's list fields are held as
    tuples. A trace's packets are data, not config: they fail as a
    ValueError that names the packet."""
    config = load_config(small_config(tmp_path))
    profile = config.profiles[0]
    trace = generate_trace(profile, 1.0, seed=0)
    for built, field, bad, message in (
        (WindowSpec.burst(250), "size", 1, "burst size must be an integer >= 2, got 1"),
        (TransformSpec("awgn", nu=2.0), "nu", 0,
         "transform awgn: nu must be a finite number > 0, got 0"),
        (profile, "rate", -1.0, r"rate must be a finite number > 0, got -1\.0"),
        (ClassifierSpec("knn"), "params", (("k", 0),),
         "classifier 'knn': k must be an integer >= 1, got 0"),
        (config, "seed", -1, "seed must be an integer >= 0, got -1"),
        (trace, "lengths", -trace.lengths, "packet 0: negative length"),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(built, field, bad)
        with pytest.raises(ValueError if built is trace else ConfigError, match=f"^{message}$"):
            replace(built, **{field: bad})
    assert all(isinstance(getattr(config, name), tuple) for name in
               ("profiles", "pcap_files", "window_specs", "transforms", "classifiers"))


def test_a_classifier_spec_holds_its_params_in_one_form():
    """Params given in either order, as pairs or as a dict, with `hidden` a
    list or a tuple, build one spec, so one key and one cell seed; a config
    holding two orders of one classifier fails as a duplicate."""
    pairs = ClassifierSpec("mlp", (("hidden", (8,)), ("epochs", 5)))
    built = ClassifierSpec("mlp", {"epochs": 5, "hidden": [8]})
    assert pairs == built and pairs.params == (("epochs", 5), ("hidden", (8,)))
    assert pairs.key() == built.key() == "mlp(epochs=5,hidden=(8,))"
    with pytest.raises(ConfigError, match=r"^classifiers\[1\]: duplicates classifiers\[0\] "
                                          r"\(mlp\(epochs=5,hidden=\(8,\)\)\)$"):
        ExperimentConfig(profiles=builtin_profiles("mic_onoff"), classifiers=[pairs, built])


def test_timespan_windows_run(tmp_path):
    path = small_config(tmp_path, burst_sizes=[], timespans=[0.5])
    report = run_experiment(load_config(path))
    assert len(report.rows) == 1
    assert report.rows[0].window.mode == "timespan"
    assert report.rows[0].status == "ok"


def test_sweep_equals_manual_stage_chain(tmp_path):
    path = small_config(
        tmp_path, transforms=[{"mode": "realistic", "nu": 2.0}],
        classifiers=[{"kind": "forest", "n_trees": 10}],
    )
    config = load_config(path)
    report = run_experiment(config)
    row = report.rows[0]

    # chain the stages manually with the same derived seeds
    traces = generate_dataset(
        builtin_profiles("mic_onoff"),
        config.traces_per_class,
        config.duration,
        derive_seed(config.seed, "dataset"),
    )
    wspec = WindowSpec.burst(200)
    table = stack_series([extract_series(t, wspec) for t in traces])
    X, y = table.X, table.labels
    tspec = TransformSpec(mode="realistic", nu=2.0)
    Xt = tspec.apply(X, derive_seed(config.seed, "transform", wspec.key(), tspec.key()))
    clf = ClassifierSpec("forest", {"n_trees": 10})
    cell_seed = derive_seed(config.seed, "cell", wspec.key(), tspec.key(), clf.key())
    train_idx, test_idx = attackers.split(y, 0.7, harness.cell_seeds(cell_seed)[0])
    votes = fit_cell(Xt, y, clf, train_idx, test_idx, cell_seed)
    accuracy = score_cell([votes], np.unique(y, return_inverse=True)[1][test_idx])
    n_train, n_test = train_idx.size, test_idx.size

    assert accuracy == row.accuracy
    assert (n_train, n_test) == (row.n_train, row.n_test)
    assert cell_seed == row.seed


def test_emit_report_rejects_empty():
    from tpbench.harness import SweepReport
    with pytest.raises(ValueError):
        emit_report(SweepReport(rows=[]), "anywhere")


def test_emit_report_unwritable_path_fails(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    from tpbench.harness import SweepReport, SweepRow
    report = SweepReport(rows=[SweepRow(
        scenario="s", classifier=ClassifierSpec("knn"), window=WindowSpec.burst(100),
        transform=TransformSpec("none"), accuracy=1.0,
        n_train=1, n_test=1, seed=0, dropped_windows=0,
    )])
    with pytest.raises(OSError):
        emit_report(report, blocker / "sub")


@pytest.mark.parametrize("kind, defaults", [
    ("knn", {"k": 5}),
    ("tree", {}),
    ("forest", {"n_trees": 100}),
    ("adaboost", {"rounds": 50}),
    ("mlp", {"hidden": (64, 64), "epochs": 200, "learning_rate": 1e-3}),
])
def test_each_kind_accepts_its_hyperparameters_and_defaults(kind, defaults):
    """A kind's config keys and defaults are its fit's, and nothing else: the
    class count, the keyword-only hooks (`seed` and `trees`; a tree's `rng`
    and `features_per_split`) and the MLP's `batch_size`, a constant, are no
    config keys."""
    assert attackers.HYPERPARAMETERS[kind] == defaults
    assert dict(ClassifierSpec(kind, defaults).params) == defaults
    hooks = {"n_classes", "seed", "trees"} | {"tree": {"rng", "features_per_split"},
                                              "mlp": {"batch_size"}}.get(kind, set())
    for key in hooks:
        with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\]"):
            ClassifierSpec(kind, {key: 1})
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(30, 4)), np.repeat(["a", "b"], 15)
    implicit = attackers.train(kind, X, y)
    explicit = attackers.train(kind, X, y, **defaults)
    assert np.array_equal(attackers.predict(implicit, X), attackers.predict(explicit, X))
    # one row is a (1, features) matrix: a bare row fails instead of being read as columns
    with pytest.raises(ValueError, match=r"expected a \(rows, features\) matrix, got shape \(4,\)"):
        attackers.predict(implicit, X[0])
    # as does another column count: one column would broadcast against the
    # training rows' standardizer, 11 would fail inside it
    for columns in (1, 11):
        for entry in (attackers.predict, attackers.votes):
            with pytest.raises(ValueError, match=rf"^expected 4 feature columns, got {columns}$"):
                entry(implicit, np.zeros((20, columns)))
