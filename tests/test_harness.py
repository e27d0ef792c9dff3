import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from tpbench.features import WindowSpec, extract_series, stack_series
from tpbench.harness import (
    ConfigError,
    ClassifierSpec,
    TransformSpec,
    config_from_dict,
    emit_report,
    load_config,
    run_cell,
    run_experiment,
)
from tpbench.seeding import derive_seed
from tpbench.traffic import Scenario, builtin_profiles, generate_dataset


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
        assert "window_length" in row.reason or "usable window" in row.reason


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
                  {"mode": "awgn", "nu": 2.0, "clamp_counts": True},
                  {"mode": "awgn", "nu": 0.1234567},
                  {"mode": "awgn", "nu": 0.12345678}]
    config = load_config(small_config(tmp_path, burst_sizes=[150, 300], transforms=transforms,
                                      classifiers=[{"kind": "tree"}]))
    emit_report(run_experiment(config), tmp_path / "nu")
    header, records = pivot(tmp_path / "nu", "awgn")
    assert header == ["window_size", "nu2", "nu2+clamp", "nu0.1234567", "nu0.12345678"]
    rows = cells(tmp_path / "nu")
    assert len(rows) == 8 and all(r["status"] == "ok" for r in rows)
    for record in records:
        for params, value in zip(
            ("nu=2.0", "nu=2.0,clamp_counts=true", "nu=0.1234567", "nu=0.12345678"), record[1:]
        ):
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


def test_config_field_errors_are_named():
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
        ({"mode": "awgn", "nu": 2.0, "clamp_counts": "false"},
         "clamp_counts must be true or false, got 'false'"),
        ({"mode": "awgn", "nu": "nan"}, "nu must be a finite number > 0, got 'nan'"),
        ({"mode": "awgn", "nu": float("nan")}, "nu must be a finite number > 0, got nan"),
        ({"mode": "realistic", "nu": float("inf")}, "nu must be a finite number > 0, got inf"),
        ({"mode": "awgn", "nu": 0}, "nu must be a finite number > 0, got 0"),
        ({"mode": "awgn"}, "nu must be a finite number > 0"),
        ({"mode": "none", "nu": 2.0}, r"\(mode 'none'\): unknown key\(s\) \['nu'\]"),
        ({"mode": "smooth", "nu": 2.0}, r"\(mode 'smooth'\): unknown key\(s\) \['nu'\]"),
        ({"mode": "smooth", "clamp_counts": True}, r"unknown key\(s\) \['clamp_counts'\]"),
        ({"mode": "awgn", "nu": 2.0, "window": 51}, r"\(mode 'awgn'\): unknown key\(s\) \['window'\]"),
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
        ({"burst_sizes": [250.7]}, r"burst_sizes\[0\]: burst size must be an integer >= 2, got 250\.7"),
        ({"burst_sizes": [100, "250"]}, r"burst_sizes\[1\]: burst size must be an integer"),
        ({"burst_sizes": 250}, r"burst_sizes: must be a list"),
    ):
        with pytest.raises(ConfigError, match=named):
            config_from_dict({**base, **windows, "classifiers": [{"kind": "knn"}]})
    config = config_from_dict({**base, "burst_sizes": [], "timespans": [1],
                               "classifiers": [{"kind": "knn"}]})
    assert config.window_specs[0].key() == "timespan:1.0"
    profile = asdict(builtin_profiles(Scenario.MIC_ONOFF)[0])
    with pytest.raises(ConfigError, match=r"profiles\[0\].*'jiter_std'"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "profiles": [{**profile, "jiter_std": 0.1}]})
    for classifier, named in (
        ({"kind": "mlp", "epochs": 0}, "epochs must be an integer >= 1"),
        ({"kind": "mlp", "batch_size": 0}, "batch_size must be an integer >= 1"),
        ({"kind": "mlp", "epochs": 2.5}, "epochs must be an integer >= 1"),
        ({"kind": "knn", "k": 0}, "k must be an integer >= 1"),
        ({"kind": "knn", "k": True}, "k must be an integer >= 1"),
        ({"kind": "forest", "n_trees": 0}, "n_trees must be an integer >= 1"),
        ({"kind": "adaboost", "rounds": "50"}, "rounds must be an integer >= 1"),
        ({"kind": "tree", "min_leaf": 0}, "min_leaf must be an integer >= 1"),
        ({"kind": "tree", "max_depth": 0}, "max_depth must be an integer >= 1 or null"),
        ({"kind": "forest", "features_per_split": 1.5}, "features_per_split must be"),
        ({"kind": "mlp", "learning_rate": -1}, "learning_rate must be a finite number > 0"),
        ({"kind": "mlp", "learning_rate": 0}, "learning_rate must be a finite number > 0"),
        ({"kind": "mlp", "learning_rate": float("inf")}, "learning_rate must be"),
        ({"kind": "mlp", "learning_rate": True}, "learning_rate must be"),
    ):
        with pytest.raises(ConfigError, match=rf"classifiers\[0\]: classifier '{classifier['kind']}': {named}"):
            config_from_dict({**base, "transforms": [{"mode": "none"}],
                              "classifiers": [classifier]})
    config_from_dict({**base, "transforms": [{"mode": "none"}],
                      "classifiers": [{"kind": "tree", "max_depth": None}]})


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
        builtin_profiles(Scenario.MIC_ONOFF),
        config.traces_per_class,
        config.duration,
        derive_seed(config.seed, "dataset"),
        Scenario.MIC_ONOFF,
    )
    wspec = WindowSpec.burst(200)
    X, y = stack_series([extract_series(t, wspec) for t in traces])
    tspec = TransformSpec(mode="realistic", nu=2.0)
    Xt = tspec.apply(X, derive_seed(config.seed, "transform", wspec.key(), tspec.key()))
    clf = ClassifierSpec.from_dict({"kind": "forest", "n_trees": 10})
    cell_seed = derive_seed(config.seed, "cell", wspec.key(), tspec.key(), clf.key())
    accuracy, n_train, n_test = run_cell(Xt, y, clf, 0.7, cell_seed)

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
