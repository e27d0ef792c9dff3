import json
from dataclasses import asdict

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
        assert row.window_size == 2000
        assert row.transform == "smooth"
        assert "window_length" in row.reason or "usable window" in row.reason


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
    with pytest.raises(ConfigError, match=r"transforms\[0\].*'windw'"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "transforms": [{"mode": "smooth", "windw": 21}]})
    with pytest.raises(ConfigError, match=r"config.*'seeed'"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}], "seeed": 1})
    with pytest.raises(ConfigError, match=r"transforms\[0\]: must be an object"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "transforms": ["none"]})
    profile = asdict(builtin_profiles(Scenario.MIC_ONOFF)[0])
    with pytest.raises(ConfigError, match=r"profiles\[0\].*'jiter_std'"):
        config_from_dict({**base, "classifiers": [{"kind": "knn"}],
                          "profiles": [{**profile, "jiter_std": 0.1}]})


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
    assert report.rows[0].window_mode == "timespan"
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
        scenario="s", classifier="knn", classifier_params="", window_mode="burst",
        window_size=100, transform="none", transform_params="", accuracy=1.0,
        n_train=1, n_test=1, seed=0, dropped_windows=0,
    )])
    with pytest.raises(OSError):
        emit_report(report, blocker / "sub")
