import csv
import json
import re
import warnings

import numpy as np

from helpers import build_pcap, ipv4_frame
from tpbench import attackers
from tpbench.cli import main
from tpbench.features import (
    FEATURE_NAMES,
    FeatureSeries,
    WindowSpec,
    load_features_csv,
    save_features_csv,
    stack_series,
)
from tpbench.adversarial import REALISTIC_UNTOUCHED_FEATURES, TransformSpec
from tpbench.harness import cell_seeds
from tpbench.seeding import derive_seed
from tpbench.traffic import Protocol


def test_unknown_flag_exits_one(capsys):
    assert main(["sweep", "--nonsense"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_synth_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    code = main([
        "synth", "--scenario", "mic_onoff", "--traces-per-class", "2",
        "--duration", "5.0", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    traces = sorted(out.glob("*.trace"))
    assert len(traces) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["labels"] == ["mic_off", "mic_on"]


def test_synth_non_finite_duration_exits_two(tmp_path, capsys):
    too_many = r"profile 'mic_off': duration {} s at rate 600\.0 pkt/s expects .* packets"
    for duration, named in (
        ("inf", "duration must be a finite number > 0, got inf"),
        ("nan", "duration must be a finite number > 0, got nan"),
        ("1e12", too_many.format(r"1000000000000\.0")),
        ("1e300", too_many.format(r"1e\+300")),
    ):
        code = main(["synth", "--duration", duration, "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(named, err)
        assert "Traceback" not in err


def test_extract_from_traces_then_attack(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--scenario", "mic_onoff", "--traces-per-class", "2",
          "--duration", "8.0", "--seed", "3", "--out", str(data)])
    csv_path = tmp_path / "f.csv"
    code = main(["extract", "--traces", str(data), "--burst", "200",
                 "--out", str(csv_path)])
    assert code == 0
    assert csv_path.exists()

    code = main(["attack", "--features", str(csv_path), "--classifier", "knn",
                 "--params", '{"k": 3}', "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out and "n_train=" in out


def test_cli_chain_reproduces_a_sweep_cell(tmp_path, capsys):
    """synth -> extract --traces -> perturb -> attack, with the seeds the
    README names, gives the sweep's accuracy for an awgn cell. The profiles
    (utility, media, travel) are not in name order and each class has 11
    traces (`-10` sorts before `-2`), so only the stacking order `synth`
    saved makes the chain draw the sweep's noise for each row."""
    seed, burst, tspec = 42, 250, TransformSpec("awgn", nu=2.0)
    config = tmp_path / "umt.json"
    config.write_text(json.dumps({
        "scenario": "utility_media_travel", "traces_per_class": 11, "duration": 3.0,
        "burst_sizes": [burst], "transforms": [{"mode": "awgn", "nu": 2.0}],
        "classifiers": [{"kind": "knn", "k": 5}], "train_fraction": 0.7,
        "seed": seed, "output_dir": "out",
    }))
    assert main(["sweep", "--config", str(config)]) == 0
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        (cell,) = csv.DictReader(fh)
    assert cell["status"] == "ok"

    data, features, noisy = tmp_path / "data", tmp_path / "f.csv", tmp_path / "n.csv"
    transform_seed = derive_seed(seed, "transform", WindowSpec.burst(burst).key(), tspec.key())
    for argv in (
        ["synth", "--scenario", "utility_media_travel", "--traces-per-class", "11",
         "--duration", "3.0", "--seed", str(derive_seed(seed, "dataset")), "--out", str(data)],
        ["extract", "--traces", str(data), "--burst", str(burst), "--out", str(features)],
        ["perturb", "--in", str(features), "--mode", "awgn", "--nu", "2.0",
         "--seed", str(transform_seed), "--out", str(noisy)],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    assert main(["attack", "--features", str(noisy), "--classifier", "knn",
                 "--params", '{"k": 5}', "--train-fraction", "0.7",
                 "--seed", cell["seed"]]) == 0
    out = capsys.readouterr().out
    assert f"accuracy={cell['accuracy']} " in out
    assert f"n_train={cell['n_train']} n_test={cell['n_test']}" in out


def test_attack_bad_params_exit_two(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--scenario", "mic_onoff", "--traces-per-class", "2",
          "--duration", "8.0", "--seed", "3", "--out", str(data)])
    csv_path = tmp_path / "f.csv"
    main(["extract", "--traces", str(data), "--burst", "200", "--out", str(csv_path)])
    for classifier, params, named in (
        ("knn", '{"epochs": 5}', "epochs"),
        ("knn", "[1]", "JSON object"),
        ("knn", '{"hidden": 5}', "unknown key(s) ['hidden']"),
        ("mlp", '{"hidden": 5}', "hidden must be a list"),
        ("mlp", '{"hidden": ["64"]}', "hidden must be a list"),
        ("mlp", '{"epochs": 0}', "epochs must be an integer >= 1"),
        ("mlp", '{"learning_rate": -1}', "learning_rate must be a finite number > 0"),
        ("knn", '{"k": 0}', "k must be an integer >= 1"),
    ):
        code = main(["attack", "--features", str(csv_path), "--classifier", classifier,
                     "--params", params])
        assert code == 2
        err = capsys.readouterr().err
        assert "--params" in err and named in err


def test_attack_diverged_mlp_exits_two(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--scenario", "mic_onoff", "--traces-per-class", "2",
          "--duration", "8.0", "--seed", "3", "--out", str(data)])
    csv_path = tmp_path / "f.csv"
    main(["extract", "--traces", str(data), "--burst", "200", "--out", str(csv_path)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["attack", "--features", str(csv_path), "--classifier", "mlp",
                     "--params", '{"epochs": 3, "learning_rate": 1e300}'])
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "non-finite training loss" in capsys.readouterr().err


def test_non_finite_feature_csv_exits_two(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--scenario", "mic_onoff", "--traces-per-class", "2",
          "--duration", "8.0", "--seed", "3", "--out", str(data)])
    csv_path = tmp_path / "f.csv"
    main(["extract", "--traces", str(data), "--burst", "200", "--out", str(csv_path)])
    # a transform that overflows fails before anything is written
    assert main(["perturb", "--in", str(csv_path), "--mode", "awgn", "--nu", "1e308",
                 "--out", str(tmp_path / "g.csv")]) == 2
    assert "transform awgn(nu=1e+308) produced non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()
    lines = csv_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[FEATURE_NAMES.index("std_ipt")] = "nan"
    lines[3] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    for argv in (["attack", "--features", str(csv_path), "--classifier", "knn"],
                 ["perturb", "--in", str(csv_path), "--mode", "awgn",
                  "--out", str(tmp_path / "g.csv")]):
        assert main(argv) == 2
        assert f"f.csv:4: std_ipt is 'nan'" in capsys.readouterr().err


def test_extract_missing_pcap_exits_two(tmp_path, capsys):
    code = main(["extract", "--pcap", str(tmp_path / "missing.pcap"),
                 "--label", "x", "--burst", "100", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "missing.pcap" in capsys.readouterr().err


def test_extract_burst_zero_names_the_burst_size(tmp_path, capsys):
    code = main(["extract", "--pcap", str(tmp_path / "any.pcap"), "--label", "x",
                 "--burst", "0", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "burst size must be an integer >= 2, got 0" in capsys.readouterr().err


def test_extract_tiny_timespan_exits_two_naming_trace_and_span(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--scenario", "mic_onoff", "--traces-per-class", "1",
          "--duration", "5.0", "--seed", "3", "--out", str(data)])
    capsys.readouterr()
    for timespan, span, message in (
        ("1e-9", "timespan:1e-09", "no window with >= 2 packets"),
        ("1e-300", "time span 1e-300", "more than 2**52 intervals"),
    ):
        code = main(["extract", "--traces", str(data), "--timespan", timespan,
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2, timespan
        assert re.fullmatch(r"tpbench extract: trace '[^']+'.*\n", err), err
        assert span in err and message in err, err
        assert "Traceback" not in err


def test_sweep_tiny_timespan_skips_its_cell_or_exits_two_naming_the_trace(tmp_path, capsys):
    """A span too small for two packets per window skips its cell; one past
    exact float64 interval indices fails the sweep, naming a trace."""
    for timespan, out in ((1e-9, "tiny"), (1e-300, "past")):
        config = tmp_path / f"{out}.json"
        config.write_text(json.dumps({
            "scenario": "mic_onoff", "traces_per_class": 2, "duration": 5.0,
            "timespans": [timespan], "transforms": [{"mode": "none"}],
            "classifiers": [{"kind": "knn", "k": 3}], "seed": 1, "output_dir": out,
        }))
        code = main(["sweep", "--config", str(config)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if timespan == 1e-9:
            assert code == 0, err
            with open(tmp_path / out / "sweep.csv", newline="") as fh:
                (cell,) = csv.DictReader(fh)
            assert (cell["window_size"], cell["status"], cell["accuracy"]) == ("1e-09", "skipped", "")
            assert cell["reason"] == "no trace produced a usable window at this size"
        else:
            assert code == 2
            assert re.fullmatch(r"tpbench sweep: trace 'mic_o[nf]+-\d'.*\n", err), err
            assert "time span 1e-300" in err and "more than 2**52 intervals" in err, err


def test_extract_bad_pcap_exits_two_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"garbage" * 8)
    code = main(["extract", "--pcap", str(bad), "--label", "x", "--burst", "100",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert f"{bad}: bad pcap magic" in capsys.readouterr().err


def test_extract_pcap_roundtrip(tmp_path):
    frame = ipv4_frame(Protocol.TCP, 1, 2, 80, 81, tcp_window=100)
    records = [(i * 0.25, frame) for i in range(10)]
    pcap_path = tmp_path / "c.pcap"
    pcap_path.write_bytes(build_pcap(records))
    out = tmp_path / "f.csv"
    code = main(["extract", "--pcap", str(pcap_path), "--label", "cap",
                 "--burst", "5", "--out", str(out)])
    assert code == 0
    series = load_features_csv(out)
    assert len(series) == 1 and series[0].label == "cap"
    assert len(series[0]) == 2


def test_perturb_realistic_keeps_untouched_columns(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--scenario", "mic_onoff", "--traces-per-class", "2",
          "--duration", "8.0", "--seed", "3", "--out", str(data)])
    plain = tmp_path / "f.csv"
    main(["extract", "--traces", str(data), "--burst", "200", "--out", str(plain)])
    shifted = tmp_path / "g.csv"
    code = main(["perturb", "--in", str(plain), "--mode", "realistic",
                 "--nu", "2", "--seed", "7", "--out", str(shifted)])
    assert code == 0
    X, _, _ = stack_series(load_features_csv(plain))
    Xt, _, _ = stack_series(load_features_csv(shifted))
    for name in REALISTIC_UNTOUCHED_FEATURES:
        idx = FEATURE_NAMES.index(name)
        assert np.array_equal(X[:, idx], Xt[:, idx]), name
    pad_idx = FEATURE_NAMES.index("mean_len_pack")
    assert np.all(Xt[:, pad_idx] == X[:, pad_idx].max())


def test_perturb_awgn_keeps_each_trace_of_unequal_length(tmp_path):
    """`perturb` cuts the transformed stacked matrix back into the traces it
    read: each keeps its id, label, row count and place, and its rows are
    those of `TransformSpec.apply` on the stacked matrix."""
    rng = np.random.default_rng(5)
    traces = (("z-1", "b", 3), ("a-0", "a", 7), ("m-2", "b", 1))
    plain, noisy = tmp_path / "f.csv", tmp_path / "n.csv"
    save_features_csv([FeatureSeries(rng.uniform(0.0, 100.0, size=(n, 12)), label, trace_id)
                       for trace_id, label, n in traces], plain)
    assert main(["perturb", "--in", str(plain), "--mode", "awgn", "--nu", "2.0",
                 "--seed", "4", "--out", str(noisy)]) == 0
    back = load_features_csv(noisy)
    assert [(s.trace_id, s.label, len(s)) for s in back] == list(traces)
    assert {s.transform for s in back} == {"awgn(nu=2.0)"}
    X, _, _ = stack_series(load_features_csv(plain))
    expected = TransformSpec("awgn", nu=2.0).apply(X, 4)
    assert np.array_equal(np.concatenate([s.values for s in back]), expected)


def test_perturb_smooth_too_short_exits_two(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--scenario", "mic_onoff", "--traces-per-class", "2",
          "--duration", "5.0", "--seed", "3", "--out", str(data)])
    plain = tmp_path / "f.csv"
    main(["extract", "--traces", str(data), "--burst", "900", "--out", str(plain)])
    code = main(["perturb", "--in", str(plain), "--mode", "smooth",
                 "--window", "51", "--degree", "1", "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "< window 51; reduce window" in capsys.readouterr().err


def test_sweep_and_selftest(tmp_path, capsys, monkeypatch):
    config = {
        "scenario": "mic_onoff",
        "traces_per_class": 2,
        "duration": 10.0,
        "burst_sizes": [200],
        "transforms": [{"mode": "none"}],
        "classifiers": [{"kind": "tree"}],
        "seed": 1,
        "output_dir": "out",
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()

    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
    monkeypatch.setenv("TPB_WORKERS", "0")
    capsys.readouterr()
    assert main(["sweep", "--config", str(path)]) == 2
    assert "TPB_WORKERS must be an integer >= 1, got '0'" in capsys.readouterr().err
    assert main(["selftest"]) == 1  # removed; the acceptance suite is the check battery


def test_sweep_with_one_class_exits_two_naming_the_field(tmp_path, capsys):
    for name in ("a.pcap", "b.pcap"):
        (tmp_path / name).write_bytes(b"")
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "pcap_dir": ".", "pcap_labels": {"a.pcap": "x", "b.pcap": "x"},
        "burst_sizes": [5], "classifiers": [{"kind": "knn"}],
    }))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "pcap_labels: every file has label 'x'" in capsys.readouterr().err


def test_attack_save_model(tmp_path, capsys, monkeypatch):
    """The saved model is the one fit that scored the printed accuracy."""
    data = tmp_path / "data"
    main(["synth", "--scenario", "mic_onoff", "--traces-per-class", "2",
          "--duration", "8.0", "--seed", "3", "--out", str(data)])
    csv_path = tmp_path / "f.csv"
    main(["extract", "--traces", str(data), "--burst", "200", "--out", str(csv_path)])
    model_path = tmp_path / "model.json"
    fits = []
    real_train = attackers.train
    monkeypatch.setattr(attackers, "train", lambda *a, **k: fits.append(a[0]) or real_train(*a, **k))
    capsys.readouterr()
    code = main(["attack", "--features", str(csv_path), "--classifier", "tree",
                 "--save-model", str(model_path)])
    assert code == 0
    assert fits == ["tree"]
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "tree"
    X, y, _ = stack_series(load_features_csv(csv_path))
    _, test_idx = attackers.split(y, 0.7, cell_seeds(0)[0])
    accuracy = attackers.evaluate(attackers.load_model(model_path), X[test_idx], y[test_idx])
    assert f"accuracy={accuracy!r} " in capsys.readouterr().out
