import argparse
import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import GOLDEN_FEATURES_CSV, REALISTIC_UNTOUCHED_FEATURES, build_pcap, ipv4_frame
from tpbench import attackers
from tpbench.cli import _build_parser, main
from tpbench.features import (
    FEATURE_NAMES,
    WindowSpec,
    load_features_csv,
)
from tpbench.adversarial import TRANSFORM_PARAMS, TransformSpec
from tpbench.harness import cell_seeds
from tpbench.seeding import derive_seed
from tpbench.traffic import Protocol


def test_unknown_flag_exits_one(capsys):
    assert main(["sweep", "--nonsense"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1


@pytest.fixture
def small_config(tmp_path):
    """A small mic_onoff sweep config: 2 traces per class of 8 s."""
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"scenario": "mic_onoff", "traces_per_class": 2, "duration": 8.0,
                                "classifiers": [{"kind": "knn"}], "seed": 3}))
    return path


@pytest.fixture
def features_csv(small_config, tmp_path):
    """The burst-200 feature CSV of `small_config`'s traces."""
    csv_path = tmp_path / "f.csv"
    assert main(["extract", "--config", str(small_config), "--burst", "200",
                 "--out", str(csv_path)]) == 0
    return csv_path


def test_extract_from_traces_then_attack(features_csv, capsys):
    code = main(["attack", "--features", str(features_csv), "--classifier", "knn",
                 "--params", '{"k": 3}', "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out and "n_train=" in out


def _write_pcaps(directory):
    """Two captures of 200 packets each, of distinct but overlapping traffic."""
    rng = np.random.default_rng(11)
    for name, protocols, gap in (("a.pcap", (Protocol.TCP, Protocol.UDP), 0.01),
                                 ("b.pcap", (Protocol.UDP, Protocol.TCP), 0.012)):
        times = np.cumsum(rng.exponential(gap, 200))
        frames = [ipv4_frame(protocols[int(rng.random() < 0.3)], 1, int(rng.integers(2, 6)),
                             80, int(rng.integers(1000, 1004)),
                             tcp_window=int(rng.integers(1, 900)),
                             payload=bytes(int(rng.integers(0, 400))))
                  for _ in times]
        (directory / name).write_bytes(build_pcap(list(zip(times.tolist(), frames))))


CHAIN_CASES = {
    # profiles not in label order, and 11 traces per class (`-10` sorts before `-2`)
    "preset": ({"scenario": "utility_media_travel", "traces_per_class": 11, "duration": 3.0},
               250),
    # captures not in name order
    "pcap": ({"pcap_dir": ".", "pcap_labels": {"b.pcap": "y", "a.pcap": "x"}}, 10),
    # mic_off-2, -4 and -5 have no 600-packet window at 1 s: the sweep drops them
    "dropped": ({"scenario": "mic_onoff", "traces_per_class": 6, "duration": 1.0}, 600),
}


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_cli_chain_reproduces_a_sweep_cell(case, tmp_path, capsys):
    """extract --config -> perturb -> attack, with the seeds the README names,
    gives the sweep's accuracy, n_train and n_test for an awgn cell: only the
    sweep's trace order makes the chain draw the sweep's noise for each row,
    and only the sweep's drops give it the sweep's rows."""
    source, burst = CHAIN_CASES[case]
    seed, tspec = 42, TransformSpec("awgn", nu=2.0)
    _write_pcaps(tmp_path)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        **source, "burst_sizes": [burst], "transforms": [{"mode": "awgn", "nu": 2.0}],
        "classifiers": [{"kind": "knn", "k": 5}], "train_fraction": 0.7,
        "seed": seed, "output_dir": "out",
    }))
    assert main(["sweep", "--config", str(config)]) == 0
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        (cell,) = csv.DictReader(fh)
    assert cell["status"] == "ok"
    assert (int(cell["dropped_windows"]) > 0) == (case == "dropped")

    features, noisy = tmp_path / "f.csv", tmp_path / "n.csv"
    transform_seed = derive_seed(seed, "transform", WindowSpec.burst(burst).key(), tspec.key())
    for argv in (
        ["extract", "--config", str(config), "--burst", str(burst), "--out", str(features)],
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


def test_attack_bad_params_exit_two(features_csv, capsys):
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
        code = main(["attack", "--features", str(features_csv), "--classifier", classifier,
                     "--params", params])
        assert code == 2
        err = capsys.readouterr().err
        assert "--params" in err and named in err


def test_attack_on_one_class_exits_two_naming_it(tmp_path, capsys):
    """A feature CSV of one label would score 1.0 with any attacker."""
    capture, features = tmp_path / "c.pcap", tmp_path / "f.csv"
    frame = ipv4_frame(Protocol.TCP, 1, 2, 80, 81, tcp_window=100)
    capture.write_bytes(build_pcap([(i * 0.25, frame) for i in range(40)]))
    assert main(["extract", "--pcap", str(capture), "--label", "cap", "--burst", "5",
                 "--out", str(features)]) == 0
    capsys.readouterr()
    assert main(["attack", "--features", str(features), "--classifier", "knn"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "tpbench attack: only class(es) ['cap'] present; need at least 2 classes\n"


def test_attack_on_a_csv_missing_a_column_exits_two_naming_it(features_csv, tmp_path, capsys):
    """A feature CSV whose `trace_id` column was cut names that column."""
    cut = tmp_path / "g.csv"
    with open(features_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    at = rows[0].index("trace_id")
    rows = [row[:at] + row[at + 1:] for row in rows]
    with open(cut, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert main(["attack", "--features", str(cut), "--classifier", "knn"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"tpbench attack: {cut}: missing feature CSV columns ['trace_id']\n"


def test_attack_diverged_mlp_exits_two(features_csv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["attack", "--features", str(features_csv), "--classifier", "mlp",
                     "--params", '{"epochs": 3, "learning_rate": 1e300}'])
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "non-finite training loss" in capsys.readouterr().err


def test_non_finite_feature_csv_exits_two(features_csv, tmp_path, capsys):
    # a transform that overflows fails before anything is written
    assert main(["perturb", "--in", str(features_csv), "--mode", "awgn", "--nu", "1e308",
                 "--out", str(tmp_path / "g.csv")]) == 2
    assert "transform awgn(nu=1e+308) produced non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()
    lines = features_csv.read_text().splitlines()
    cells = lines[3].split(",")
    cells[FEATURE_NAMES.index("std_ipt")] = "nan"
    lines[3] = ",".join(cells)
    features_csv.write_text("\n".join(lines) + "\n")
    for argv in (["attack", "--features", str(features_csv), "--classifier", "knn"],
                 ["perturb", "--in", str(features_csv), "--mode", "awgn",
                  "--out", str(tmp_path / "g.csv")]):
        assert main(argv) == 2
        assert f"f.csv:4: std_ipt is 'nan'" in capsys.readouterr().err


def test_a_feature_csv_that_repeats_its_windows_exits_two(features_csv, tmp_path, capsys):
    """Rows appended a second time would put each window on both sides of
    the split; the first repeat's line is named."""
    header, *rows = features_csv.read_text(encoding="utf-8").splitlines()
    features_csv.write_text("\n".join([header, *rows, *rows]) + "\n", encoding="utf-8")
    trace_id = rows[0].rsplit(",", 1)[1]
    for argv in (["attack", "--features", str(features_csv), "--classifier", "knn"],
                 ["perturb", "--in", str(features_csv), "--mode", "awgn",
                  "--out", str(tmp_path / "g.csv")]):
        capsys.readouterr()
        assert main(argv) == 2
        assert (f"tpbench {argv[0]}: {features_csv}:{len(rows) + 2}: trace {trace_id!r} "
                f"repeats window_index 0 of line 2") in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_extract_missing_pcap_exits_two(tmp_path, capsys):
    code = main(["extract", "--pcap", str(tmp_path / "missing.pcap"),
                 "--label", "x", "--burst", "100", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "missing.pcap" in capsys.readouterr().err


def test_extract_empty_pcap_path_is_read_as_a_pcap_path(tmp_path, capsys):
    """`--pcap ""` is given, so it needs `--label` and then names the path it
    read (`Path("")` is the working directory), not a config's."""
    out = tmp_path / "o.csv"
    for label, message in (([], "--label is required with --pcap"), (["--label", "x"], "'.'")):
        code = main(["extract", "--pcap", "", *label, "--burst", "10", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not out.exists()


def test_extract_label_with_traces_exits_two_naming_the_flag(small_config, tmp_path, capsys):
    """A config labels its own traces, so `--label` is for `--pcap` only."""
    out = tmp_path / "o.csv"
    code = main(["extract", "--config", str(small_config), "--label", "x", "--burst", "100",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--label is only for --pcap input, not --config" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_extract_burst_zero_names_the_burst_size(tmp_path, capsys):
    code = main(["extract", "--pcap", str(tmp_path / "any.pcap"), "--label", "x",
                 "--burst", "0", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "burst size must be an integer >= 2, got 0" in capsys.readouterr().err


def test_extract_tiny_timespan_exits_two_naming_trace_and_span(small_config, tmp_path, capsys):
    """A span too small for two packets per window drops every trace, which
    fails `extract --config` naming the config and `extract --pcap` naming
    the capture (the sweep skips that cell); one past exact float64 interval
    indices fails naming a trace."""
    capture = tmp_path / "c.pcap"
    frame = ipv4_frame(Protocol.TCP, 1, 2, 80, 81, tcp_window=100)
    capture.write_bytes(build_pcap([(i * 0.25, frame) for i in range(10)]))
    config = ["--config", str(small_config)]
    for source, timespan, named, span, message in (
        (config, "1e-9", re.escape(str(small_config)), "timespan:1e-09",
         "no trace gives a window with >= 2 packets"),
        (["--pcap", str(capture), "--label", "cap"], "1e-9", re.escape(str(capture)),
         "timespan:1e-09", "no trace gives a window with >= 2 packets"),
        (config, "1e-300", "trace '[^']+'", "time span 1e-300", "more than 2**52 intervals"),
    ):
        code = main(["extract", *source, "--timespan", timespan,
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2, timespan
        assert re.fullmatch(f"tpbench extract: {named}: .*\n", err), err
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
    table = load_features_csv(out)
    assert table.trace_ids == ["c"] and table.labels.tolist() == ["cap", "cap"]


def test_perturb_realistic_keeps_untouched_columns(features_csv, tmp_path):
    shifted = tmp_path / "g.csv"
    code = main(["perturb", "--in", str(features_csv), "--mode", "realistic",
                 "--nu", "2", "--seed", "7", "--out", str(shifted)])
    assert code == 0
    X = load_features_csv(features_csv).X
    Xt = load_features_csv(shifted).X
    for name in REALISTIC_UNTOUCHED_FEATURES:
        idx = FEATURE_NAMES.index(name)
        assert np.array_equal(X[:, idx], Xt[:, idx]), name
    pad_idx = FEATURE_NAMES.index("mean_len_pack")
    assert np.all(Xt[:, pad_idx] == X[:, pad_idx].max())


def test_perturb_writes_the_pinned_csv_text_with_a_transform_column(tmp_path):
    """`perturb` writes every row it read, in place, with its label, window
    index and trace id, the rows of `TransformSpec.apply` on the stacked
    matrix as `repr` floats, and the spec's key in a last `transform`
    column: three traces of unequal length, in neither id nor label order."""
    plain, noisy = tmp_path / "f.csv", tmp_path / "n.csv"
    plain.write_text(GOLDEN_FEATURES_CSV, encoding="utf-8")
    assert main(["perturb", "--in", str(plain), "--mode", "awgn", "--nu", "2.0",
                 "--seed", "4", "--out", str(noisy)]) == 0
    header, *lines = GOLDEN_FEATURES_CSV.splitlines()
    cells = [line.split(",") for line in lines]
    Xt = TransformSpec("awgn", nu=2.0).apply(np.array([c[:12] for c in cells], dtype=float), 4)
    expected = [f"{header},transform"] + [",".join([*map(repr, row), *c[12:], "awgn(nu=2.0)"])
                                          for row, c in zip(Xt.tolist(), cells)]
    assert noisy.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_perturb_mode_choices_are_the_transform_modes_but_none():
    """`perturb --mode` offers each mode of `TRANSFORM_PARAMS` but `none`,
    in that table's order: a mode added there is a choice here."""
    (perturb,) = [action.choices["perturb"] for action in _build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    (mode,) = [action for action in perturb._actions if action.dest == "mode"]
    assert mode.choices == [m for m in TRANSFORM_PARAMS if m != "none"]


@pytest.mark.parametrize("command", ["perturb", "attack"])
def test_a_negative_seed_exits_two_naming_the_flag(command, features_csv, tmp_path, capsys):
    """A seed below 0 is no transform seed and no cell seed a sweep makes."""
    out = tmp_path / "g.csv"
    argv = {"perturb": ["perturb", "--in", str(features_csv), "--mode", "awgn", "--nu", "2.0",
                        "--out", str(out)],
            "attack": ["attack", "--features", str(features_csv), "--classifier", "knn"]}
    capsys.readouterr()
    assert main([*argv[command], "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert f"tpbench {command}: --seed: seed must be an integer >= 0, got -1" in captured.err
    assert "accuracy=" not in captured.out and not out.exists()


@pytest.mark.parametrize("fraction", ["1.5", "0", "nan"])
def test_a_train_fraction_outside_zero_one_exits_two_naming_the_flag(fraction, tmp_path, capsys):
    features = tmp_path / "f.csv"
    features.write_text(GOLDEN_FEATURES_CSV, encoding="utf-8")
    capsys.readouterr()
    assert main(["attack", "--features", str(features), "--classifier", "knn",
                 "--train-fraction", fraction]) == 2
    captured = capsys.readouterr()
    assert (f"tpbench attack: --train-fraction: train_fraction must be a number in (0, 1), "
            f"got {float(fraction)!r}") in captured.err
    assert "accuracy=" not in captured.out


@pytest.mark.parametrize("kind, key, value", [
    ("tree", "max_depth", 3), ("tree", "min_leaf", 1), ("forest", "max_depth", None),
    ("forest", "min_leaf", 2), ("forest", "features_per_split", 3),
    ("forest", "seed", 7), ("mlp", "seed", 7), ("mlp", "batch_size", 32),
])
def test_attack_params_setting_a_removed_growth_knob_exits_two_naming_it(
        kind, key, value, tmp_path, capsys):
    """Trees grow to purity and forests draw ceil(sqrt(F)) features per
    split: the knobs that once changed that are unknown keys, at any value.
    So are a fit's seed, which comes from `--seed` alone, and the MLP's
    batch size."""
    features = tmp_path / "f.csv"
    features.write_text(GOLDEN_FEATURES_CSV, encoding="utf-8")
    capsys.readouterr()
    assert main(["attack", "--features", str(features), "--classifier", kind,
                 "--params", json.dumps({key: value})]) == 2
    expected = {"tree": "none", "forest": "some of ['n_trees']",
                "mlp": "some of ['epochs', 'hidden', 'learning_rate']"}[kind]
    assert (f"tpbench attack: --params: classifier '{kind}': unknown key(s) ['{key}']; "
            f"expected {expected}\n") in capsys.readouterr().err


def test_input_that_is_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xd4 is no UTF-8 lead byte here\n")
    late = tmp_path / "late.csv"  # a good header, then a bad byte
    late.write_bytes(GOLDEN_FEATURES_CSV.splitlines()[0].encode() + b"\n\xd4\n")
    marked = tmp_path / "marked.csv"  # the position counts the byte-order mark
    marked.write_bytes(b"\xef\xbb\xbf" + late.read_bytes())
    out = str(tmp_path / "o.csv")
    for argv, position in ((["sweep", "--config", str(bad)], 0),
                           (["extract", "--config", str(bad), "--burst", "200", "--out", out], 0),
                           (["attack", "--features", str(bad), "--classifier", "knn"], 0),
                           (["perturb", "--in", str(bad), "--mode", "awgn", "--out", out], 0),
                           (["attack", "--features", str(late), "--classifier", "knn"],
                            late.read_bytes().index(b"\xd4")),
                           (["attack", "--features", str(marked), "--classifier", "knn"],
                            marked.read_bytes().index(b"\xd4"))):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"tpbench {argv[0]}: {argv[2]}: 'utf-8' codec can't decode byte 0xd4 in position "
            f"{position}: "), argv


def test_a_feature_csv_field_over_the_csv_limit_exits_two_naming_the_line(tmp_path, capsys):
    header, first, *rest = GOLDEN_FEATURES_CSV.splitlines()
    cells = first.split(",")
    cells[len(FEATURE_NAMES)] = "x" * (csv.field_size_limit() + 1)  # the label
    features = tmp_path / "f.csv"
    features.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
    for argv in (["attack", "--features", str(features), "--classifier", "knn"],
                 ["perturb", "--in", str(features), "--mode", "awgn",
                  "--out", str(tmp_path / "g.csv")]):
        capsys.readouterr()
        assert main(argv) == 2
        assert (f"tpbench {argv[0]}: {features}:2: field larger than field limit "
                f"({csv.field_size_limit()})") in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_a_feature_csv_with_a_byte_order_mark_attacks_as_the_plain_file(
        features_csv, tmp_path, capsys):
    """Spreadsheet tools may start a UTF-8 CSV with EF BB BF; the mark is no
    part of the first column's name."""
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + features_csv.read_bytes())
    lines = []
    for path in (features_csv, marked):
        capsys.readouterr()
        assert main(["attack", "--features", str(path), "--classifier", "knn"]) == 0
        lines.append([line for line in capsys.readouterr().out.splitlines()
                      if "accuracy=" in line])
    assert len(lines[0]) == 1 and lines[1] == lines[0]


def test_perturb_smooth_too_short_exits_two(small_config, tmp_path, capsys):
    plain = tmp_path / "f.csv"
    assert main(["extract", "--config", str(small_config), "--burst", "900",
                 "--out", str(plain)]) == 0
    code = main(["perturb", "--in", str(plain), "--mode", "smooth",
                 "--window", "51", "--degree", "1", "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "< window 51; reduce window" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--mode", "awgn", "--nu", "2.0", "--window", "8"],
     "transform awgn: unknown key(s) ['window']"),
    (["--mode", "awgn"], "transform awgn: nu must be a finite number > 0, got 0.0"),
    (["--mode", "smooth", "--nu", "2.0"], "transform smooth: unknown key(s) ['nu']"),
])
def test_perturb_reads_its_flags_as_a_config_transform(flags, message, features_csv, tmp_path,
                                                       capsys):
    """A flag the mode does not read fails, and a flag left out takes the
    value a config's transform entry gets without it: `awgn` has no default nu."""
    out = tmp_path / "g.csv"
    assert main(["perturb", "--in", str(features_csv), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"tpbench perturb: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_perturb_has_no_clamp_counts_flag(features_csv, tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = main(["perturb", "--in", str(features_csv), "--mode", "awgn", "--nu", "2.0",
                 "--clamp-counts", "--out", str(out)])
    assert code == 1
    assert "unrecognized arguments: --clamp-counts" in capsys.readouterr().err
    assert not out.exists()


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


PCAPS = {"pcap_dir": ".", "pcap_labels": {"a.pcap": "x", "b.pcap": "y"}}


@pytest.mark.parametrize("source, message", [
    ({**PCAPS, "profiles": [{"label": "x"}, {"label": "y"}]},
     "profiles: not allowed with pcap_dir"),
    ({**PCAPS, "traces_per_class": 9, "duration": 5.0},
     "traces_per_class: not allowed with pcap_dir"),
    ({**PCAPS, "duration": 5.0}, "duration: not allowed with pcap_dir"),
    ({"scenario": "mic_onoff", "pcap_labels": PCAPS["pcap_labels"]},
     "pcap_labels: not allowed without pcap_dir"),
    ({"scenario": "mic_onoff", "timespans": [10**400]},
     "timespans[0]: timespan must be a finite number > 0, got 1000"),
])
def test_sweep_with_fields_of_the_other_source_exits_two_naming_the_field(
        source, message, tmp_path, capsys):
    for name in ("a.pcap", "b.pcap"):
        (tmp_path / name).write_bytes(b"")
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**source, "burst_sizes": [5], "classifiers": [{"kind": "knn"}]}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("transforms", 5), ("classifiers", None), ("burst_sizes", None),
])
def test_sweep_with_a_non_list_field_exits_two_naming_it(field, value, tmp_path, capsys):
    """A list field given as anything but a JSON list fails the load; null is
    no way to ask for the default."""
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"scenario": "mic_onoff", "duration": 5.0, "burst_sizes": [100],
                                "classifiers": [{"kind": "knn"}], field: value}))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"tpbench sweep: {field}: must be a list, got {value!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_extract_config_builds_its_config_once(tmp_path, monkeypatch):
    """`extract --config` windows the config it loaded under its one window
    spec: no second config is built, so each capture's file check runs once."""
    _write_pcaps(tmp_path)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**PCAPS, "classifiers": [{"kind": "knn"}]}))
    checked, is_file = [], Path.is_file
    monkeypatch.setattr(Path, "is_file", lambda self: checked.append(self.name) or is_file(self))
    monkeypatch.setenv("TPB_WORKERS", "1")
    assert main(["extract", "--config", str(path), "--burst", "5",
                 "--out", str(tmp_path / "f.csv")]) == 0
    assert checked == ["a.pcap", "b.pcap"]


@pytest.mark.parametrize("key, stem", [("./a.pcap", "a.pcap"), ("sub/a.pcap", "sub/a.pcap")],
                         ids=["listed twice", "one trace id"])
def test_captures_of_one_trace_id_exit_two_naming_both_entries(key, stem, tmp_path, capsys):
    """A capture listed a second time (`./a.pcap` is `a.pcap`), or another
    capture of the same file stem, would give two traces one id: `sweep` and
    `extract --config` exit 2 naming both entries by path, and write nothing."""
    _write_pcaps(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.pcap").write_bytes((tmp_path / "b.pcap").read_bytes())
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"pcap_dir": ".", "burst_sizes": [5],
                                "pcap_labels": {"a.pcap": "x", "b.pcap": "y", key: "y"},
                                "classifiers": [{"kind": "knn"}]}))
    message = (f"pcap_labels[{tmp_path / stem}]: trace id 'a' duplicates "
               f"that of pcap_labels[{tmp_path / 'a.pcap'}]")
    for command in (["sweep"], ["extract", "--burst", "5", "--out", str(tmp_path / "f.csv")]):
        assert main([*command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "f.csv").exists()


def test_sweep_over_a_bad_second_capture_exits_two_naming_it(tmp_path, capsys, monkeypatch):
    """A capture decoded in a worker fails the sweep as it does serially:
    exit 2, naming the file, and no report."""
    _write_pcaps(tmp_path)
    (tmp_path / "c.pcap").write_bytes((tmp_path / "a.pcap").read_bytes())
    bad = tmp_path / "b.pcap"
    bad.write_bytes(b"garbage" + bad.read_bytes()[7:])
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"pcap_dir": ".", "burst_sizes": [5],
                                "pcap_labels": {"a.pcap": "x", "b.pcap": "y", "c.pcap": "y"},
                                "classifiers": [{"kind": "knn"}]}))
    monkeypatch.setenv("TPB_WORKERS", "2")
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"tpbench sweep: {bad}: bad pcap magic" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_over_pcaps_names_the_run_by_its_scenario(tmp_path, monkeypatch):
    """`sweep.csv`'s scenario column is the config's `scenario` ("custom" when
    left out), which with `pcap_dir` only names the run."""
    for name, protocol, window in (("a.pcap", Protocol.TCP, 100), ("b.pcap", Protocol.UDP, 0)):
        frame = ipv4_frame(protocol, 1, 2, 80, 81, tcp_window=window)
        (tmp_path / name).write_bytes(build_pcap([(i * 0.25, frame) for i in range(40)]))
    monkeypatch.setenv("TPB_WORKERS", "1")
    path = tmp_path / "exp.json"
    for out, named, scenario in (("a", {"scenario": "lab_capture"}, "lab_capture"),
                                 ("b", {}, "custom")):
        path.write_text(json.dumps({**PCAPS, **named, "burst_sizes": [5], "output_dir": out,
                                    "classifiers": [{"kind": "knn", "k": 1}]}))
        assert main(["sweep", "--config", str(path)]) == 0
        with open(tmp_path / out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["status"], row["scenario"]) for row in rows] == [("ok", scenario)]


def test_attack_prints_the_accuracy_of_its_one_fit(features_csv, capsys, monkeypatch):
    """`attack` fits once, and prints what `evaluate` gives for the model of
    the cell's split and train seeds."""
    fits = []
    real_train = attackers.train
    monkeypatch.setattr(attackers, "train", lambda *a, **k: fits.append(a[0]) or real_train(*a, **k))
    capsys.readouterr()
    code = main(["attack", "--features", str(features_csv), "--classifier", "tree"])
    assert code == 0
    assert fits == ["tree"]
    table = load_features_csv(features_csv)
    X, y = table.X, table.labels
    split_seed, train_seed = cell_seeds(0)
    train_idx, test_idx = attackers.split(y, 0.7, split_seed)
    model = attackers.train("tree", X[train_idx], y[train_idx])
    accuracy = attackers.evaluate(model, X[test_idx], y[test_idx])
    assert f"accuracy={accuracy!r} " in capsys.readouterr().out


def test_attack_has_no_save_model_flag(features_csv, tmp_path, capsys):
    model_path = tmp_path / "m.json"
    code = main(["attack", "--features", str(features_csv), "--classifier", "tree",
                 "--save-model", str(model_path)])
    assert code == 1
    assert "--save-model" in capsys.readouterr().err
    assert not model_path.exists()
