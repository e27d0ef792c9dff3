"""Command-line pipeline: extract, perturb, attack, sweep.

Exit codes: 0 success, 1 usage error, 2 data error. The stages share the
feature-CSV interchange format, which holds one window table (a
`features.WindowTable`, stacked from `extract_series`' one-trace tables),
so a sweep cell can be rerun by chaining `extract --config` / `perturb` /
`attack` with the seeds the README names:
`extract --config` writes the table the sweep builds for its window spec,
with the sweep's own code, `harness.source_series`, on the sweep's worker
pool (`extract --pcap` makes its two calls for one capture, `load_pcap`
and `extract_series`); `perturb` transforms the table's `X`, as the sweep
does, and `attack` encodes and checks its labels once by
`attackers.class_codes`, splits the codes by `attackers.split` and scores
them by `harness.score_cell`.
The invariant checks live in the test suite: `pytest tests/test_acceptance.py`
runs one check per acceptance criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from tpbench import attackers
from tpbench.adversarial import TRANSFORM_PARAMS
from tpbench.features import WindowSpec, extract_series, load_features_csv, save_features_csv
from tpbench.harness import (
    ClassifierSpec,
    ExperimentConfig,
    cell_seeds,
    emit_report,
    fit_cell,
    load_config,
    read_transform,
    run_experiment,
    score_cell,
    source_series,
)
from tpbench.pcap import load_pcap
from tpbench.rules import FRACTION, SEED, check, named

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tpbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", help="a sweep config's traces or a pcap file -> feature CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pcap", help="single classic pcap file")
    src.add_argument("--config", help="sweep config whose traces to extract, on the sweep's "
                     "path: captures decoded and profiles drawn in its workers")
    p.add_argument("--label", help="class label for --pcap input")
    win = p.add_mutually_exclusive_group(required=True)
    win.add_argument("--burst", type=int, help="burst window size in packets")
    win.add_argument("--timespan", type=float, help="time window in seconds")
    p.add_argument("--out", required=True)

    p = sub.add_parser("perturb", help="apply a defense transform to a feature CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", required=True, choices=[m for m in TRANSFORM_PARAMS if m != "none"])
    p.add_argument("--window", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--nu", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("attack", help="train one classifier on a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--classifier", required=True, choices=list(attackers.CLASSIFIER_KINDS))
    p.add_argument("--params", default="{}", help="hyperparameters as a JSON object")
    p.add_argument("--train-fraction", type=float, default=ExperimentConfig.train_fraction)
    p.add_argument("--seed", type=int, default=0,
                   help="cell seed; split/training seeds are derived from it")

    p = sub.add_parser("sweep", help="run the full experiment grid from a config")
    p.add_argument("--config", required=True)
    return parser


def _cmd_extract(args) -> int:
    if args.burst is not None:
        spec = WindowSpec.burst(args.burst)
    else:
        spec = WindowSpec.time_span(args.timespan)
    if args.pcap is not None:
        if not args.label:
            raise ValueError("--label is required with --pcap")
        table = extract_series(load_pcap(args.pcap, args.label), spec)
    elif args.label is not None:  # a config labels its own traces
        raise ValueError("--label is only for --pcap input, not --config")
    else:
        # the sweep's traces and windows, without the traces it drops
        (table,) = source_series(load_config(args.config), [spec])
    if not table.trace_ids:
        raise ValueError(f"{args.pcap or args.config}: no trace gives a window with >= 2 "
                         f"packets under {spec.key()}")
    save_features_csv(table, args.out)
    print(f"wrote {len(table)} windows from {len(table.trace_ids)} traces to {args.out}")
    return 0


def _cmd_perturb(args) -> int:
    table = load_features_csv(args.infile)
    # the flags given, read as a config's transform entry: same defaults and rules
    flags = ("mode", "window", "degree", "nu")
    tspec = read_transform({k: getattr(args, k) for k in flags if getattr(args, k) is not None})
    # the whole stacked matrix, as the sweep transforms it
    table = replace(table, X=tspec.apply(table.X, args.seed))
    save_features_csv(table, args.out, transform=tspec.key())
    print(f"wrote {len(table)} transformed windows to {args.out}")
    return 0


def _cmd_attack(args) -> int:
    with named("--params"):
        params = json.loads(args.params)
        if not isinstance(params, dict):
            raise ValueError(f"expected a JSON object, got {args.params!r}")
        clf = ClassifierSpec(args.classifier, params)
    table = load_features_csv(args.features)
    codes = attackers.class_codes(table.labels)[1]  # as the sweep encodes and checks them
    train_idx, test_idx = attackers.split(codes, args.train_fraction, cell_seeds(args.seed)[0])
    votes = fit_cell(table.X, codes, clf, train_idx, test_idx, args.seed)
    accuracy = score_cell([votes], codes[test_idx])
    print(
        f"classifier={args.classifier} accuracy={accuracy!r} "
        f"n_train={train_idx.size} n_test={test_idx.size}"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    paths = emit_report(report, config.output_dir)
    ok = len(report.ok_rows())
    skipped = len(report.skipped_rows())
    print(f"wrote {paths[0]} ({ok} cells, {skipped} skipped)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (1) or --help (0)
        return int(exc.code or 0)
    handlers = {
        "extract": _cmd_extract,
        "perturb": _cmd_perturb,
        "attack": _cmd_attack,
        "sweep": _cmd_sweep,
    }
    try:
        if "seed" in args:  # perturb's transform seed, attack's cell seed
            with named("--seed"):
                check(args.seed, SEED, "seed")
        if "train_fraction" in args:
            with named("--train-fraction"):
                check(args.train_fraction, FRACTION, "train_fraction")
        return handlers[args.command](args)
    except (ValueError, OSError, attackers.TrainingDivergedError) as exc:
        print(f"tpbench {args.command}: {exc}", file=sys.stderr)
        return DATA_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
