"""Sweep benchmark for tpbench: wall time of whole sweeps, and where it goes.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the checkout that holds this file, importing
tpbench from its `src/`. Each sweep runs closed-loop, one at a time, in a
fresh interpreter (`sweep.py`) through `harness.load_config` ->
`harness.run_experiment` -> `harness.emit_report`. The seed becomes the
config's master seed and the pcap fixtures, written before any timing.

--trace 0 first starts the interpreter and loads the config nine times
(`setup_s` probes), then repeats sweeps at the program's default worker count
until S seconds have passed (at least two sweeps), and reports the end-to-end
metrics as medians. --trace 1 repeats rounds of three sweeps until S seconds
have passed: a traced one at TPB_WORKERS=1, an untraced one at TPB_WORKERS=1
and an untraced one at the default, and reports per-layer metrics as
medians over rounds.

Every sweep's sweep.csv is checked: at the reference seed against
`reference/<workload>.csv`, at other seeds against the run's first sweep,
and at every seed its cells' grid coordinates against the reference. A cell
whose status is not `ok` or whose row differs counts as failed. The
last stdout line is the JSON result; the lines before it name every metric
with its unit, and the machine facts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pcapfix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 0
MIN_SWEEPS = 2
SETUP_PROBES = 9
DEADLINE_S = 170.0  # no child is started or kept alive past this
# sweep.csv columns that name a cell; they are the same at every seed
GRID_COLUMNS = ("scenario", "classifier", "classifier_params", "window_mode",
                "window_size", "transform", "transform_params")

KINDS = ("knn", "tree", "forest", "adaboost", "mlp")
MODES = ("none", "smooth", "awgn", "realistic")

END_TO_END = {
    "sweep_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_cell_ratio": "ratio",
}

PER_LAYER = {
    "traffic.generate_s": "s",
    "traffic.packets": "count",
    "traffic.packets_per_s": "1/s",
    "pcap.load_s": "s",
    "pcap.packets": "count",
    "pcap.mb_per_s": "MB/s",
    "features.extract_s": "s",
    "features.extract_calls": "count",
    "features.windows": "count",
    "features.windows_per_s": "1/s",
    "features.dropped_windows": "count",
    "features.stack_s": "s",
    **{f"adversarial.{mode}_s": "s" for mode in MODES},
    "adversarial.calls": "count",
    **{
        f"attackers.{kind}.{metric}": unit
        for kind in KINDS
        for metric, unit in (
            ("fit_s", "s"), ("predict_s", "s"), ("cells", "count"), ("fit_rows_per_s", "1/s"),
        )
    },
    "attackers.split_s": "s",
    "harness.serial_sweep_s": "s",
    "harness.self_s": "s",
    "harness.emit_s": "s",
    "harness.parallel_speedup": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

_CLASSIFIERS = {
    "knn": {"kind": "knn", "k": 5},
    "tree": {"kind": "tree"},
    "forest": {"kind": "forest", "n_trees": 100},
    "adaboost": {"kind": "adaboost", "rounds": 50},
    "mlp": {"kind": "mlp", "hidden": [64, 64], "epochs": 200},
}


def _transforms(smooth_degree: int, awgn_nu: float, realistic_nu: float) -> list[dict]:
    return [
        {"mode": "none"},
        {"mode": "smooth", "window": 51, "degree": smooth_degree},
        {"mode": "awgn", "nu": awgn_nu},
        {"mode": "realistic", "nu": realistic_nu},
    ]


# Why each workload exists, and which layers should move its end-to-end
# metrics, is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    # The shipped configs/mic_onoff_sweep.json grid with its 13 transforms cut
    # to none and smooth degree 3, so that three sweeps fit in a run:
    # 5 classifiers x 6 bursts x 2 transforms = 60 cells.
    "mic_onoff": {
        "scenario": "mic_onoff",
        "traces_per_class": 2,
        "duration": 30.0,
        "burst_sizes": [250, 500, 750, 1000, 1250, 1500],
        "transforms": [{"mode": "none"}, {"mode": "smooth", "window": 51, "degree": 3}],
        "classifiers": [_CLASSIFIERS[k] for k in KINDS],
    },
    # 8 large cells (about 1433 training rows, 3 classes) led by forest fits.
    "umt_forest": {
        "scenario": "utility_media_travel",
        "traces_per_class": 3,
        "duration": 60.0,
        "burst_sizes": [250],
        "transforms": _transforms(3, 8.0, 2.0),
        "classifiers": [_CLASSIFIERS["knn"], _CLASSIFIERS["forest"]],
    },
    # Classic pcaps through the source path and time-span windowing.
    "pcap_extract": {
        "pcap_dir": "pcaps",
        "burst_sizes": [50, 100, 250, 500],
        "timespans": [0.05, 0.1, 0.5, 1.0],
        "transforms": _transforms(1, 1.0, 2.0),
        "classifiers": [_CLASSIFIERS["knn"]],
    },
}
PCAP_TRACES_PER_CLASS = 2
PCAP_DURATION = 40.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; the message says why."""


def derived_seed(workload: str, seed: int, purpose: str) -> int:
    digest = hashlib.blake2b(f"{workload}/{seed}/{purpose}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


def write_inputs(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's config (and pcaps) for `seed` into `work`."""
    doc = dict(WORKLOADS[workload])
    doc["seed"] = derived_seed(workload, seed, "master")
    doc["train_fraction"] = 0.7
    doc["output_dir"] = "out"
    if "pcap_dir" in doc:
        doc["pcap_labels"] = pcapfix.write_fixtures(
            work / doc["pcap_dir"], derived_seed(workload, seed, "pcap"),
            PCAP_TRACES_PER_CLASS, PCAP_DURATION,
        )
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def child_env(workers: int | None) -> dict:
    """The user's environment with the checkout's src first on the path and
    TPB_WORKERS set to `workers`, or removed for the program's default."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TPB_WORKERS", None)
    if workers is not None:
        env["TPB_WORKERS"] = str(workers)
    return env


def spawn_sweep(config: Path, work: Path, tag: str, flags: list[str],
                workers: int | None, deadline: float) -> dict:
    """Run sweep.py in a fresh interpreter and wait for it.

    Adds `setup_s` (interpreter start to config loaded, both on
    CLOCK_MONOTONIC), `peak_rss_mb` (wait4's maximum resident set of the
    child and its waited-for descendants) and the sweep.csv bytes.
    """
    out_dir = work / tag
    result_path = work / f"{tag}.json"
    log_path = work / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "sweep.py"), str(config), str(out_dir),
           str(result_path), *flags]
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(workers), cwd=work,
                                stdout=log, stderr=subprocess.STDOUT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"sweep {tag} still running at the {DEADLINE_S:.0f} s deadline")
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"sweep {tag} exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_end"] - start
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if "--setup-only" not in flags:
        result["csv"] = (out_dir / "sweep.csv").read_bytes()
        shutil.rmtree(out_dir)
    return result


def parse_rows(data: bytes) -> tuple[list[str], list[list[str]]]:
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return records[0], records[1:]


def failed_cells(data: bytes, expected: bytes, reference: bytes) -> int:
    """Cells whose status is not `ok`, whose row differs from `expected`'s
    row at the same position, or whose grid coordinates differ from the
    reference row's. Rows missing or extra against the reference count as
    failed."""
    header, rows = parse_rows(data)
    expected_rows = parse_rows(expected)[1]
    reference_header, reference_rows = parse_rows(reference)
    if header != reference_header:
        return max(len(rows), len(reference_rows))
    status = header.index("status")
    grid = [header.index(column) for column in GRID_COLUMNS]
    failed = abs(len(rows) - len(reference_rows))
    for row, want, ref in zip(rows, expected_rows, reference_rows):
        if row[status] != "ok" or row != want or any(row[i] != ref[i] for i in grid):
            failed += 1
    return failed


def union_length(spans) -> float:
    """Length of the union of (name, start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for _name, start, end in sorted(spans, key=lambda s: s[1]):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(traced: dict, serial_s: float, default_s: float) -> dict:
    """Per-layer metrics of one traced sweep, given the untraced sweep times
    at one worker and at the default worker count."""
    busy: dict[str, float] = {}
    for name, start, end in traced["spans"]:
        busy[name] = busy.get(name, 0.0) + (end - start)
    counts = traced["counts"]
    wall = traced["sweep_s"]

    def s(name):
        return busy.get(name, 0.0)

    def n(name):
        return counts.get(name, 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    self_s = wall - union_length(traced["spans"])
    m = {
        "traffic.generate_s": s("traffic.generate"),
        "traffic.packets": n("traffic.packets"),
        "traffic.packets_per_s": rate(n("traffic.packets"), s("traffic.generate")),
        "pcap.load_s": s("pcap.load"),
        "pcap.packets": n("pcap.packets"),
        "pcap.mb_per_s": rate(n("pcap.bytes") / 1e6, s("pcap.load")),
        "features.extract_s": s("features.extract"),
        "features.extract_calls": n("features.extract_calls"),
        "features.windows": n("features.windows"),
        "features.windows_per_s": rate(n("features.windows"), s("features.extract")),
        "features.dropped_windows": n("features.dropped_windows"),
        "features.stack_s": s("features.stack"),
        "adversarial.calls": n("adversarial.calls"),
        "attackers.split_s": s("attackers.split"),
        "harness.serial_sweep_s": wall,
        "harness.self_s": self_s,
        "harness.emit_s": s("harness.emit"),
        "harness.parallel_speedup": serial_s / default_s,
        "trace.overhead_s": wall - serial_s,
        "trace.coverage": (sum(busy.values()) + self_s) / wall,
    }
    for mode in MODES:
        m[f"adversarial.{mode}_s"] = s(f"adversarial.{mode}")
    for kind in KINDS:
        fit_s = s(f"attackers.{kind}.fit")
        m[f"attackers.{kind}.fit_s"] = fit_s
        m[f"attackers.{kind}.predict_s"] = s(f"attackers.{kind}.predict")
        m[f"attackers.{kind}.cells"] = n(f"attackers.{kind}.cells")
        m[f"attackers.{kind}.fit_rows_per_s"] = rate(n(f"attackers.{kind}.fit_rows"), fit_s)
    return {name: m[name] for name in PER_LAYER}


def machine_facts(default_workers) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "default_workers": default_workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "TPB_WORKERS": os.environ.get("TPB_WORKERS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Checker:
    """Counts attempted and failed cells over every sweep of one run."""

    def __init__(self, workload: str, seed: int):
        path = REFERENCE_DIR / f"{workload}.csv"
        if not path.is_file():
            raise BenchError(f"reference rows missing: {path}")
        self.reference = path.read_bytes()
        self.expected = self.reference if seed == REFERENCE_SEED else None
        self.attempted = 0
        self.failed = 0

    def check(self, data: bytes) -> None:
        if self.expected is None:
            self.expected = data
        self.attempted += len(parse_rows(data)[1])
        self.failed += failed_cells(data, self.expected, self.reference)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        deadline: float) -> tuple[dict, Checker, dict]:
    config = write_inputs(workload, seed, work)
    checker = Checker(workload, seed)
    start = time.monotonic()
    sweeps = []

    def sweep(tag, workers, *flags):
        result = spawn_sweep(config, work, tag, list(flags), workers, deadline)
        checker.check(result["csv"])
        return result

    if not trace:
        setups = [spawn_sweep(config, work, f"setup{i}", ["--setup-only"], None, deadline)
                  for i in range(SETUP_PROBES)]
        while len(sweeps) < MIN_SWEEPS or time.monotonic() - start < seconds:
            sweeps.append(sweep(f"sweep{len(sweeps)}", None))
        metrics = {
            "sweep_s": statistics.median(r["sweep_s"] for r in sweeps),
            "cells_per_s": statistics.median(r["ok_cells"] / r["sweep_s"] for r in sweeps),
            "setup_s": statistics.median(r["setup_s"] for r in setups + sweeps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in sweeps),
            "ok_cell_ratio": (checker.attempted - checker.failed) / checker.attempted,
        }
    else:
        rounds = []
        while not rounds or time.monotonic() - start < seconds:
            k = len(rounds)
            traced = sweep(f"traced{k}", 1, "--trace")
            serial = sweep(f"serial{k}", 1)
            default = sweep(f"default{k}", None)
            sweeps.append(default)
            rounds.append(layer_metrics(traced, serial["sweep_s"], default["sweep_s"]))
        metrics = {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER}
    return metrics, checker, {"sweep_s": [r["sweep_s"] for r in sweeps],
                              "workers": sweeps[0]["workers"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's rows as the reference (seed {REFERENCE_SEED} only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tpbench" / "__init__.py").is_file():
        print(f"error: no tpbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != REFERENCE_SEED:
        print(f"error: references are taken at seed {REFERENCE_SEED}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so children get stopped
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".sweepbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.write_reference:
            config = write_inputs(args.workload, args.seed, work)
            result = spawn_sweep(config, work, "reference", [], None, deadline)
            REFERENCE_DIR.mkdir(exist_ok=True)
            (REFERENCE_DIR / f"{args.workload}.csv").write_bytes(result["csv"])
        metrics, checker, info = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"sweeps at default workers: " + " ".join(f"{t:.3f}" for t in info["sweep_s"]))
    print("machine " + json.dumps(machine_facts(info["workers"])))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_cell_ratio {checker.failed / checker.attempted!r} ratio "
          f"({checker.failed} of {checker.attempted} cells)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
