"""One sweep in a fresh interpreter, optionally traced layer by layer.

    python3 sweepbench/sweep.py CONFIG OUT_DIR RESULT_JSON [--trace] [--setup-only]

Runs `harness.load_config` -> `harness.run_experiment` ->
`harness.emit_report` through the public API and writes its timings to
RESULT_JSON. `setup_end` is a CLOCK_MONOTONIC reading, which the parent
compares with the moment it started this interpreter. With `--trace`, the
entry points the harness calls into each module are wrapped for the length of
the sweep and restored afterwards; see `Tracer`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path


def _layer_hooks():
    """(owner, attribute, span name of a call, count of a call) for every
    public entry point the harness calls into a layer module."""
    from tpbench import attackers, harness

    def arg(args, kwargs, index, name):
        return args[index] if len(args) > index else kwargs[name]

    return [
        (harness, "generate_dataset", lambda a, k: "traffic.generate",
         lambda a, k, r: {"traffic.packets": sum(len(t.packets) for t in r)}),
        (harness, "load_pcap", lambda a, k: "pcap.load",
         lambda a, k, r: {"pcap.packets": len(r.packets),
                          "pcap.bytes": Path(arg(a, k, 0, "path")).stat().st_size}),
        (harness, "extract_series", lambda a, k: "features.extract",
         lambda a, k, r: {"features.extract_calls": 1, "features.windows": len(r),
                          "features.dropped_windows": r.dropped_windows}),
        (harness, "stack_series", lambda a, k: "features.stack", None),
        (harness.TransformSpec, "apply", lambda a, k: f"adversarial.{a[0].mode}",
         lambda a, k, r: {"adversarial.calls": 1}),
        (attackers, "split", lambda a, k: "attackers.split", None),
        (attackers, "train", lambda a, k: f"attackers.{arg(a, k, 0, 'kind')}.fit",
         lambda a, k, r: {f"attackers.{r.kind}.cells": 1,
                          f"attackers.{r.kind}.fit_rows": len(arg(a, k, 1, "X"))}),
        (attackers, "evaluate", lambda a, k: f"attackers.{arg(a, k, 0, 'model').kind}.predict",
         None),
        (harness, "emit_report", lambda a, k: "harness.emit", None),
    ]


class Tracer:
    """Wraps the layer entry points while active; restores them on exit.

    Spans are (name, start, end) perf_counter readings kept in memory. Counts
    are summed per name. The wrappers do not nest, so with one worker the
    spans never overlap.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name(args, kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans.append((name, start, time.perf_counter()))
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def __enter__(self):
        for owner, attr, span_name, count in _layer_hooks():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def run_sweep(config, out_dir, trace: bool) -> dict:
    """Run and emit one loaded config into `out_dir`, traced or not."""
    from tpbench import harness

    tracer = Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        report = harness.run_experiment(config)
        harness.emit_report(report, out_dir)
        sweep_s = time.perf_counter() - start
    worker_count = getattr(harness, "_worker_count", None)
    result = {
        "sweep_s": sweep_s,
        "cells": len(report.rows),
        "ok_cells": len(report.ok_rows()),
        "workers": worker_count() if worker_count else None,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    return result


def main(argv: list[str]) -> int:
    config_path, out_dir, result_path = argv[:3]
    flags = set(argv[3:])
    from tpbench import harness

    config = harness.load_config(config_path)
    result = {"setup_end": time.monotonic()}
    if "--setup-only" not in flags:
        result.update(run_sweep(config, out_dir, "--trace" in flags))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
