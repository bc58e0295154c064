"""One measured run in a fresh process, started by run.py.

Usage: python3 perfbench/worker.py PARAMS_JSON

PARAMS_JSON names the workload, seed, seconds, trace flag, the work directory
holding the inputs, and the file the measurements are written to. run.py sets
PYTHONPATH to the checkout's ``src`` and BLAS/OpenMP threads to 1.

Batches run back to back until ``seconds`` have passed (at least two). In a
traced run, batches alternate untraced and traced, so the two rates give the
tracing overhead under the same conditions.

Between batches the worker times a fixed reference kernel (interpreter and
numpy work, about 6 ms). The CPU speed of a small shared VM can change by a
factor of two from one minute to the next; a unit's time divided by the
kernel's time measured next to it does not, so the bounded end-to-end
latencies are expressed in multiples of that kernel ("ref").
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

PINS = Path(__file__).resolve().parent / "pins.json"
REF_SAMPLES = 3


def reference_ms(data) -> float:
    """Median wall time of a fixed mix of dict updates and 2-D histograms."""
    times = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        for _ in range(5):
            np.histogram2d(data[0], data[1], bins=9)
        times.append((time.perf_counter() - start) * 1e3)
    return sorted(times)[REF_SAMPLES // 2]


def run_batch(batch, traced: bool, pins: dict, stats, failures: list) -> dict:
    from miselect import cli

    tracer = tracing.Tracer()
    record = {"traced": traced, "units": 0, "failed": 0, "wall_s": 0.0, "unit_ms": []}
    sizes = []
    with tracing.patched(tracing.hooks(tracer, full=traced)):
        for cmd in batch:
            record["units"] += cmd.units
            stdout = io.StringIO()
            first = len(tracer.spans)
            tracer.begin(cmd.span, unit=cmd.span != "cli.simulate")
            try:
                with contextlib.redirect_stdout(stdout):
                    status = cli.main(list(cmd.argv))
            except (Exception, SystemExit) as exc:  # a failed unit, not a failed run
                status = repr(exc)
                traceback.print_exc(file=sys.stderr)
            finally:
                tracer.end()
            command = tracer.spans[first]
            record["wall_s"] += command[2] - command[1]
            units = [(s[2] - s[1]) * 1e3
                     for i, s in enumerate(tracer.spans[first:], first) if s[4] == i]
            problem = None
            if status != 0:
                problem = f"exit status {status}"
            elif len(units) != cmd.units:
                problem = f"{len(units)} unit boundaries seen, {cmd.units} expected"
            else:
                digest, size = cmd.digest(stdout.getvalue())
                sizes.append(size)
                if digest != pins.get(cmd.key):
                    problem = "output differs from the pinned hash"
            if problem:
                record["failed"] += cmd.units
                failures.append(f"{cmd.key}: {problem}")
                print(f"perfbench: FAILED {cmd.key}: {problem}", file=sys.stderr)
            else:
                record["unit_ms"] += units
    if traced:
        stats.add(tracer, sizes)
    return record


def main(argv: list[str]) -> int:
    params = json.loads(Path(argv[1]).read_text())
    pins = json.loads(PINS.read_text())
    stream = workloads.batches(params["workload"], params["seed"], Path(params["work"]))
    stats = tracing.LayerStats()
    records: list[dict] = []
    failures: list[str] = []
    data = np.random.default_rng(0).random((2, 5000))
    ref = reference_ms(data)
    start = time.perf_counter()
    while len(records) < 2 or time.perf_counter() - start < params["seconds"]:
        traced = bool(params["trace"]) and len(records) % 2 == 1
        record = run_batch(next(stream), traced, pins, stats, failures)
        after = reference_ms(data)
        record["ref_ms"] = (ref + after) / 2
        ref = after
        records.append(record)
    result = {
        "batches": records,
        "failures": failures[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": stats.metrics() if params["trace"] else {},
    }
    Path(params["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
