"""miselect benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs under ``.perfbench_work/``, measures set-up time
in fresh interpreters, then runs the workload in one fresh worker process for
S seconds, checking every command's output against ``perfbench/pins.json``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The line before it is
a report with sample counts, the failed ratio and the machine. The exit status
is 1 if any unit failed, 2 if the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_SAMPLES = 5  # after one uncounted start that writes the bytecode caches
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0
READY = "import miselect.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(env: dict[str, str]) -> list[float]:
    """Fresh interpreter until miselect.cli is imported and a unit could start."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError("cannot import miselect.cli")
        times.append(elapsed)
    return times[1:]


def import_ms(env: dict[str, str]) -> tuple[float, float]:
    """Median (total, scipy share) of ``import miselect.cli`` from -X importtime."""
    totals, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import miselect.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        total, share = parse_importtime(proc.stderr)
        totals.append(total)
        scipy.append(share)
    return statistics.median(totals), statistics.median(scipy)


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative ms of the miselect imports, and of the outermost scipy imports in them.

    Lines come children first; a line's children are the deeper lines
    printed since the previous line at its own depth.
    """
    total = scipy = 0.0
    pending: list[tuple[int, str, float]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        ms = int(cumulative) / 1e3
        while pending and pending[-1][0] > depth:
            _, child, child_ms = pending.pop()
            if child.split(".")[0] == "scipy" and name.split(".")[0] != "scipy":
                scipy += child_ms
        pending.append((depth, name, ms))
        if depth == 0 and name.split(".")[0] == "miselect":
            total += ms
    return total, scipy


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "source_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "miselect").glob("*.py")))).hexdigest(),
        "commit": git_commit(),
    }
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = None
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    for cache in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (cache / "level").read_text().strip()
            kind = (cache / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                info[f"L{level}"] = (cache / "size").read_text().strip()
        except OSError:
            pass
    return info


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(result: dict, setup: list[float]) -> dict:
    """Every end-to-end metric as (value, unit, samples).

    The ``ref`` metrics divide each unit's time by the reference kernel timed
    next to it (see worker.py); BENCHMARK.json bounds those, because the raw
    times, reported here too, drift with the VM's CPU speed.
    """
    ok = [b for b in result["batches"] if not b["failed"]]
    latencies = [ms for b in ok for ms in b["unit_ms"]]
    ratios = [ms / b["ref_ms"] for b in ok for ms in b["unit_ms"]]

    def p95(values: list[float]) -> float:
        return statistics.quantiles(values, n=100, method="inclusive")[94]

    return {
        "unit_p50_ref": (statistics.median(ratios), "ref", len(ratios)),
        "unit_p95_ref": (p95(ratios), "ref", len(ratios)),
        "units_per_ref": (statistics.median(b["units"] * b["ref_ms"] / (b["wall_s"] * 1e3)
                                            for b in ok), "1/ref", len(ok)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MiB", 1),
        "units_per_s": (statistics.median(b["units"] / b["wall_s"] for b in ok), "1/s", len(ok)),
        "unit_ms_p50": (statistics.median(latencies), "ms", len(latencies)),
        "unit_ms_p95": (p95(latencies), "ms", len(latencies)),
        "ref_ms": (statistics.median(b["ref_ms"] for b in ok), "ms", len(ok)),
    }


def per_layer(result: dict, imports: tuple[float, float]) -> dict:
    values = dict(result["layers"])
    values["cli.import_ms"], values["cli.import_ms.scipy"] = imports
    for traced in (True, False):
        rates = [b["units"] / b["wall_s"] for b in result["batches"]
                 if b["traced"] is traced and not b["failed"]]
        name = "trace.units_per_s." + ("traced" if traced else "untraced")
        values[name] = statistics.median(rates) if rates else 0.0
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "miselect" / "cli.py").is_file():
        print(f"perfbench: no miselect sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = declared["per_layer" if args.trace else "end_to_end"]

    started = time.perf_counter()
    os.environ.update(THREADS)  # before numpy is imported to write the inputs
    env = child_env()
    load_start = os.getloadavg()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    params = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "work": str(work), "result": str(work / "result.json")}
    try:
        workloads.prepare(args.workload, args.seed, work)
        (work / "params.json").write_text(json.dumps(params))
        setup = [] if args.trace else setup_seconds(env)
        imports = import_ms(env) if args.trace else None
        worker = [sys.executable, str(Path(__file__).with_name("worker.py")),
                  str(work / "params.json")]
        subprocess.run(worker, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(b["units"] for b in result["batches"])
    failed = sum(b["failed"] for b in result["batches"])
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
              "batches": len(result["batches"]), "failures": result["failures"],
              "machine": machine(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
              "thread_env": THREADS}
    metrics = {}
    if failed == 0:
        if args.trace:
            values = per_layer(result, imports)
            report["trace_overhead"] = (values["trace.units_per_s.untraced"]
                                        / values["trace.units_per_s.traced"] - 1.0)
        else:
            measured = end_to_end(result, setup)
            report["end_to_end"] = {name: {"value": v, "unit": u, "samples": n}
                                    for name, (v, u, n) in measured.items()}
            values = {name: v for name, (v, _, _) in measured.items()}
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in names}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
