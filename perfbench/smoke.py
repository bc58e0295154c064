"""Smoke run of the benchmark at the smallest size: two batches per run.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Checks that
* every workload, untraced and traced, exits 0 with a correct result line
  that carries exactly the metrics of BENCHMARK.json, each with its unit;
* every per-layer metric has an entry in predictions.json, and each timed or
  counted layer reads nonzero on the workloads predicted to exercise it;
* a checkout whose program prints one altered label counts failed units and
  exits nonzero;
* a directory holding only BENCHMARK.json and perfbench/ exits nonzero
  without a result line.
Takes about a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "smoke"


def bench(root: Path, workload: str, trace: int) -> tuple[int, str]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    problems = []
    layer_names = {m["name"] for m in declared["per_layer"]}
    if layer_names != set(predictions) - {"_doc"}:
        problems.append("predictions.json and BENCHMARK.json name different per-layer metrics")

    for workload in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench(ROOT, workload, trace)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or set(result) != {"correct", "attempted", "failed", "metrics"} \
                    or not result["correct"]:
                problems.append(f"{workload} trace {trace}: exit {code}, {lines[-1:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[kind]}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics/units differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                p = predictions.get(name)
                if trace and p and p["moves"] and workload in p["on"] and not m["value"] > 0:
                    problems.append(f"{workload}: {name} reads {m['value']}")
                if not trace and not m["value"] > 0:
                    problems.append(f"{workload}: {name} reads {m['value']}")
            print(f"smoke: {workload} trace {trace}: ok", file=sys.stderr)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        altered = SCRATCH / "altered"
        copy_checkout(altered, with_src=True)
        oracle = altered / "src" / "miselect" / "oracle.py"
        text = oracle.read_text()
        if 'FeatureId.V8: "X2",' not in text:
            problems.append("the label to alter is gone from oracle.py; pick another")
        oracle.write_text(text.replace('FeatureId.V8: "X2",', 'FeatureId.V8: "XX",'))
        code, out = bench(altered, "oracle-orders", 0)
        result = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
        if code == 0 or result.get("correct") is not False or not result.get("failed"):
            problems.append(f"altered output not counted as failure: exit {code}, {result}")
        else:
            print(f"smoke: altered label: {result['failed']} of {result['attempted']} "
                  "units failed, exit nonzero", file=sys.stderr)

        bare = SCRATCH / "bare"
        copy_checkout(bare, with_src=False)
        code, out = bench(bare, "oracle-orders", 0)
        if code == 0 or out.strip():
            problems.append(f"bare directory: exit {code}, stdout {out[:200]!r}")
        else:
            print("smoke: bare directory: exit nonzero, no result", file=sys.stderr)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
