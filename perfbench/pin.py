"""Write perfbench/pins.json: the sha256 of every pooled command's output.

Usage (from the root of a checkout): PYTHONPATH=src python3 perfbench/pin.py

Run it only on a commit whose answers are the reference. It runs each pool
entry once, untraced, and records the digest run.py later compares against.
It also checks that the benchmark's own grid-joint generator reproduces
``grid_scenario_joint`` of the package byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads

PINS = Path(__file__).resolve().parent / "pins.json"


def digest(cmd: workloads.Command) -> str:
    from miselect import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main(list(cmd.argv))
    if status != 0:
        raise RuntimeError(f"{cmd.key}: exit status {status}")
    return cmd.digest(stdout.getvalue())[0]


def pooled_commands(work: Path):
    """(command, input file name or None, function making that input) for every pin."""
    for key, argv in workloads.order_rows():
        yield workloads.order_command(key, argv, work), None, None
    for workload in workloads.SIMS:
        for index in range(workloads.SIM_POOL):
            yield (workloads.sim_command(workload, index, work), f"sim-{index}.cfg",
                   lambda w=workload, i=index: workloads.sim_config(w, i))
    for index, scale in enumerate(workloads.GRID_SCALES):
        yield (workloads.relevance_command(index, work), f"joint-{index}.json",
               lambda s=scale: workloads.grid_joint_json(s))


def main() -> int:
    from miselect.oracle import Scenario, ScenarioSpec
    from miselect.relevance import grid_scenario_joint

    expected = grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.2)).to_json()
    if workloads.grid_joint_json(1.0) != expected:
        print("pin: grid_joint_json(1.0) differs from grid_scenario_joint", file=sys.stderr)
        return 1
    pins = {}
    with tempfile.TemporaryDirectory(dir=PINS.parent.parent) as tmp:
        work = Path(tmp)
        for cmd, name, make_input in pooled_commands(work):
            if name:
                (work / name).write_text(make_input())
            pins[cmd.key] = digest(cmd)
            print(cmd.key, pins[cmd.key], file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
