"""The benchmark's pinned outputs, replayed through ``cli.main``.

``perfbench/pins.json`` holds the sha256 of each pooled command's output.
This replays the 56 reference ``order --trace`` rows, pool entry 0 of
both simulate workloads and the 8 ``relevance`` reports on the scaled grid
joints, building the commands and inputs with ``perfbench/workloads.py``,
so a change that moves an objective, a trace TSV, a CSV, a traces JSON or
a relevance report fails here too.  It only reads ``perfbench/``.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

from miselect import cli
from miselect.oracle import Scenario, ScenarioSpec
from miselect.relevance import grid_scenario_joint

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_pinned_commands_reproduce_their_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    workloads = importlib.import_module("workloads")
    pins = json.loads((PERFBENCH / "pins.json").read_text())

    commands = [workloads.order_command(key, argv, tmp_path)
                for key, argv in workloads.order_rows()]
    for workload in workloads.SIMS:
        work = tmp_path / workload
        work.mkdir()
        (work / "sim-0.cfg").write_text(workloads.sim_config(workload, 0))
        commands.append(workloads.sim_command(workload, 0, work))
    joints = [workloads.grid_joint_json(scale) for scale in workloads.GRID_SCALES]
    # as pin.py checks: at scale 1 the benchmark's input is the package's document
    expected = grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.2)).to_json()
    assert joints[workloads.GRID_SCALES.index(1.0)] == expected
    for index, text in enumerate(joints):
        (tmp_path / f"joint-{index}.json").write_text(text)
        commands.append(workloads.relevance_command(index, tmp_path))
    assert len(commands) == 66

    mismatched = []
    for cmd in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(list(cmd.argv)) == 0, cmd.key
        if cmd.digest(stdout.getvalue())[0] != pins[cmd.key]:
            mismatched.append(cmd.key)
    assert mismatched == []

