"""The benchmark's pinned outputs, replayed through ``cli.main``.

``perfbench/pins.json`` holds the sha256 of each pooled command's output.
This replays the 56 reference ``order --trace`` rows and pool entry 0 of
both simulate workloads, building the commands with ``perfbench/workloads.py``,
so a change that moves an objective, a trace TSV, a CSV or a traces JSON
fails here too.  It only reads ``perfbench/``.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

from miselect import cli

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
    assert len(commands) == 58

    mismatched = []
    for cmd in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(list(cmd.argv)) == 0, cmd.key
        if cmd.digest(stdout.getvalue())[0] != pins[cmd.key]:
            mismatched.append(cmd.key)
    assert mismatched == []
