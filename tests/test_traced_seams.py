"""The benchmark's traced seams, replayed through ``cli.main``.

``perfbench/tracing.py`` replaces module and class attributes of the package
with wrappers that time each layer and count its calls.  A traced batch that
no longer binds (a renamed seam, a changed call count) breaks the per-layer
metrics without failing any pinned output, so this runs the benchmark's
commands under ``tracing.hooks(tracer, full=True)``, as the worker does, and
checks the exact counts the tracer reports: the 56 reference ``order`` rows,
pool entry 0 of each simulate workload, and the relevance report on the
scale-1 grid joint.  It builds the commands with ``perfbench/workloads.py``
and only reads ``perfbench/``.
"""

import contextlib
import importlib
import io
import sys
import types
from pathlib import Path

import pytest

from miselect import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    return types.SimpleNamespace(tracing=importlib.import_module("tracing"),
                                 workloads=importlib.import_module("workloads"))


def traced(perfbench, commands):
    """Run ``commands`` in one traced batch; the counts ``LayerStats`` gathers from it."""
    tracing = perfbench.tracing
    tracer = tracing.Tracer()
    with tracing.patched(tracing.hooks(tracer, full=True)):
        for cmd in commands:
            first = len(tracer.spans)
            tracer.begin(cmd.span, unit=cmd.span != "cli.simulate")  # as worker.py does
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(list(cmd.argv)) == 0, cmd.key
            finally:
                tracer.end()
            units = [i for i, s in enumerate(tracer.spans[first:], first) if s[4] == i]
            assert len(units) == cmd.units, cmd.key
    stats = tracing.LayerStats()
    stats.add(tracer, [])
    return stats.counts


def test_order_rows_keep_their_traced_counts(perfbench, tmp_path):
    workloads = perfbench.workloads
    rows = [workloads.order_command(key, argv, tmp_path) for key, argv in workloads.order_rows()]
    assert len(rows) == 56
    c = traced(perfbench, rows)
    assert c["cli.order.units"] == c["selection.calls"] == 56
    assert c["selection.table_queries"] == 120 * 56
    assert c["selection.objective_evals"] == 2722
    assert {kind: c["selection.indet." + kind] for kind in (
        "zero_times_inf", "inf_minus_inf", "zero_over_zero", "inf_over_inf")} == {
        "zero_times_inf": 420, "inf_minus_inf": 18, "zero_over_zero": 158, "inf_over_inf": 0}
    assert c["selection.halts.all_selected"] == 22
    assert c["selection.halts.no_admissible_candidate"] == 34


@pytest.mark.parametrize("workload", ["sim-acceptance", "sim-smalln"])
def test_simulate_keeps_its_traced_counts(perfbench, tmp_path, workload):
    workloads = perfbench.workloads
    (tmp_path / "sim-0.cfg").write_text(workloads.sim_config(workload, 0))
    cmd = workloads.sim_command(workload, 0, tmp_path)
    methods = len(workloads.SIMS[workload]["methods"].split(","))
    c = traced(perfbench, [cmd])
    assert c["simlab.replicates"] == c["simlab.replicate.units"] == cmd.units == 20
    assert c["simlab.degenerate"] == 0
    assert [c[f"estimation.{name}.ms.calls"] / 20 for name in (
        "entropy", "class_mi", "pairwise_mi")] == [10, 10, 45]
    assert c["selection.calls"] == 20 * methods
    assert c["selection.table_queries"] == 120 * c["selection.calls"]


def test_relevance_report_keeps_its_traced_counts(perfbench, tmp_path):
    workloads = perfbench.workloads
    index = workloads.GRID_SCALES.index(1.0)
    (tmp_path / f"joint-{index}.json").write_text(workloads.grid_joint_json(1.0))
    c = traced(perfbench, [workloads.relevance_command(index, tmp_path)])
    assert c["cli.relevance.units"] == 1
    assert (c["relevance.classify_feature.calls"], c["relevance.classify_feature.distinct"],
            c["relevance.is_maximally_informative.calls"],
            c["relevance.has_markov_blanket.calls"]) == (20, 10, 56, 34)
