"""The benchmark's four workloads: inputs made from a seed, and the commands run on them.

Every workload drives ``miselect.cli.main`` in-process, one command at a time
(a closed loop with one caller). A batch is the group of commands whose wall
time gives one ``units_per_ref`` sample:

* ``sim-acceptance`` / ``sim-smalln``: one ``simulate`` command; its units are
  the replicates it runs.
* ``oracle-orders``: one pass over the 56 reference ordering rows; each
  ``order`` command is one unit.
* ``relevance-grid``: one ``relevance`` command, which is one unit.

Inputs come from fixed pools whose outputs are pinned in ``pins.json``; the
seed picks the order in which a run walks its pool, so the same seed gives
the same inputs and every command's output can be checked.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

SIM_POOL = 64
SIM_SEED_BASE = 20250808  # pool entry 0 is the seed of configs/acceptance.cfg
SIM_REPLICATES = 10  # per slope, so 20 replicates per simulate command
SIMS = {
    "sim-acceptance": {
        "scenario": "I",
        "n": 5000,
        "methods": "mifs:1, mrmr, maxmifs, mifs:0, mifsu:0, nmifs",
    },
    "sim-smalln": {
        "scenario": "II",
        "n": 200,
        "methods": "mifs:1,mifsu:1,mrmr,mmifsu,micc,qmifs,nmifs,maxmifs",
    },
}
SLOPES = (0.2, 0.8)

# The 56 rows of miselect.reference.ORDERING_TABLE: 2 scenarios x 2 slopes x
# (MIFS and MIFS-U at four betas each, plus the six beta-free criteria).
BETAS = (0.0, 0.4, 0.7, 1.0)
BETA_FREE = ("mrmr", "mmifsu", "micc", "qmifs", "nmifs", "maxmifs")

# Power-of-two scales of the default driver grid: every product and
# difference scales exactly, so each joint has the same atoms and support
# sizes as grid_scenario_joint(I, 0.2) and the same relevance structure.
GRID = (-0.9, -0.1, 0.1, 0.9)
GRID_SCALES = (1.0, 0.5, 2.0, 0.25, 4.0, 0.125, 8.0, 0.0625)
RELEVANCE_FILES = 2  # joints written per run; further reports cycle over them

WORKLOADS = ("sim-acceptance", "sim-smalln", "oracle-orders", "relevance-grid")


@dataclass(frozen=True)
class Command:
    """One ``miselect`` invocation and the outputs its digest covers."""

    key: str  # entry in pins.json
    argv: tuple[str, ...]
    span: str  # cli.simulate, cli.order or cli.relevance
    units: int
    files: tuple[str, ...]  # output files hashed after the command
    stdout_pinned: bool  # simulate's stdout carries its run time, so it is not

    def digest(self, stdout: str) -> tuple[str, int]:
        """sha256 over the pinned outputs, and their size in bytes."""
        h = hashlib.sha256()
        size = 0
        parts = [stdout.encode()] if self.stdout_pinned else []
        parts += [Path(p).read_bytes() for p in self.files]
        for data in parts:
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
            size += len(data)
        return h.hexdigest(), size


def pool_order(seed: int, size: int) -> list[int]:
    return random.Random(seed).sample(range(size), size)


def sim_config(workload: str, index: int) -> str:
    sim = SIMS[workload]
    return (
        f"scenario = {sim['scenario']}\n"
        f"k = {', '.join(format(k, 'g') for k in SLOPES)}\n"
        f"n = {sim['n']}\n"
        f"methods = {sim['methods']}\n"
        f"replicates = {SIM_REPLICATES}\n"
        f"seed = {SIM_SEED_BASE + index}\n"
    )


def sim_command(workload: str, index: int, work: Path) -> Command:
    csv, traces = str(work / "out.csv"), str(work / "traces.json")
    argv = ("simulate", "--config", str(work / f"sim-{index}.cfg"),
            "--out", csv, "--traces", traces)
    return Command(f"{workload}/{index}", argv, "cli.simulate",
                   SIM_REPLICATES * len(SLOPES), (csv, traces), False)


def order_rows() -> list[tuple[str, tuple[str, ...]]]:
    """(pin key, argv without --trace) for each reference ordering row."""
    rows = []
    for scenario in ("I", "II"):
        for k in SLOPES:
            methods = [(m, b) for m in ("mifs", "mifsu") for b in BETAS]
            methods += [(m, None) for m in BETA_FREE]
            for method, beta in methods:
                argv = ("order", "--scenario", scenario, "--k", format(k, "g"),
                        "--method", method)
                label = method
                if beta is not None:
                    argv += ("--beta", format(beta, "g"))
                    label += f":{beta:g}"
                rows.append((f"oracle-orders/{scenario}/{k:g}/{label}", argv))
    return rows


def order_command(key: str, argv: tuple[str, ...], work: Path) -> Command:
    tsv = str(work / "trace.tsv")
    return Command(key, argv + ("--trace", tsv), "cli.order", 1, (tsv,), True)


def relevance_command(index: int, work: Path) -> Command:
    argv = ("relevance", "--joint", str(work / f"joint-{index}.json"))
    return Command(f"relevance-grid/{index}", argv, "cli.relevance", 1, (), True)


def grid_joint_json(scale: float) -> str:
    """JSON of the uniform-scenario grid joint at k = 0.2, grid scaled by ``scale``.

    Built here rather than by the package, so the input does not change when
    the package does. At scale 1 it is byte-identical to
    ``grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.2)).to_json()``
    (checked by pin.py): features X, 3X+1, Y^2, X-Y, Z, Z^2, Y, X^2, W+2, Z+W
    and the class 1{X + 0.2Y >= 0}, each atom of the driver grid with equal mass.
    """
    import numpy as np

    g = np.asarray(GRID) * scale
    x, y, z, w = (v.ravel() for v in np.meshgrid(g, g, g, g, indexing="ij"))
    columns = [x, 3.0 * x + 1.0, y * y, x - y, z, z * z, y, x * x, w + 2.0, z + w,
               (x + 0.2 * y >= 0.0).astype(float)]
    supports = [np.unique(c) for c in columns]
    probs = np.zeros([len(s) for s in supports])
    coded = tuple(np.searchsorted(s, c) for s, c in zip(supports, columns))
    np.add.at(probs, coded, np.full(x.size, 1.0 / x.size))
    return json.dumps({"arities": list(probs.shape), "probs": probs.ravel().tolist(),
                       "class_index": len(columns) - 1})


def prepare(workload: str, seed: int, work: Path) -> None:
    """Write the run's input files into ``work``; not part of any timing."""
    if workload in SIMS:
        for index in range(SIM_POOL):
            (work / f"sim-{index}.cfg").write_text(sim_config(workload, index))
    elif workload == "relevance-grid":
        for index in pool_order(seed, len(GRID_SCALES))[:RELEVANCE_FILES]:
            (work / f"joint-{index}.json").write_text(grid_joint_json(GRID_SCALES[index]))


def batches(workload: str, seed: int, work: Path):
    """Endless stream of batches (lists of commands) for one run."""
    if workload in SIMS:
        order = pool_order(seed, SIM_POOL)
        while True:
            for index in order:
                yield [sim_command(workload, index, work)]
    elif workload == "oracle-orders":
        rows = [order_command(key, argv, work) for key, argv in order_rows()]
        rng = random.Random(seed)
        while True:
            rng.shuffle(rows)
            yield list(rows)
    elif workload == "relevance-grid":
        order = pool_order(seed, len(GRID_SCALES))[:RELEVANCE_FILES]
        while True:
            for index in order:
                yield [relevance_command(index, work)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
