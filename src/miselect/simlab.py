"""Replicated Monte Carlo experiments over the two evaluation scenarios.

Each replicate draws a fresh sample, builds its histogram-estimate
tables, runs every configured selection method on it, and scores
whether the first two selected features form a relevance-optimal pair.
Replicate RNG streams are derived from (master seed, cell, replicate),
so results do not depend on execution order.  A run's result is one cell
per (k, n, method), which also holds its orderings when they are kept.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .estimation import DegenerateSampleError, Sample, estimated_provider
from .oracle import (
    FeatureId,
    Scenario,
    ScenarioSpec,
    class_labels,
    feature_matrix,
)
from .selection import MethodSpec, SelectionTrace, select_all

V = FeatureId
# The five relevance-optimal pairs: a class driver (or its affine copy)
# together with an independent complement.
OPTIMAL_PAIRS: frozenset[frozenset] = frozenset(
    frozenset(p)
    for p in [(V.V1, V.V7), (V.V1, V.V4), (V.V7, V.V4), (V.V2, V.V7), (V.V2, V.V4)]
)


def generate_sample(spec: ScenarioSpec, n: int, rng: np.random.Generator) -> Sample:
    """Draw the four drivers, derive the ten features and the class."""
    if spec.scenario is Scenario.UNIFORM:
        draws = rng.uniform(-spec.delta, spec.delta, size=(4, n))
    else:
        draws = rng.standard_normal(size=(4, n))
    x, y, z, w = draws
    with np.errstate(over="ignore"):  # Sample reports a feature that overflowed to inf
        features = feature_matrix(x, y, z, w, spec)
    return Sample(features, class_labels(x, y, spec))


def optimal_pair_hit(trace: SelectionTrace) -> bool:
    """Did the first two selections form a relevance-optimal pair?

    Traces that halted before two selections count as misses.
    """
    if len(trace.selected) < 2:
        return False
    return frozenset(trace.selected[:2]) in OPTIMAL_PAIRS


@dataclass(frozen=True)
class ExperimentConfig:
    """A simulation grid; ``cli.SIMULATE_SETTINGS`` holds the replicates and seed defaults."""

    scenario: Scenario
    k_values: tuple[float, ...]
    n_values: tuple[int, ...]
    methods: tuple[MethodSpec, ...]
    replicates: int
    seed: int
    delta: float = ScenarioSpec.delta
    a: float = ScenarioSpec.a
    b: float = ScenarioSpec.b
    d: float = ScenarioSpec.d

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not self.k_values or not self.n_values or not self.methods:
            raise ValueError("k, n and method grids must be nonempty")
        # a repeated value would give two cells of one (k, n, method)
        for name, grid in (("k", self.k_values), ("n", self.n_values),
                           ("method", self.methods)):
            for i, v in enumerate(grid):
                if v in grid[:i]:
                    text = v.label() if isinstance(v, MethodSpec) else f"{v:g}"
                    raise ValueError(f"{name} grid lists {text} more than once")
        for n in self.n_values:
            if n < 50:
                raise ValueError(f"sample size {n} below the supported minimum 50")
        for k in self.k_values:
            self.spec_for(k)  # raises on a bad slope, delta or a
        if self.scenario is Scenario.UNIFORM and not math.isfinite(2.0 * self.delta):
            raise ValueError(f"delta {self.delta:g}: the uniform draws span 2*delta, "
                             "which overflows")

    def spec_for(self, k: float) -> ScenarioSpec:
        return ScenarioSpec(self.scenario, k, self.delta, self.a, self.b, self.d)


@dataclass(frozen=True)
class CellResult:
    """One method's score at one (k, n), and, if the run keeps them, its
    ordering on each scored replicate: a degenerate replicate adds none."""

    k: float
    n: int
    method: MethodSpec
    hits: int
    replicates: int
    degenerate: int
    traces: tuple[SelectionTrace, ...] = ()

    @property
    def frequency(self) -> float:
        return self.hits / self.replicates

    def stderr(self) -> float:
        """Binomial standard error of the frequency."""
        p = self.frequency
        return (p * (1.0 - p) / self.replicates) ** 0.5


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    cells: list[CellResult]
    runtime: float = 0.0


def run_experiment(
    config: ExperimentConfig, keep_traces: bool = False
) -> ExperimentResult:
    """Run all (k, n) cells; every method sees the same per-replicate sample."""
    start = time.perf_counter()
    cells: list[CellResult] = []
    for ki, k in enumerate(config.k_values):
        spec = config.spec_for(k)
        for ni, n in enumerate(config.n_values):
            hits = {m: 0 for m in config.methods}
            traces: dict[MethodSpec, list[SelectionTrace]] = {m: [] for m in config.methods}
            degenerate = 0
            for r in range(config.replicates):
                rng = np.random.default_rng(
                    np.random.SeedSequence(config.seed, spawn_key=(ki, ni, r))
                )
                try:
                    sample = generate_sample(spec, n, rng)
                    tables = estimated_provider(sample)
                    for m in config.methods:
                        trace = select_all(m, tables)
                        if optimal_pair_hit(trace):
                            hits[m] += 1
                        if keep_traces:
                            traces[m].append(trace)
                except DegenerateSampleError:
                    degenerate += 1  # counted as a miss for every method
            for m in config.methods:
                cells.append(CellResult(k, n, m, hits[m],
                                        config.replicates, degenerate, tuple(traces[m])))
    return ExperimentResult(config, cells, time.perf_counter() - start)


CSV_COLUMNS = "scenario,k,n,method,beta,frequency,replicates,seed"


def emit_csv(result: ExperimentResult, fh: TextIO) -> None:
    """Write one row per (method, k, n) cell to ``fh``; byte-stable for a fixed config."""
    lines = [CSV_COLUMNS]
    for c in result.cells:
        beta = "" if c.method.beta is None else format(c.method.beta, "g")
        lines.append(
            f"{result.config.scenario.value},{c.k:g},{c.n},{c.method.method.value},{beta},"
            f"{c.frequency:.4f},{c.replicates},{result.config.seed}"
        )
    fh.write("\n".join(lines) + "\n")


def emit_traces_json(result: ExperimentResult, fh: TextIO) -> None:
    """Write each cell's orderings to ``fh`` as JSON, one entry per CSV row, in row order."""
    cells = [{"scenario": result.config.scenario.value, "k": c.k, "n": c.n,
              "method": c.method.method.value, "beta": c.method.beta,
              "replicates": [{"selected": [f.name for f in t.selected], "halt": t.halt.value}
                             for t in c.traces]}
             for c in result.cells]
    json.dump({"seed": result.config.seed, "cells": cells}, fh, indent=1)
