"""Mutual-information feature selection lab.

Eight sequential forward selection criteria, evaluated in extended-real
arithmetic (with tagged indeterminate forms) on one kind of value,
:class:`MITables`: entropies, class MIs and a symmetric pairwise-MI
matrix.  The tables come from an analytic oracle with exact values,
including symbolic +inf, or from a histogram estimator over a sample.
"""

from .estimation import Sample, estimated_provider
from .oracle import FeatureId, MITables, Scenario, ScenarioSpec, oracle_provider
from .selection import Method, MethodSpec, SelectionTrace, select_all
from .simlab import ExperimentConfig, run_experiment
from .xreal import XReal, finite, indeterminate

__all__ = [
    "ExperimentConfig",
    "FeatureId",
    "MITables",
    "Method",
    "MethodSpec",
    "Sample",
    "Scenario",
    "ScenarioSpec",
    "SelectionTrace",
    "XReal",
    "estimated_provider",
    "finite",
    "indeterminate",
    "oracle_provider",
    "run_experiment",
    "select_all",
]
