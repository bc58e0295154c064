"""Mutual-information feature selection lab.

Eight sequential forward selection criteria run on one kind of value,
:class:`MITables`: float entropies, class MIs and a symmetric pairwise-MI
matrix.  The tables come from an analytic oracle with exact values,
including +inf for fully associated features, or from a histogram
estimator over a sample.  The objectives are evaluated in extended-real
arithmetic, and a trace reports each one as an :class:`XReal`: finite,
+inf, -inf or a tagged indeterminate form.
"""

from .estimation import Sample, estimated_provider
from .oracle import FeatureId, MITables, Scenario, ScenarioSpec, oracle_provider
from .selection import Method, MethodSpec, SelectionTrace, select_all
from .simlab import ExperimentConfig, run_experiment
from .xreal import XReal

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
    "oracle_provider",
    "run_experiment",
    "select_all",
]
