import math

import numpy as np
import pytest

import miselect.simlab as simlab
from miselect.estimation import DegenerateSampleError
from miselect.oracle import FeatureId, Scenario, ScenarioSpec
from miselect.selection import HaltReason, Method, MethodSpec, SelectionTrace
from miselect.simlab import (
    ExperimentConfig,
    ExperimentResult,
    OPTIMAL_PAIRS,
    emit_csv,
    generate_sample,
    optimal_pair_hit,
    run_experiment,
)

F = FeatureId
SPEC_I = ScenarioSpec(Scenario.UNIFORM, 0.2)


def make_trace(*selected):
    return SelectionTrace(tuple(selected), (), HaltReason.ALL_SELECTED)


def test_generate_sample_supports_and_transforms():
    rng = np.random.default_rng(0)
    s = generate_sample(SPEC_I, 4000, rng)
    v1 = s.features[:, F.V1 - 1]
    assert np.all((v1 >= -0.5) & (v1 <= 0.5))
    np.testing.assert_array_equal(s.features[:, F.V2 - 1], 3.0 * v1 + 1.0)
    np.testing.assert_array_equal(s.features[:, F.V8 - 1], v1 * v1)
    # balanced classes within 3 binomial standard errors
    p1 = s.labels.mean()
    assert abs(p1 - 0.5) <= 3.0 * math.sqrt(0.25 / s.n)
    with pytest.raises(ValueError, match="need at least 4 observations"):
        generate_sample(SPEC_I, 3, rng)


def test_generate_sample_gaussian_branch():
    rng = np.random.default_rng(1)
    s = generate_sample(ScenarioSpec(Scenario.GAUSSIAN, 0.8), 4000, rng)
    assert s.features[:, F.V1 - 1].std() == pytest.approx(1.0, abs=0.05)
    assert abs(s.labels.mean() - 0.5) <= 3.0 * math.sqrt(0.25 / s.n)


def test_optimal_pair_hit():
    assert optimal_pair_hit(make_trace(F.V1, F.V7, F.V5))
    assert optimal_pair_hit(make_trace(F.V7, F.V1))  # unordered
    assert not optimal_pair_hit(make_trace(F.V1, F.V2))
    assert optimal_pair_hit(make_trace(F.V2, F.V4))
    assert not optimal_pair_hit(make_trace(F.V1))
    assert len(OPTIMAL_PAIRS) == 5


def small_config(**overrides):
    base = dict(
        scenario=Scenario.UNIFORM,
        k_values=(0.8,),
        n_values=(50,),
        methods=(MethodSpec(Method.MIFS, 1.0), MethodSpec(Method.MRMR)),
        replicates=6,
        seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replicates=0)
    with pytest.raises(ValueError):
        small_config(n_values=(20,))
    with pytest.raises(ValueError):
        small_config(methods=())
    # a repeated grid value would merge two cells' hits or traces
    with pytest.raises(ValueError, match="k grid lists 0.8 more than once"):
        small_config(k_values=(0.8, 0.2, 0.8))
    with pytest.raises(ValueError, match="n grid lists 50 more than once"):
        small_config(n_values=(50, 50))
    with pytest.raises(ValueError, match=r"method grid lists mrmr more than once"):
        small_config(methods=(MethodSpec(Method.MRMR), MethodSpec(Method.MRMR)))
    # every slope is checked with the scenario parameters before any replicate
    with pytest.raises(ValueError, match=r"k must lie in \(0,1\), got 1.5"):
        small_config(k_values=(0.8, 1.5))
    with pytest.raises(ValueError, match="a must be nonzero"):
        small_config(a=0.0)
    with pytest.raises(ValueError, match="delta must be positive"):
        small_config(delta=-1.0)


def test_run_experiment_is_seed_deterministic():
    r1 = run_experiment(small_config(), keep_traces=True)
    r2 = run_experiment(small_config(), keep_traces=True)
    assert [c.frequency for c in r1.cells] == [c.frequency for c in r2.cells]
    assert [c.traces for c in r1.cells] == [c.traces for c in r2.cells]
    # seeds 123 and 124 happen to give equal hits, so compare the orderings
    r3 = run_experiment(small_config(seed=124), keep_traces=True)
    assert [c.traces for c in r1.cells] != [c.traces for c in r3.cells]
    for c in r1.cells:
        assert 0.0 <= c.frequency <= 1.0
        assert c.replicates == 6
        assert c.degenerate == 0


def test_methods_share_the_replicate_sample():
    result = run_experiment(small_config(), keep_traces=True)
    traces = {(c.method, c.k, c.n): c.traces for c in result.cells}
    key1 = (MethodSpec(Method.MIFS, 1.0), 0.8, 50)
    key2 = (MethodSpec(Method.MRMR), 0.8, 50)
    first1 = [t.selected[0] for t in traces[key1]]
    first2 = [t.selected[0] for t in traces[key2]]
    assert first1 == first2  # identical relevance ranking on identical data


def test_traces_have_no_indeterminates_for_robust_methods():
    result = run_experiment(small_config(), keep_traces=True)
    for cell in result.cells:
        for trace in cell.traces:
            for step in trace.steps:
                assert not any(v.is_indet for v in step.objectives.values())


def test_degenerate_replicates_count_as_misses(monkeypatch):
    real = simlab.generate_sample
    calls = {"i": 0}

    def flaky(spec, n, rng):
        calls["i"] += 1
        if calls["i"] == 1:
            raise DegenerateSampleError("forced")
        return real(spec, n, rng)

    monkeypatch.setattr(simlab, "generate_sample", flaky)
    result = run_experiment(small_config(replicates=4))
    for c in result.cells:
        assert c.degenerate == 1
        assert c.replicates == 4  # denominator unchanged
        assert c.hits <= 3


def test_replicate_seams_are_module_attributes_called_once_per_replicate(monkeypatch):
    # the benchmark (perfbench/tracing.py) replaces these three attributes of
    # simlab and starts a replicate unit at each generate_sample call
    events = []

    def logged(name):
        real = getattr(simlab, name)

        def wrapper(*args):
            events.append(name)
            return real(*args)

        monkeypatch.setattr(simlab, name, wrapper)

    for name in ("generate_sample", "estimated_provider", "select_all"):
        logged(name)
    config = small_config(k_values=(0.8, 0.2), replicates=3)
    wrapped = run_experiment(config, keep_traces=True)
    monkeypatch.undo()
    unwrapped = run_experiment(config, keep_traces=True)
    assert [c.traces for c in wrapped.cells] == [c.traces for c in unwrapped.cells]
    per_replicate = ["generate_sample", "estimated_provider"] + ["select_all"] * 2
    assert events == per_replicate * (2 * 3)


def test_emit_csv_format(tmp_path):
    result = run_experiment(small_config())
    path = tmp_path / "out.csv"
    with open(path, "w") as fh:
        emit_csv(result, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,k,n,method,beta,frequency,replicates,seed"
    assert len(lines) == 1 + len(result.cells)
    assert lines[1].startswith("I,0.8,50,mifs,1,")
    assert lines[2].startswith("I,0.8,50,mrmr,,")
    # byte-identical on a rerun with the same seed
    path2 = tmp_path / "out2.csv"
    with open(path2, "w") as fh:
        emit_csv(run_experiment(small_config()), fh)
    assert path.read_bytes() == path2.read_bytes()


def test_emit_csv_empty_result(tmp_path):
    result = ExperimentResult(small_config(), [])
    path = tmp_path / "empty.csv"
    with open(path, "w") as fh:
        emit_csv(result, fh)
    assert path.read_text() == "scenario,k,n,method,beta,frequency,replicates,seed\n"

