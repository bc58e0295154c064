import math

import numpy as np
import pytest

from conftest import random_provider
from miselect.oracle import (
    FEATURES,
    FeatureId,
    MITables,
    Scenario,
    ScenarioSpec,
    oracle_provider,
)
from miselect.reference import ORDERING_TABLE, expected_positions
from miselect.selection import (
    HaltReason,
    Method,
    MethodSpec,
    first_feature,
    objective,
    select_all,
)
from miselect.xreal import POS_INF, IndetKind, compare, finite

V = FeatureId


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec(Method.MIFS)  # beta required
    with pytest.raises(ValueError):
        MethodSpec(Method.MRMR, beta=0.5)  # beta forbidden
    with pytest.raises(ValueError):
        MethodSpec(Method.MIFS, beta=1.5)
    with pytest.raises(ValueError, match="mifs, mifsu"):
        MethodSpec.parse("bogus")
    assert MethodSpec.parse("mifs:0.4") == MethodSpec(Method.MIFS, 0.4)
    assert MethodSpec.parse("MRMR") == MethodSpec(Method.MRMR)


def test_objective_examples(oracle_i_02, oracle_ii_02):
    # MIFS(1) for the difference feature against the first driver
    v = objective(MethodSpec(Method.MIFS, 1.0), V.V4, [V.V1], oracle_i_02)
    assert v.value == pytest.approx(-0.3215, abs=5e-5)

    # explicit beta=0 still multiplies an infinite redundancy: 0 * inf
    v = objective(MethodSpec(Method.MIFS, 0.0), V.V2, [V.V1], oracle_i_02)
    assert v.is_indet and v.indet_kind is IndetKind.ZERO_TIMES_INF

    # NMIFS rewards redundancy when the minimum entropy is negative
    v = objective(MethodSpec(Method.NMIFS), V.V8, [V.V1], oracle_i_02)
    assert v is POS_INF

    v = objective(MethodSpec(Method.MIFS_U, 0.4), V.V4, [V.V1], oracle_ii_02)
    assert v.value == pytest.approx(0.0408, abs=1e-4)


def test_first_feature(oracle_i_02, oracle_ii_08):
    assert first_feature(oracle_i_02) is V.V1
    assert first_feature(oracle_ii_08) is V.V1
    zero = MITables(
        [finite(1.0)] * len(FEATURES),
        [finite(0.0)] * len(FEATURES),
        lambda i, j: POS_INF if i == j else finite(0.0),
    )
    assert first_feature(zero) is V.V1


def test_select_all_examples(oracle_i_02, oracle_i_08, oracle_ii_02):
    t = select_all(MethodSpec(Method.MIFS, 1.0), oracle_i_02)
    assert t.selected == (V.V1, V.V7, V.V5, V.V9, V.V4, V.V10, V.V2, V.V3, V.V6, V.V8)
    assert t.halt is HaltReason.ALL_SELECTED

    t = select_all(MethodSpec(Method.MIFS_U, 0.0), oracle_i_02)
    assert t.selected == (V.V1,)
    assert t.halt is HaltReason.NO_ADMISSIBLE_CANDIDATE

    t = select_all(MethodSpec(Method.NMIFS), oracle_i_02)
    assert t.selected == (V.V1, V.V8, V.V3, V.V6, V.V4)
    assert t.halt is HaltReason.NO_ADMISSIBLE_CANDIDATE

    t = select_all(MethodSpec(Method.MICC), oracle_i_08)
    assert t.selected == (V.V1, V.V8, V.V4, V.V3)
    assert t.halt is HaltReason.NO_ADMISSIBLE_CANDIDATE

    t = select_all(MethodSpec(Method.QMIFS), oracle_ii_02)
    assert t.selected == (V.V1, V.V7, V.V5, V.V9, V.V10, V.V4)
    assert t.halt is HaltReason.NO_ADMISSIBLE_CANDIDATE


def test_all_reference_orderings():
    for (scenario, k), methods in ORDERING_TABLE.items():
        provider = oracle_provider(ScenarioSpec(scenario, k))
        for mspec in methods:
            want, excluded = expected_positions(scenario, k, mspec)
            trace = select_all(mspec, provider)
            assert len(trace.selected) == len(want), (scenario, k, mspec.label())
            for pos, (got, expect) in enumerate(zip(trace.selected, want)):
                if pos in excluded:
                    continue
                assert got == expect, (scenario, k, mspec.label(), pos)
            expected_halt = (
                HaltReason.ALL_SELECTED
                if len(want) == len(FEATURES)
                else HaltReason.NO_ADMISSIBLE_CANDIDATE
            )
            assert trace.halt is expected_halt


def test_trace_equivalence_of_the_three_robust_methods():
    for scenario in Scenario:
        for k in (0.2, 0.8):
            p = oracle_provider(ScenarioSpec(scenario, k))
            traces = [
                select_all(m, p).selected
                for m in (
                    MethodSpec(Method.MIFS, 1.0),
                    MethodSpec(Method.MRMR),
                    MethodSpec(Method.MAX_MIFS),
                )
            ]
            assert traces[0] == traces[1] == traces[2]


def test_mrmr_equals_mifs_with_adaptive_beta():
    rng = np.random.default_rng(2718)
    for _ in range(50):
        p = random_provider(rng)
        trace = select_all(MethodSpec(Method.MRMR), p)
        selected = []
        for step in trace.steps:
            if selected:
                for f, got in step.objectives.items():
                    want = objective(
                        MethodSpec(Method.MIFS, 1.0 / len(selected)), f, selected, p
                    )
                    assert got == want
            selected.append(step.winner)
        # the equivalent adaptive-beta run picks the same features
        assert trace.selected[: len(selected)] == tuple(selected)


def test_mifs_beta_zero_is_pure_relevance_when_finite():
    rng = np.random.default_rng(11)
    p = random_provider(rng, inf_prob=0.0)
    trace = select_all(MethodSpec(Method.MIFS, 0.0), p)
    ranked = sorted(
        FEATURES, key=lambda f: (-p.class_mi(f).value, int(f))
    )
    assert trace.selected == tuple(ranked)
    assert trace.halt is HaltReason.ALL_SELECTED


def test_halting_step_records_the_blocking_indeterminates(oracle_i_02):
    # QMIFS halts at step 3: the squared features die of 0/0, the
    # difference feature of inf-inf
    trace = select_all(MethodSpec(Method.QMIFS), oracle_i_02)
    assert trace.halt is HaltReason.NO_ADMISSIBLE_CANDIDATE
    last = trace.steps[-1]
    assert last.winner is None
    assert all(v.is_indet for v in last.objectives.values())
    assert last.objectives[V.V3].indet_kind is IndetKind.ZERO_OVER_ZERO
    assert last.objectives[V.V4].indet_kind is IndetKind.INF_MINUS_INF
    assert last.objectives[V.V8].indet_kind is IndetKind.INF_MINUS_INF
    assert not last.admissible(V.V4)


def test_mifsu_selects_fully_redundant_features_at_neg_inf(oracle_i_02):
    # after the zero-entropy first pick, only fully associated features
    # stay admissible, each entering with a -inf objective
    trace = select_all(MethodSpec(Method.MIFS_U, 0.7), oracle_i_02)
    assert trace.selected == (V.V1, V.V2, V.V4, V.V8)
    for step in trace.steps[1:]:
        if step.winner is not None:
            assert step.objectives[step.winner].is_neg_inf


def test_determinism():
    p = oracle_provider(ScenarioSpec(Scenario.GAUSSIAN, 0.2))
    a = select_all(MethodSpec(Method.MICC), p)
    b = select_all(MethodSpec(Method.MICC), p)
    assert a.selected == b.selected and a.halt is b.halt
    for sa, sb in zip(a.steps, b.steps):
        assert sa.winner == sb.winner
        assert sa.objectives == sb.objectives


def test_every_step_winner_is_maximal_and_admissible():
    p = oracle_provider(ScenarioSpec(Scenario.UNIFORM, 0.8))
    for m in (MethodSpec(Method.NMIFS), MethodSpec(Method.MIFS, 0.4)):
        trace = select_all(m, p)
        for step in trace.steps:
            if step.winner is None:
                continue
            win = step.objectives[step.winner]
            assert not win.is_indet
            for f, v in step.objectives.items():
                if v.is_indet:
                    continue
                c = compare(v, win)
                assert c <= 0
                if c == 0:
                    assert step.winner <= f  # smallest index wins ties
