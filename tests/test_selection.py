import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_provider
from miselect.estimation import estimated_provider
from miselect.oracle import (
    FEATURES,
    FeatureId,
    MITables,
    Scenario,
    ScenarioSpec,
    oracle_provider,
)
from miselect.selection import (
    HaltReason,
    Method,
    MethodSpec,
    SelectionTrace,
    select_all,
)
from miselect.simlab import generate_sample
from miselect.xreal import NEG_INF, POS_INF, IndetKind, box
from selection_reference import ni, objective, reference_select_all

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
    assert MethodSpec.parse("mifs", 0.4) == MethodSpec(Method.MIFS, 0.4)
    assert MethodSpec.parse("MRMR") == MethodSpec(Method.MRMR)
    with pytest.raises(ValueError, match="beta must be a number, got 'abc'"):
        MethodSpec.parse("mifs:abc")
    with pytest.raises(ValueError, match="beta given twice"):
        MethodSpec.parse("mifs:0.4", 0.7)


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
    def first_pick(p):
        return select_all(MethodSpec(Method.MRMR), p).selected[0]

    assert first_pick(oracle_i_02) is V.V1
    assert first_pick(oracle_ii_08) is V.V1
    zero = MITables(
        [1.0] * len(FEATURES),
        [0.0] * len(FEATURES),
        lambda i, j: math.inf if i == j else 0.0,
    )
    assert first_pick(zero) is V.V1  # ties go to the earliest feature


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
        FEATURES, key=lambda f: (-p.class_mi(f), int(f))
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
    assert last.objectives[V.V4].is_indet


def test_mifsu_selects_fully_redundant_features_at_neg_inf(oracle_i_02):
    # after the zero-entropy first pick, only fully associated features
    # stay admissible, each entering with a -inf objective
    trace = select_all(MethodSpec(Method.MIFS_U, 0.7), oracle_i_02)
    assert trace.selected == (V.V1, V.V2, V.V4, V.V8)
    for step in trace.steps[1:]:
        if step.winner is not None:
            assert step.objectives[step.winner] is NEG_INF


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
                assert v.value <= win.value
                if v.value == win.value:
                    assert step.winner <= f  # smallest index wins ties


# ---------------------------------------------------------------------------
# The incremental engine against the scalar reference
# ---------------------------------------------------------------------------

ALL_SPECS = [MethodSpec(m, beta) for m in (Method.MIFS, Method.MIFS_U)
             for beta in (0.0, 0.4, 0.7, 1.0)]
ALL_SPECS += [MethodSpec(m) for m in Method if m not in (Method.MIFS, Method.MIFS_U)]

# The domain of a table entry.  Entropies and class MIs are finite: zero, a
# few values that tie, negatives, any float.  A pairwise MI is that or +inf.
# With finite entropies and class MIs no objective meets inf/inf: every
# divisor is finite, or is MICC's mean whose numerator is finite.
FINITE = st.one_of(
    st.sampled_from([0.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
    st.floats(-3.0, 3.0),
)
PAIRWISE = st.one_of(st.just(math.inf), FINITE)


@st.composite
def mi_tables(draw) -> MITables:
    entropies = draw(st.lists(FINITE, min_size=10, max_size=10))
    class_mis = draw(st.lists(FINITE, min_size=10, max_size=10))
    pairs = iter(draw(st.lists(PAIRWISE, min_size=55, max_size=55)))  # i <= j
    return MITables(entropies, class_mis, lambda i, j: next(pairs))


# Tables on which some search halts, blocked by the form named
BLOCKING_TABLES = {
    # MIFS with beta 0: 0 * inf against the first pick
    IndetKind.ZERO_TIMES_INF: MITables(
        [1.0] * 10, [1.0] + [0.5] * 9, lambda i, j: math.inf),
    # NMIFS: NI is -inf against the first pick, whose entropy is negative,
    # and +inf against the second
    IndetKind.INF_MINUS_INF: MITables(
        [-1.0] + [1.0] * 9, [1.0] + [0.5] * 9, lambda i, j: math.inf),
    # MIFS-U and NMIFS: zero class MI and zero MI over zero entropy
    IndetKind.ZERO_OVER_ZERO: MITables([0.0] * 10, [0.0] * 10, lambda i, j: 0.0),
}


def test_example_tables_block_on_their_form():
    for kind, p in BLOCKING_TABLES.items():
        blocking = set()
        for m in ALL_SPECS:
            trace = select_all(m, p)
            if trace.halt is HaltReason.NO_ADMISSIBLE_CANDIDATE:
                blocking |= {v.indet_kind for v in trace.steps[-1].objectives.values()}
        assert kind in blocking, kind


def test_ni_examples():
    assert box(ni(0.5, 0.5, 0.0)) is POS_INF
    assert box(ni(math.inf, 1.0986, -1.6932)) is NEG_INF
    assert box(ni(0.3, 1.0, 2.0)) == box((0.3, None))


def test_ni_zero_over_zero_is_indeterminate():
    # zero MI over a zero minimum entropy cannot be assigned a value:
    # treating it as 0 would let independent features through steps that
    # the reference orderings show as blocked
    out = box(ni(0.0, 0.0, 0.5))
    assert out.is_indet and out.indet_kind is IndetKind.ZERO_OVER_ZERO


def assert_same_search(m: MethodSpec, p: MITables) -> SelectionTrace:
    want = reference_select_all(m, p)
    got = select_all(m, p)
    label = m.label()
    assert got.selected == want.selected, label
    assert got.halt is want.halt, label
    assert len(got.steps) == len(want.steps), label
    for step, (g, w) in enumerate(zip(got.steps, want.steps)):
        assert g.winner == w.winner, (label, step)
        assert list(g.objectives) == list(w.objectives), (label, step)
        for f, v in w.objectives.items():
            u = g.objectives[f]
            assert u == v and u.indet_kind is v.indet_kind and str(u) == str(v), (
                label, step, f, u, v)
    return got


@settings(max_examples=150, deadline=None)
@given(mi_tables())
@example(BLOCKING_TABLES[IndetKind.ZERO_TIMES_INF])
@example(BLOCKING_TABLES[IndetKind.INF_MINUS_INF])
@example(BLOCKING_TABLES[IndetKind.ZERO_OVER_ZERO])
def test_engine_equals_the_reference_on_generated_tables(p):
    for m in ALL_SPECS:
        trace = assert_same_search(m, p)
        kinds = {v.indet_kind for step in trace.steps for v in step.objectives.values()}
        assert IndetKind.INF_OVER_INF not in kinds


def test_engine_equals_the_reference_on_oracle_and_estimated_tables():
    tables = [oracle_provider(ScenarioSpec(s, k)) for s in Scenario for k in (0.2, 0.8)]
    rng = np.random.default_rng(5)
    for scenario in Scenario:
        for n in (50, 200, 5000):
            sample = generate_sample(ScenarioSpec(scenario, 0.2), n, rng)
            tables.append(estimated_provider(sample))
    tables += [random_provider(rng) for _ in range(10)]
    for p in tables:
        for m in ALL_SPECS:
            assert_same_search(m, p)
