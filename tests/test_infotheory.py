import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miselect.infotheory import (
    Joint,
    cond_mi,
    entropy,
    mass_total,
    mi,
    plugin_entropy,
    tmi,
)
from miselect.oracle import Scenario, ScenarioSpec
from miselect.reference import mi_direct, random_table
from miselect.relevance import LabeledJoint, grid_scenario_joint

LN2 = math.log(2.0)


def table(*shape, probs):
    return Joint.from_dense(np.asarray(probs, dtype=float).reshape(shape))


def fair_bit_pair(correlated: bool) -> Joint:
    if correlated:
        return table(2, 2, probs=[0.5, 0.0, 0.0, 0.5])
    return table(2, 2, probs=[0.25, 0.25, 0.25, 0.25])


# ---------------------------------------------------------------------------


def test_construction_validates_mass():
    with pytest.raises(ValueError):
        Joint.from_dense(np.array([0.5, 0.4]))  # mass 0.9
    with pytest.raises(ValueError):
        Joint.from_dense(np.array([1.1, -0.1]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            Joint.from_dense(np.array([0.5, bad, 0.25, 0.25]))
    with pytest.raises(ValueError, match="total mass inf is not finite"):
        Joint.from_dense(np.array([1e308, 1e308]))  # the total overflows
    # within tolerance of 1 -> normalized
    t = Joint.from_dense(np.array([0.5, 0.5 + 5e-10]))
    assert abs(t.mass.sum() - 1.0) < 1e-12


def test_entropy_examples():
    assert entropy(table(2, probs=[0.5, 0.5]), (0,)) == pytest.approx(LN2)
    assert entropy(table(2, probs=[1.0, 0.0]), (0,)) == 0.0
    assert entropy(table(4, probs=[0.25] * 4), (0,)) == pytest.approx(math.log(4))
    for bad in ((), (2,), (-1,), (0, 0)):  # empty, out of range, wrapping, duplicated
        with pytest.raises(ValueError):
            entropy(fair_bit_pair(False), bad)


def test_mi_examples():
    assert mi(fair_bit_pair(False), (0,), (1,)) == pytest.approx(0.0, abs=1e-12)
    assert mi(fair_bit_pair(True), (0,), (1,)) == pytest.approx(LN2)
    with pytest.raises(ValueError, match="overlapping variable subsets"):
        mi(fair_bit_pair(False), (0,), (0,))


def test_mi_on_grid_class_table_agrees_with_direct_sum():
    joint = grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.2))
    c = joint.class_index
    for feature in (0, 3, 6):
        assert mi(joint, (c,), (feature,)) == pytest.approx(
            mi_direct(joint, c, feature), abs=1e-10
        )


def test_tmi_examples():
    # Z independent of (X, Y)
    rng = np.random.default_rng(0)
    xy = rng.random((2, 2))
    xy /= xy.sum()
    z = np.array([0.3, 0.7])
    t = Joint.from_dense(xy[:, :, None] * z[None, None, :])
    assert tmi(t, (0,), (1,), (2,)) == pytest.approx(0.0, abs=1e-12)

    # XOR triple: brute-force enumeration of C = X ^ Y over fair bits
    probs = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            probs[x, y, x ^ y] = 0.25
    xor = Joint.from_dense(probs)
    assert tmi(xor, (0,), (1,), (2,)) == pytest.approx(-LN2)


def test_chain_rule_three_forms_agree():
    rng = np.random.default_rng(42)
    for _ in range(300):
        t = random_table(rng)
        forms = (
            tmi(t, (0,), (1,), (2,)),
            mi(t, (0,), (2,)) - cond_mi(t, (0,), (2,), (1,)),
            mi(t, (1,), (2,)) - cond_mi(t, (1,), (2,), (0,)),
        )
        assert max(forms) - min(forms) < 1e-10


def test_identity_equivalence_on_random_tables():
    rng = np.random.default_rng(99)
    for _ in range(300):
        t = random_table(rng, nvars=2)
        assert mi(t, (0,), (1,)) == pytest.approx(mi_direct(t, 0, 1), abs=1e-10)


def test_mi_symmetry_and_nonnegativity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = random_table(rng, nvars=2)
        assert mi(t, (0,), (1,)) == mi(t, (1,), (0,))
        assert mi(t, (0,), (1,)) >= -1e-12


def test_json_round_trip():
    # the joint document is read and written by LabeledJoint; the class is in the middle
    rng = np.random.default_rng(1)
    t = random_table(rng)
    probs = np.zeros(t.arities)
    probs[tuple(t.atoms.T)] = t.mass
    back = LabeledJoint.from_json(LabeledJoint.from_dense(probs, class_index=1).to_json())
    assert back.arities == t.arities
    assert back.class_index == 1
    assert np.array_equal(back.atoms, t.atoms)
    np.testing.assert_allclose(back.mass, t.mass, atol=1e-15)


def test_from_json_rejects_malformed_documents():
    for text in ("[0.5, 0.5]", '"table"', '{"arities": 2, "probs": [0.5, 0.5]}',
                 '{"arities": [-1, 2], "probs": [0.25, 0.25, 0.25, 0.25]}'):
        with pytest.raises(ValueError):
            LabeledJoint.from_json(text)


# ---------------------------------------------------------------------------
# Differential check of the atom-set entropy against dense marginalization.
# ---------------------------------------------------------------------------


def dense_marginal(probs: np.ndarray, variables) -> np.ndarray:
    """Marginal mass array over ``variables``, axes in the given order."""
    drop = tuple(ax for ax in range(probs.ndim) if ax not in variables)
    marg = probs.sum(axis=drop) if drop else probs
    kept = [ax for ax in range(probs.ndim) if ax in variables]
    return np.transpose(marg, [kept.index(v) for v in variables])


@st.composite
def dense_tables(draw):
    """Dense mass arrays of 1 to 4 variables of arity 1 to 4, with empty cells."""
    arities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    size = int(np.prod(arities))
    cells = draw(st.lists(st.sampled_from((0.0, 0.0, 1e-300, 1e-12, 0.3, 1.0, 7.0)),
                          min_size=size, max_size=size))
    probs = np.asarray(cells).reshape(arities)
    probs[(0,) * len(arities)] += 1.0
    return probs / probs.sum()


@settings(max_examples=200, deadline=None)
@given(dense_tables())
def test_entropy_agrees_with_dense_marginal(probs):
    t = Joint.from_dense(probs)
    reference = probs / mass_total(probs)  # the masses from_dense divides by
    for size in range(1, probs.ndim + 1):
        for subset in itertools.combinations(range(probs.ndim), size):
            h = entropy(t, subset)
            for order in itertools.permutations(subset):
                assert entropy(t, order) == h  # the same float in any order
                assert abs(h - plugin_entropy(dense_marginal(reference, order))) <= 1e-12


def test_single_present_state():
    # V1 has three states but only state 1 carries mass
    probs = np.zeros((2, 3, 2))
    probs[:, 1, :] = [[0.125, 0.375], [0.25, 0.25]]
    t = Joint.from_dense(probs)
    with pytest.raises(ValueError, match="at least two states"):
        LabeledJoint.from_dense(probs, class_index=1)
    assert entropy(t, (1,)) == 0.0
    forms = (
        tmi(t, (0,), (1,), (2,)),
        mi(t, (0,), (2,)) - cond_mi(t, (0,), (2,), (1,)),
        mi(t, (1,), (2,)) - cond_mi(t, (1,), (2,), (0,)),
    )
    assert max(forms) - min(forms) < 1e-12
