import math

import numpy as np
import pytest

from miselect.infotheory import (
    JointTable,
    cond_entropy,
    cond_mi,
    entropy,
    mi,
    normalized_mi,
    tmi,
)
from miselect.oracle import Scenario, ScenarioSpec
from miselect.relevance import LabeledJoint, grid_scenario_joint
from miselect.verify import mi_direct, random_table
from miselect.xreal import NEG_INF, POS_INF, IndetKind, finite

LN2 = math.log(2.0)


def table(*shape, probs):
    return JointTable(np.asarray(probs, dtype=float).reshape(shape))


def fair_bit_pair(correlated: bool) -> JointTable:
    if correlated:
        return table(2, 2, probs=[0.5, 0.0, 0.0, 0.5])
    return table(2, 2, probs=[0.25, 0.25, 0.25, 0.25])


# ---------------------------------------------------------------------------


def test_construction_validates_mass():
    with pytest.raises(ValueError):
        JointTable(np.array([0.5, 0.4]))  # mass 0.9
    with pytest.raises(ValueError):
        JointTable(np.array([1.1, -0.1]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            JointTable(np.array([0.5, bad, 0.25, 0.25]))
    # within tolerance of 1 -> normalized
    t = JointTable(np.array([0.5, 0.5 + 5e-10]))
    assert abs(t.probs.sum() - 1.0) < 1e-12


def test_entropy_examples():
    assert entropy(table(2, probs=[0.5, 0.5]), (0,)) == pytest.approx(LN2)
    assert entropy(table(2, probs=[1.0, 0.0]), (0,)) == 0.0
    assert entropy(table(4, probs=[0.25] * 4), (0,)) == pytest.approx(math.log(4))
    with pytest.raises(ValueError):
        entropy(fair_bit_pair(False), ())


def test_cond_entropy_examples():
    assert cond_entropy(fair_bit_pair(False), (0,), (1,)) == pytest.approx(LN2)
    assert cond_entropy(fair_bit_pair(True), (0,), (1,)) == pytest.approx(0.0)
    # Y = X with flip probability 0.5: direct evaluation gives ln 2
    flip = table(2, 2, probs=[0.25, 0.25, 0.25, 0.25])
    assert cond_entropy(flip, (0,), (1,)) == pytest.approx(LN2)
    with pytest.raises(ValueError):
        cond_entropy(flip, (0,), (0,))


def test_mi_examples():
    assert mi(fair_bit_pair(False), (0,), (1,)) == pytest.approx(0.0, abs=1e-12)
    assert mi(fair_bit_pair(True), (0,), (1,)) == pytest.approx(LN2)


def test_mi_on_grid_class_table_agrees_with_direct_sum():
    joint = grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.2))
    probs = np.zeros(joint.arities)
    probs[tuple(joint.atoms.T)] = joint.mass
    t = JointTable(probs)
    c = joint.class_index
    for feature in (0, 3, 6):
        assert mi(t, (c,), (feature,)) == pytest.approx(
            mi_direct(t, c, feature), abs=1e-10
        )


def test_tmi_examples():
    # Z independent of (X, Y)
    rng = np.random.default_rng(0)
    xy = rng.random((2, 2))
    xy /= xy.sum()
    z = np.array([0.3, 0.7])
    t = JointTable(xy[:, :, None] * z[None, None, :])
    assert tmi(t, (0,), (1,), (2,)) == pytest.approx(0.0, abs=1e-12)

    # XOR triple: brute-force enumeration of C = X ^ Y over fair bits
    probs = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            probs[x, y, x ^ y] = 0.25
    xor = JointTable(probs)
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


def test_normalized_mi_examples():
    assert normalized_mi(finite(0.5), finite(0.5), finite(0.0)) is POS_INF
    assert normalized_mi(POS_INF, finite(1.0986), finite(-1.6932)) is NEG_INF
    assert normalized_mi(finite(0.3), finite(1.0), finite(2.0)) == finite(0.3)


def test_normalized_mi_zero_over_zero_is_indeterminate():
    # zero MI over a zero minimum entropy cannot be assigned a value:
    # treating it as 0 would let independent features through steps that
    # the reference orderings show as blocked
    out = normalized_mi(finite(0.0), finite(0.0), finite(0.5))
    assert out.is_indet and out.indet_kind is IndetKind.ZERO_OVER_ZERO


def test_json_round_trip():
    # the joint document is read and written by LabeledJoint; the class is in the middle
    rng = np.random.default_rng(1)
    t = random_table(rng)
    back = LabeledJoint.from_json(LabeledJoint.from_dense(t.probs, class_index=1).to_json())
    assert back.arities == t.probs.shape
    assert back.class_index == 1
    assert np.array_equal(back.atoms, np.argwhere(t.probs > 0.0))
    probs = np.zeros(back.arities)
    probs[tuple(back.atoms.T)] = back.mass
    np.testing.assert_allclose(JointTable(probs).probs, t.probs, atol=1e-15)


def test_from_json_rejects_malformed_documents():
    for text in ("[0.5, 0.5]", '"table"', '{"arities": 2, "probs": [0.5, 0.5]}',
                 '{"arities": [-1, 2], "probs": [0.25, 0.25, 0.25, 0.25]}'):
        with pytest.raises(ValueError):
            LabeledJoint.from_json(text)


def test_marginal_orders_axes_as_requested():
    t = fair_bit_pair(True)
    np.testing.assert_allclose(t.marginal((1, 0)), t.marginal((0, 1)).T)
