import itertools
import json

import numpy as np
import pytest
from hypothesis import example as explicit_example
from hypothesis import given, settings
from hypothesis import strategies as st

from miselect.infotheory import MASS_TOLERANCE, mass_total
from miselect.oracle import Scenario, ScenarioSpec
from miselect.relevance import (
    PROB_TOLERANCE,
    LabeledJoint,
    RelevanceClass,
    duplicated_features_example,
    grid_scenario_joint,
)

# feature positions in the duplication example: V1..V5 = 0..4
V1, V2, V3, V4, V5 = range(5)


@pytest.fixture(scope="module")
def example():
    return duplicated_features_example()


@pytest.fixture(scope="module")
def grid():
    return grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.2))


def test_full_set_is_maximally_informative(example):
    assert example.is_maximally_informative(example.features)


def test_duplication_example_maximally_informative_pairs(example):
    assert example.is_maximally_informative((V1, V2))
    assert example.is_maximally_informative((V1, V3))
    assert not example.is_maximally_informative((V1,))
    assert not example.is_maximally_informative((V2, V3))


def test_duplication_example_classification(example):
    assert example.classify_feature(V1) is RelevanceClass.SR
    assert example.classify_feature(V2) is RelevanceClass.WR
    assert example.classify_feature(V3) is RelevanceClass.WR
    assert example.classify_feature(V4) is RelevanceClass.IRRELEVANT
    assert example.classify_feature(V5) is RelevanceClass.IRRELEVANT


def test_duplication_example_optimal_sets(example):
    assert example.relevance_optimal_sets() == [(V1, V2), (V1, V3)]


def test_markov_blankets(example):
    assert example.has_markov_blanket(V3, (V2,))
    assert example.has_markov_blanket(V2, (V3,))
    assert not example.has_markov_blanket(V3, (V4,))
    # a strongly relevant feature has no blanket at all
    others = [f for f in example.features if f != V1]
    for size in range(len(others) + 1):
        for blanket in itertools.combinations(others, size):
            assert not example.has_markov_blanket(V1, blanket)


def test_blanket_filter_keeps_earliest_duplicate(example):
    assert example.markov_blanket_filter() == (V1, V2)


def test_partition_relative_to_chosen_set(example):
    part = example.partition((V1, V2))
    assert part[V1] is RelevanceClass.SR
    assert part[V2] is RelevanceClass.WR_NR
    assert part[V3] is RelevanceClass.WR_R
    assert part[V4] is RelevanceClass.IRRELEVANT
    # the symmetric choice flips the duplicates
    part = example.partition((V1, V3))
    assert part[V2] is RelevanceClass.WR_R
    assert part[V3] is RelevanceClass.WR_NR


def test_grid_scenario_has_the_five_optimal_pairs(grid):
    # feature positions 0..9 are V1..V10
    got = grid.relevance_optimal_sets()
    assert got == [(0, 3), (0, 6), (1, 3), (1, 6), (3, 6)]


def test_grid_scenario_partition(grid):
    classes = {f: grid.classify_feature(f) for f in grid.features}
    assert all(c is not RelevanceClass.SR for c in classes.values())
    assert {f for f, c in classes.items() if c is RelevanceClass.IRRELEVANT} == {
        4, 5, 8, 9
    }
    assert {f for f, c in classes.items() if c is RelevanceClass.WR} == {
        0, 1, 2, 3, 6, 7
    }


def test_sr_in_every_optimal_set_and_irrelevant_in_none(example, grid):
    for joint in (example, grid):
        sets = joint.relevance_optimal_sets()
        union = set().union(*sets) if sets else set()
        inter = set(sets[0]).intersection(*sets[1:]) if sets else set()
        for f in joint.features:
            cls = joint.classify_feature(f)
            if cls is RelevanceClass.SR:
                assert f in inter
            if cls is RelevanceClass.IRRELEVANT:
                assert f not in union
        # consistency the other way: the intersection is exactly the SR set
        assert inter == {
            f for f in joint.features
            if joint.classify_feature(f) is RelevanceClass.SR
        }


def test_filter_output_is_relevance_optimal(example, grid):
    for joint in (example, grid):
        assert joint.markov_blanket_filter() in joint.relevance_optimal_sets()


def test_class_independent_of_features_gives_empty_set():
    # two features, class independent of both
    feat = np.array([0.25, 0.25, 0.25, 0.25]).reshape(2, 2)
    probs = feat[:, :, None] * np.array([0.5, 0.5])[None, None, :]
    joint = LabeledJoint.from_dense(probs)
    assert joint.relevance_optimal_sets() == [()]
    assert all(
        joint.classify_feature(f) is RelevanceClass.IRRELEVANT for f in joint.features
    )


def test_validation():
    joint = LabeledJoint.from_dense(np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        joint.is_maximally_informative((1,))  # class is not a feature
    with pytest.raises(ValueError):
        joint.has_markov_blanket(0, (0,))
    degenerate = np.zeros((2, 2))
    degenerate[:, 1] = 0.5
    with pytest.raises(ValueError):
        LabeledJoint.from_dense(degenerate)  # single-state class
    with pytest.raises(ValueError):
        LabeledJoint.from_dense(np.full((2,) * 14, 1.0 / 2**14)).relevance_optimal_sets()


def test_json_round_trip(example):
    back = LabeledJoint.from_json(example.to_json())
    assert back.class_index == example.class_index
    assert np.array_equal(back.atoms, example.atoms)  # the example's atoms are row-major
    assert np.array_equal(back.mass, example.mass)
    assert back.relevance_optimal_sets() == example.relevance_optimal_sets()


@st.composite
def dense_joints(draw):
    """Dense tables with empty, tiny and ordinary cells, the class the last axis.

    The total is off 1 by up to MASS_TOLERANCE, so dividing by it moves masses.
    """
    arities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)) + [draw(st.integers(2, 3))]
    cells = draw(st.lists(st.sampled_from((0.0, 0.0, 1e-300, 1e-12, 0.3, 1.0, 7.0)),
                          min_size=int(np.prod(arities)), max_size=int(np.prod(arities))))
    probs = np.asarray(cells).reshape(arities)
    probs[(0,) * (len(arities) - 1) + (0,)] += 1.0  # two class states carry mass
    probs[(0,) * (len(arities) - 1) + (1,)] += 1.0
    off = draw(st.sampled_from((0.0, 0.5, 0.999, -0.5, -0.999)))
    return probs / probs.sum() * (1.0 + off * MASS_TOLERANCE)


@settings(max_examples=200, deadline=None)
@given(dense_joints())
def test_loaded_atoms_are_the_dense_tables_nonzero_cells(probs):
    normalised = probs / mass_total(probs)
    cells = np.argwhere(normalised > 0.0)
    document = json.dumps({"arities": list(probs.shape), "probs": probs.ravel().tolist()})
    for joint in (LabeledJoint.from_json(document), LabeledJoint.from_dense(probs)):
        assert joint.arities == probs.shape
        assert np.array_equal(joint.atoms, cells)
        assert np.array_equal(joint.mass, normalised[tuple(cells.T)])


def test_grid_rejects_boundary_atoms():
    with pytest.raises(ValueError):
        grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.5), grid=(-0.2, 0.1, -0.1, 0.2))


def test_classification_is_memoised(monkeypatch):
    joint = duplicated_features_example()
    first = [joint.classify_feature(f) for f in joint.features]

    def fail(*args):
        raise AssertionError("classified twice")

    monkeypatch.setattr(joint, "_conditioning_invariant", fail)
    assert [joint.classify_feature(f) for f in joint.features] == first


# ---------------------------------------------------------------------------
# Differential check of the coded-atom conditioning test against the
# dict-based one it replaced.
# ---------------------------------------------------------------------------


class DictJoint(LabeledJoint):
    """LabeledJoint whose conditioning test builds Python dicts per call.

    Its atoms come from the normalised dense table, not from the loader.
    """

    def __init__(self, probs, class_index=None):
        normalised = probs / mass_total(probs)
        idx = np.argwhere(normalised > 0.0)
        super().__init__(probs.shape, idx, normalised[tuple(idx.T)], class_index)
        self.ref_atoms = [tuple(int(v) for v in row) for row in idx]
        self.ref_mass = [float(normalised[a]) for a in self.ref_atoms]

    def _cond_dists(self, cond, over):
        """P(over-projection | given-projection) from the support atoms."""
        groups = {}
        totals = {}
        for atom, mass in zip(self.ref_atoms, self.ref_mass):
            key = tuple(atom[v] for v in cond)
            val = tuple(atom[v] for v in over)
            bucket = groups.setdefault(key, {})
            bucket[val] = bucket.get(val, 0.0) + mass
            totals[key] = totals.get(key, 0.0) + mass
        for key, bucket in groups.items():
            t = totals[key]
            for val in bucket:
                bucket[val] /= t
        return groups

    def _conditioning_invariant(self, extra, base, over):
        wide = self._cond_dists(tuple(base) + tuple(extra), over)
        narrow = self._cond_dists(tuple(base), over)
        for atom in self.ref_atoms:
            wkey = tuple(atom[v] for v in tuple(base) + tuple(extra))
            nkey = tuple(atom[v] for v in base)
            wdist = wide[wkey]
            ndist = narrow[nkey]
            for val in set(wdist) | set(ndist):
                if abs(wdist.get(val, 0.0) - ndist.get(val, 0.0)) > PROB_TOLERANCE:
                    return False
        return True


# driver-cell weights: empty cells, ordinary ones, and ones whose
# conditional probabilities land near PROB_TOLERANCE
WEIGHTS = (0.0, 0.0, 1.0, 2.0, 3.0, 0.5e-9, 1e-9, 1.5e-9, 2e-9)


@st.composite
def labeled_joints(draw):
    """Small joints whose variables are functions of a few independent drivers.

    Copies and coarsenings of the drivers give redundant, irrelevant and
    exactly invariant features; empty driver cells leave values present
    under a narrow key but absent under a wider one.
    """
    driver_arities = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    cells = list(itertools.product(*(range(a) for a in driver_arities)))
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(cells), max_size=len(cells)))
    if max(weights) < 1.0:
        weights[0] = 1.0
    nvars = draw(st.integers(2, 5))
    class_index = draw(st.integers(0, nvars - 1))
    arities, maps = [], []
    for v in range(nvars):
        parents = draw(st.lists(st.integers(0, len(driver_arities) - 1), unique=True,
                                min_size=int(v == class_index), max_size=2))
        arity = draw(st.integers(2, 3))
        size = int(np.prod([driver_arities[d] for d in parents]))
        values = draw(st.lists(st.integers(0, arity - 1), min_size=size, max_size=size))
        arities.append(arity)
        maps.append((parents, values))
    probs = np.zeros(arities)
    for cell, w in zip(cells, weights):
        point = []
        for parents, values in maps:
            code = 0
            for d in parents:
                code = code * driver_arities[d] + cell[d]
            point.append(values[code])
        probs[tuple(point)] += w
    return probs / probs.sum(), class_index


def absent_value_joint(rare: float) -> tuple[np.ndarray, int]:
    """Feature E and a three-valued class C, where C=2 is absent under E=0.

    Under E=1 the class value 2 has probability ``rare``.  Every value
    present under both keys moves by at most PROB_TOLERANCE, so only the
    absent value can break invariance, and does when ``rare`` is large
    enough.
    """
    p_e1 = 0.9
    under_e0 = [0.5, 0.5, 0.0]
    under_e1 = [0.5 - rare / 2, 0.5 - rare / 2, rare]
    probs = np.array([[(1 - p_e1) * p for p in under_e0], [p_e1 * p for p in under_e1]])
    return probs / probs.sum(), 1


def absent_pair_joint(rare: float) -> tuple[np.ndarray, int]:
    """Features E, R and a class C, where the (C, R) value (1, 1) is absent under E=0.

    Under E=1 that value has probability ``rare``.  The (C, R) values present
    under both keys move by at most 0.3 * ``rare``, so only the absent value
    can make {} fail as a Markov blanket of E, and does when ``rare`` is large
    enough.
    """
    p_e1 = 0.9
    under_e0 = [[1 / 3, 1 / 3], [1 / 3, 0.0]]  # [R][C]
    under_e1 = [[1 / 3 - rare / 3, 1 / 3 - rare / 3], [1 / 3 - rare / 3, rare]]
    probs = np.array([np.multiply(1 - p_e1, under_e0), np.multiply(p_e1, under_e1)])
    return probs / probs.sum(), 2


@settings(max_examples=300, deadline=None)
@given(labeled_joints())
@explicit_example(absent_value_joint(1.5e-9))
@explicit_example(absent_value_joint(0.5e-9))
@explicit_example(absent_pair_joint(2e-9))
@explicit_example(absent_pair_joint(1e-9))
def test_coded_atoms_agree_with_dict_reference(drawn):
    probs, class_index = drawn
    try:
        joint = LabeledJoint.from_dense(probs, class_index)
    except ValueError:  # the class has a single state
        return
    ref = DictJoint(probs, class_index)
    features = joint.features
    for size in range(len(features) + 1):
        for subset in itertools.combinations(features, size):
            assert joint.is_maximally_informative(subset) == ref.is_maximally_informative(subset)
    for i in features:
        assert joint.classify_feature(i) is ref.classify_feature(i)
        others = [f for f in features if f != i]
        for size in range(len(others) + 1):
            for blanket in itertools.combinations(others, size):
                assert joint.has_markov_blanket(i, blanket) == ref.has_markov_blanket(i, blanket)
    assert joint.markov_blanket_filter() == ref.markov_blanket_filter()
    assert joint.relevance_optimal_sets() == ref.relevance_optimal_sets()


@pytest.mark.parametrize("rare, invariant", [(1.5e-9, False), (0.5e-9, True)])
def test_value_absent_under_wide_key_counts_as_zero(rare, invariant):
    joint = LabeledJoint.from_dense(*absent_value_joint(rare))
    assert joint.is_maximally_informative(()) is invariant


@pytest.mark.parametrize("rare, blanket", [(2e-9, False), (1e-9, True)])
def test_pair_absent_under_wide_key_counts_as_zero(rare, blanket):
    joint = LabeledJoint.from_dense(*absent_pair_joint(rare))
    assert joint.has_markov_blanket(0, ()) is blanket


def unique_grouping(joint, variables):
    """Group ids and masses from each atom's mixed-radix code, sorted by np.unique."""
    codes = np.zeros(len(joint.mass), dtype=np.int64)
    for v in sorted(variables):
        codes = codes * joint.arities[v] + joint.atoms[:, v]
    _, ids = np.unique(codes, return_inverse=True)
    return ids, np.bincount(ids, weights=joint.mass)


@settings(max_examples=200, deadline=None)
@given(labeled_joints())
def test_lattice_groupings_match_unique_codes(drawn):
    probs, class_index = drawn
    try:
        joint = LabeledJoint.from_dense(probs, class_index)
    except ValueError:  # the class has a single state
        return
    variables = range(len(joint.arities))
    subsets = [s for size in range(len(variables) + 1)
               for s in itertools.combinations(variables, size)]
    # largest first, so that most groupings are built along a chain of parents
    for subset in reversed(subsets):
        ids, mass = joint._grouping(reversed(subset))
        ref_ids, ref_mass = unique_grouping(joint, subset)
        # both number the groups in code order, so the same partition has the same ids
        assert np.array_equal(ids, ref_ids)
        assert np.array_equal(mass, ref_mass)  # bit-equal: summed in atom order


def test_letters_of_true_and_false_outside_probs_load():
    # the loader looks at each probability only when the text holds a "u" or an "f"
    doc = '{"arities":[2,2],"probs":[0.5,0,0,0.5],"source":"uniform, fixed"}'
    joint = LabeledJoint.from_json(doc)
    assert np.array_equal(joint.mass, [0.5, 0.5])
