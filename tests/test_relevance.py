import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example as explicit_example
from hypothesis import given, settings
from hypothesis import strategies as st

from miselect import relevance
from miselect.infotheory import MASS_TOLERANCE, Joint, mass_total
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
    with pytest.raises(ValueError, match="13 features exceed the exhaustive-search bound"):
        LabeledJoint.from_dense(np.full((2,) * 14, 1.0 / 2**14)).relevance_optimal_sets()


def test_json_round_trip(example):
    back = LabeledJoint.from_json(example.to_json().encode())
    assert back.class_index == example.class_index
    assert np.array_equal(back.atoms, example.atoms)  # the example's atoms are row-major
    assert np.array_equal(back.mass, example.mass)
    assert back.relevance_optimal_sets() == example.relevance_optimal_sets()


@st.composite
def dense_joints(draw):
    """Dense tables with empty (0.0 or -0.0), tiny and ordinary cells, the class the last axis.

    The total is off 1 by up to MASS_TOLERANCE, so dividing by it moves masses.
    """
    arities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)) + [draw(st.integers(2, 3))]
    cells = draw(st.lists(st.sampled_from((0.0, 0.0, -0.0, 1e-300, 1e-12, 0.3, 1.0, 7.0)),
                          min_size=int(np.prod(arities)), max_size=int(np.prod(arities))))
    probs = np.asarray(cells).reshape(arities)
    probs[(0,) * (len(arities) - 1) + (0,)] += 1.0  # two class states carry mass
    probs[(0,) * (len(arities) - 1) + (1,)] += 1.0
    off = draw(st.sampled_from((0.0, 0.5, 0.999, -0.5, -0.999)))
    return probs / probs.sum() * (1.0 + off * MASS_TOLERANCE)


def last_bit_table():
    """A [30, 2] table whose eight masses' sum is not its sum over all its cells.

    The total is the former, 0.9999999999999998; ``probs.sum()`` reads
    0.9999999999999999, and dividing by that would move 3 of the 8 masses.
    """
    probs = np.zeros((30, 2))
    masses = np.array([0.1, 0.2, 0.1, 0.7, 0.5, 0.3, 0.2, 0.3])
    probs.ravel()[[15, 17, 36, 37, 41, 42, 50, 52]] = masses / masses.sum()
    return probs


@settings(max_examples=200, deadline=None)
@given(dense_joints())
@explicit_example(last_bit_table())
def test_loaded_atoms_are_the_dense_tables_nonzero_cells(probs):
    normalised = probs / mass_total(probs)
    cells = np.argwhere(normalised > 0.0)
    document = json.dumps({"arities": list(probs.shape), "probs": probs.ravel().tolist()})
    for joint in (LabeledJoint.from_json(document.encode()), LabeledJoint.from_dense(probs)):
        assert joint.arities == probs.shape
        assert np.array_equal(joint.atoms, cells)
        assert np.array_equal(joint.mass, normalised[tuple(cells.T)])


def test_grid_rejects_boundary_atoms():
    with pytest.raises(ValueError):
        grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.5), grid=(-0.2, 0.1, -0.1, 0.2))


def test_classification_is_memoised(monkeypatch):
    joint = duplicated_features_example()
    first = [joint.classify_feature(f) for f in joint.features]
    pairs = list(itertools.combinations(joint.features, 2))
    informative = [joint.is_maximally_informative(s) for s in pairs]

    def fail(*args):
        raise AssertionError("the lattice was built twice")

    monkeypatch.setattr(joint, "_lattice", fail)
    monkeypatch.setattr(joint, "_class_conditional", fail)
    monkeypatch.setattr(joint, "_grouping", fail)
    assert [joint.classify_feature(f) for f in joint.features] == first
    assert [joint.is_maximally_informative(s) for s in pairs] == informative


# ---------------------------------------------------------------------------
# Differential check of the coded-atom conditioning test against the
# dict-based one it replaced.
# ---------------------------------------------------------------------------


class DictJoint(LabeledJoint):
    """LabeledJoint whose conditioning test builds Python dicts per call.

    It classifies and tests maximal informativeness one subset at a time,
    not on the subset lattice.  Its atoms come from the normalised dense
    table, not from the loader.
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

    # The definitions, one conditioning test each, as Kohavi and John (1997) state them.

    def is_maximally_informative(self, subset):
        subset = tuple(subset)
        rest = tuple(f for f in self.features if f not in subset)
        return not rest or self._conditioning_invariant(rest, subset, (self.class_index,))

    def classify_feature(self, i):
        others = tuple(f for f in self.features if f != i)
        if not self.is_maximally_informative(others):
            return RelevanceClass.SR
        for size in range(len(others) + 1):
            for subset in itertools.combinations(others, size):
                if not self._conditioning_invariant((i,), subset, (self.class_index,)):
                    return RelevanceClass.WR
        return RelevanceClass.IRRELEVANT


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


def class_table(joint, subset):
    """P(class | subset-group of each atom) from one subset's grouping."""
    ids, mass = joint._grouping(subset)
    class_ids, class_mass = joint._grouping((joint.class_index,))
    n_class = len(class_mass)
    table = np.bincount(ids * n_class + class_ids, weights=joint.mass,
                        minlength=len(mass) * n_class).reshape(-1, n_class) / mass[:, None]
    return table[ids]


def first_atom_numbering(joint, subset):
    """The subset's group of each atom, numbered 0, 1, ... in the order of first atoms."""
    _, first, inverse = np.unique(joint._grouping(subset)[0], return_index=True,
                                  return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def differs(wide, narrow):
    return np.abs(wide - narrow).max() > PROB_TOLERANCE


def per_test_class(joint, i):
    """Feature i's class from one pair of class tables per subset, the search stopping early."""
    others = tuple(f for f in joint.features if f != i)
    if differs(class_table(joint, joint.features), class_table(joint, others)):
        return RelevanceClass.SR
    for size in range(len(others) + 1):
        for subset in itertools.combinations(others, size):
            if differs(class_table(joint, subset + (i,)), class_table(joint, subset)):
                return RelevanceClass.WR
    return RelevanceClass.IRRELEVANT


@settings(max_examples=200, deadline=None)
@given(labeled_joints(), st.sampled_from((1, 40, relevance.BLOCK_CELLS)))
@explicit_example(absent_value_joint(1.5e-9), 1)
@explicit_example(absent_value_joint(0.5e-9), 1)
def test_lattice_agrees_with_per_test_search(drawn, block_cells):
    """Each lattice conditional is the per-subset table's float; classes and tests agree."""
    probs, class_index = drawn
    try:
        joint = LabeledJoint.from_dense(probs, class_index)
    except ValueError:  # the class has a single state
        return
    ref = DictJoint(probs, class_index)
    features = joint.features
    seen = set()
    with mock.patch.object(relevance, "BLOCK_CELLS", block_cells):
        full = class_table(joint, features)
        for level in joint._lattice():
            for mask, r, cond in zip(level.masks.tolist(), level.rows,
                                     level.conditionals(level.rows)):
                subset = tuple(f for j, f in enumerate(features) if mask >> j & 1)
                assert np.array_equal(level.ids[r], first_atom_numbering(joint, subset))
                assert cond.tobytes() == class_table(joint, subset).tobytes()
                assert level.fits[r] == (not differs(full, cond))
                seen.add(mask)
            # rows are numbered canonically, so distinct rows are distinct partitions
            assert len({ids.tobytes() for ids in level.ids}) == len(level.ids)
            assert level.counts.tolist() == [len(np.unique(ids)) for ids in level.ids]
        assert seen == set(range(1 << len(features)))
        for i in features:
            assert joint.classify_feature(i) is ref.classify_feature(i)
    for size in range(len(features) + 1):
        for subset in itertools.combinations(features, size):
            assert joint.is_maximally_informative(subset) == ref.is_maximally_informative(subset)


def test_twelve_features_classify_at_the_search_bound():
    # drivers x, w in 0..3 and y, z, u in 0..1; the class depends on x, y, z & u and w // 2
    x, y, z, w, u = (g.ravel() for g in np.meshgrid(range(4), range(2), range(2), range(4),
                                                     range(2), indexing="ij"))
    cls = 2 * x + y + (z & u) + 2 * (w // 2) >= 6
    joint = relevance._equal_mass_joint([x, y, 1 - y, x % 2, x // 2, z, u, z ^ u, w % 2,
                                         x + z, w // 2, 3 * (w % 2), cls])
    assert len(joint.features) == relevance.MAX_SEARCH_FEATURES
    with mock.patch.object(relevance, "BLOCK_CELLS", 1 << 12):
        # the widest level's distinct partitions do not fit in one block
        widest = max(len(level.counts) for level in joint._lattice())
        assert widest * len(joint.mass) > relevance.BLOCK_CELLS
        classes = [joint.classify_feature(f) for f in joint.features]
    assert classes == [per_test_class(joint, f) for f in joint.features]
    assert set(classes) == {RelevanceClass.SR, RelevanceClass.WR, RelevanceClass.IRRELEVANT}
    for subset in ((0, 1, 5, 6, 10), (0, 1, 5, 6), joint.features[1:]):
        assert joint.is_maximally_informative(subset) == (
            not differs(class_table(joint, joint.features), class_table(joint, subset)))


def test_grid_lattice_agrees_with_per_subset_tables():
    """All 1024 maximal-informativeness answers and the 10 classes of the grid joint."""
    joint = grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.2))
    full = class_table(joint, joint.features)
    for size in range(len(joint.features) + 1):
        for subset in itertools.combinations(joint.features, size):
            assert joint.is_maximally_informative(subset) == (
                not differs(full, class_table(joint, subset)))
    assert [joint.classify_feature(f) for f in joint.features] == [
        per_test_class(joint, f) for f in joint.features]


@pytest.mark.parametrize("make", [
    duplicated_features_example, lambda: grid_scenario_joint(ScenarioSpec(Scenario.UNIFORM, 0.2))])
def test_colliding_fingerprints_keep_the_lattice(make, monkeypatch):
    """With every fingerprint equal, the element-wise check alone tells the partitions apart."""
    joint = make()
    levels = [(level.rows, level.ids) for level in joint._lattice()]
    assert sum(map(len, (ids for _, ids in levels))) < 1 << len(joint.features)  # some shared
    classes, informative = joint._relevance
    monkeypatch.setattr(relevance, "_fingerprints", lambda ids: np.zeros(len(ids), np.int64))
    collided = make()
    for (rows, ids), level in zip(levels, collided._lattice(), strict=True):
        assert np.array_equal(level.rows, rows) and np.array_equal(level.ids, ids)
    assert collided._relevance[0] == classes
    assert collided._relevance[1].tobytes() == informative.tobytes()


def dict_grouping(joint, variables):
    """Group ids and masses in pure Python: one group per distinct value tuple.

    Groups are numbered in sorted-tuple order, which is mixed-radix code
    order, and each group's mass is added up in atom order.
    """
    key = sorted(set(variables))
    values = [tuple(int(atom[v]) for v in key) for atom in joint.atoms]
    group = {value: g for g, value in enumerate(sorted(set(values)))}
    mass = [0.0] * len(group)
    for value, m in zip(values, joint.mass.tolist()):
        mass[group[value]] += m
    return [group[value] for value in values], mass


@settings(max_examples=200, deadline=None)
@given(labeled_joints())
def test_lattice_groupings_match_unique_codes(drawn):
    probs, class_index = drawn
    try:
        joint = LabeledJoint.from_dense(probs, class_index)
    except ValueError:  # the class has a single state
        return
    variables = range(len(joint.arities))
    for size in range(len(variables) + 1):
        for subset in itertools.combinations(variables, size):
            ids, mass = joint._grouping(reversed(subset))
            ref_ids, ref_mass = dict_grouping(joint, subset)
            # both number the groups in code order, so the same partition has the same ids
            assert ids.tolist() == ref_ids
            assert mass.tolist() == ref_mass  # bit-equal: summed in atom order


def test_grouping_refuses_more_cells_than_the_index_range():
    # 2**40 * 2**40 cells: a mixed-radix code would wrap past int64
    joint = Joint([1 << 40, 1 << 40, 2], np.array([[0, 1, 0], [1 << 39, 3, 1]]),
                  np.array([0.5, 0.5]))
    assert joint._grouping((0, 2))[0].tolist() == [0, 1]
    with pytest.raises(ValueError):
        joint._grouping((0, 1))


def test_letters_of_true_and_false_outside_probs_load():
    # booleans are looked for among the parsed probabilities, not in the text
    doc = b'{"arities":[2,2],"probs":[0.5,0,0,0.5],"source":"uniform, fixed"}'
    joint = LabeledJoint.from_json(doc)
    assert np.array_equal(joint.mass, [0.5, 0.5])


# ---------------------------------------------------------------------------
# The joint document: the list scan against the whole-document parse
# ---------------------------------------------------------------------------


def load_outcome(data):
    """A loaded joint's arities, atoms, mass bytes and class, or the refusal."""
    try:
        joint = LabeledJoint.from_json(data)
    except ValueError as exc:
        return f"error: {exc}"
    return joint.arities, joint.atoms.tolist(), joint.mass.tobytes(), joint.class_index


def parsed_outcome(data):
    """``load_outcome`` with the list scan refused, so json.loads reads the whole text."""
    with mock.patch.object(relevance, "_scanned_document", side_effect=ValueError):
        return load_outcome(data)


def scan_outcome(data):
    """The scanned document, its kept cells and their masses' bytes, or the scan's refusal."""
    try:
        doc, cells, masses = relevance._scanned_document(data)
    except (ValueError, RecursionError) as exc:
        return f"refused: {exc}"
    assert_kept_cells(data, cells, masses)
    return doc, cells.tolist(), masses.tobytes()


def assert_kept_cells(data, cells, masses):
    """The scan's kept cells ascend and hold every nonzero cell of the whole-document parse.

    The kept masses are the parsed list's as floats, bit for bit, and every
    other cell parses to 0.0, so together they spell the parsed array.
    """
    parsed = relevance._parsed_document(data)[1].astype(float)
    assert np.all(np.diff(cells) > 0)
    assert np.isin(np.flatnonzero(parsed), cells).all()
    assert masses.dtype == float and masses.tobytes() == parsed[cells].tobytes()
    parsed[cells] = 0.0
    assert parsed.tobytes() == bytes(parsed.nbytes)


def assert_scan_ignores_block_edges(data, sizes=range(1, 8)):
    """The scan accepts and keeps the same at each block size in ``sizes`` as by default.

    Sizes 1 to 7 put a block edge at every byte of a canonical token and the
    next one's comma, ``, 0.0,``, so that a period-5 run is cut anywhere.
    """
    expected = scan_outcome(data)
    for size in sizes:
        with mock.patch.object(relevance, "SCAN_BYTES", size):
            assert scan_outcome(data) == expected, size


@pytest.mark.parametrize("zero", ["0", "-0.0", "0e0", "0.00", "0.0"])
@pytest.mark.parametrize("comma", [", ", ",", ",\t", ",\n"])
def test_zero_spellings_load_the_same_atoms(zero, comma):
    canonical = LabeledJoint.from_json(b'{"arities":[2,3],"probs":[0.5, 0.0, 0.0, 0.0, 0.0, 0.5]}')
    tokens = ["0.5", zero, "0.0", zero, zero, "0.5"]
    data = ('{"arities":[2,3],"probs":[' + comma.join(tokens) + "]}").encode()
    joint = LabeledJoint.from_json(data)
    assert np.array_equal(joint.atoms, canonical.atoms)
    assert joint.mass.tobytes() == canonical.mass.tobytes()
    assert_scan_ignores_block_edges(data)


# 8 masses of a [9, 2] joint, weights 8, 9, 4, 6, 4, 4, 8, 5 over 48, with
# kept zero tokens and canonical ones (", 0.0" before a comma) between them
ZERO_TOKEN_MASSES = ("0.16666666666666666, 0.1875, 0, 0.08333333333333333, 0.0, -0.0, 0.125, "
                     "0.08333333333333333, 0e0, 0.0, 0.08333333333333333, 0, "
                     "0.16666666666666666, 0.0, -0.0, 0.10416666666666667, 0.0, 0e0")


def test_zero_tokens_leave_the_total_to_the_nonzero_masses():
    data = ('{"arities": [9, 2], "probs": [%s]}' % ZERO_TOKEN_MASSES).encode()
    values = np.array(json.loads(data)["probs"], dtype=float)
    kept = np.array(json.loads(list_less_canonical_tokens(data)), dtype=float)
    nonzero = values[values != 0.0]
    assert (len(values), len(kept), len(nonzero)) == (18, 14, 8)
    # with the zeros left in, np.sum pairs the masses otherwise and rounds otherwise
    assert kept.sum() == values.sum() == 0.9999999999999999
    assert nonzero.sum() == mass_total(kept) == mass_total(values) == 1.0
    assert relevance._scanned_document(data)[2].tobytes() == kept.tobytes()
    with mock.patch.object(relevance, "_parsed_document", side_effect=AssertionError):
        scanned = load_outcome(data)
    dense = LabeledJoint.from_dense(values.reshape(9, 2))
    assert scanned == parsed_outcome(data) == (
        dense.arities, dense.atoms.tolist(), dense.mass.tobytes(), dense.class_index)
    assert scanned[2] == nonzero.tobytes()  # each over 1.0: 0.9999999999999999 would move all 8


def scanned_list(data):
    """The scan's kept cells and masses, and the bytes of the list it handed to ``json.loads``."""
    loads = mock.Mock(wraps=json.loads)
    with mock.patch.object(relevance.json, "loads", loads):
        cells, masses = relevance._scanned_document(data)[1:]
    return cells, masses, loads.call_args.args[0]


def list_less_canonical_tokens(data):
    """The bytes from the list's ``[`` to its ``]`` less each ``, 0.0`` before a comma."""
    listed = data[data.index(b"[", data.index(b"probs")):-1]  # the document ends in ]}
    return re.sub(rb", 0\.0(?=,)", b"", listed)


# label: a mass list as spelled; where the list repeats with period 5, the
# canonical tokens (", 0.0" before a comma) form stride-5 chains
PERIODIC_LISTS = {
    "ones-before-a-zero": "0.5, 1.0, 1.0, 1.0, 0.0, 0.5",  # a periodic run with no , 0.0,
    "ones-after-zeros": "0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0",
    "halves-between-zeros": "0.0, 0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0",  # 4 bytes of , 0.0
    "two-decimal-zeros": "0.5, 0.00, 0.00, 0.00, 0.0, 0.0, 0.00, 0.5",
    "zero-then-its-prefix": "0.5, 0.0, 0.0, 0.05, 0.45",
    "alternating": "1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0",  # runs of 4 bytes
    "run-of-four": "0.5, 0.0, 0.5",
    "run-of-one": "0.5, 0.0,0.5",  # only the comma repeats 5 bytes on
    "zero-space-zero": "0.5, 0.0 0.0, 0.0, 0.5",
    "zero-space-zero-after": "0.5, 0.0, 0.0 0.0, 0.5",
    "zeros-without-commas": "0.5, 0.0, 0.0  0.0  0.0  0.0, 0.5",  # "  0.0" repeats
    "right-after-the-bracket": ", 0.0, 0.5",
    "first-token-zero": "0.0, 0.0, 0.5",
    "right-before-the-bracket": "0.5, 0.0, 0.0",
    "trailing-comma": "0.5, 0.0,",
    "kept-back-to-back": "0.0, 0.0, 0.5, 0.25, 0.125, 0.0, 0.0, 0.125",
    "crlf-separators": "0.5, 0.0, 0.0,\r\n 0.0, 0.0,\r 0.5",
    # 12 tokens ", 0.5" repeat with period 5, and so word for word, over 60 bytes
    "masses-equal-word-for-word": ", ".join(["0.0"] * 20 + ["0.5"] * 12 + ["0.0"] * 20),
}


@pytest.mark.parametrize("probs", PERIODIC_LISTS.values(), ids=PERIODIC_LISTS.keys())
def test_scan_of_period_5_runs(probs):
    # each list has a canonical token, so the scan takes every valid one
    data = ('{"arities": [%d], "probs": [%s]}' % (probs.count(",") + 1, probs)).encode()
    assert_scan_ignores_block_edges(data, sizes=(*range(1, 8), 64))
    try:
        relevance._parsed_document(data)
    except ValueError:
        with pytest.raises(ValueError):
            relevance._scanned_document(data)
        return
    cells, masses, kept = scanned_list(data)
    assert_kept_cells(data, cells, masses)
    assert kept == list_less_canonical_tokens(data)


def test_grid_document_is_scanned(grid):
    data = grid.to_json().encode()
    with mock.patch.object(relevance, "_parsed_document", side_effect=AssertionError):
        joint = LabeledJoint.from_json(data)
    assert load_outcome(data) == parsed_outcome(data)
    assert np.array_equal(joint.atoms, grid.atoms)
    assert joint.mass.tobytes() == grid.mass.tobytes()


ZERO_TOKENS = ("0.0",) * 6 + ("0", "-0.0", "0e0", "0.00", "0E+3")
ODD_TOKENS = ("NaN", "Infinity", "-Infinity", "true", "false", "null", '"0.5"', "[0.5]",
              "{}", "", "0.0 0.0", "-0.5", "1e400", "9223372036854775808",
              "-9223372036854775809", "18446744073709551615", "18446744073709551616")
SEPARATORS = (", ",) * 4 + (",", ",\t", ",\n", ",\r\n", " , ")


@st.composite
def joint_documents(draw):
    """Joint documents as a writer might spell them, most of them loadable.

    Cells are zeros in any spelling or masses that total 1; a drawn share
    of tokens is odd, the list a token short or long, keys in any order,
    missing, duplicated, escaped, or nested under another key.
    """
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)) + [draw(st.integers(2, 3))]
    size = int(np.prod(arities))
    present = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    present[-1] = present[-2] = True  # two class states carry mass
    weights = [draw(st.sampled_from((1, 2, 3))) if p else 0 for p in present]
    total = sum(weights)
    tokens = []
    for w in weights:
        if w == 0:
            tokens.append(draw(st.sampled_from(ZERO_TOKENS)))
        else:
            mass = w / total
            tokens.append(draw(st.sampled_from((repr(mass), f"{mass:.17e}"))))
    if draw(st.integers(0, 9)) == 0:
        tokens = [str(w) for w in weights]  # integer masses, total off 1
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at] = draw(st.sampled_from(ODD_TOKENS))
    resize = draw(st.sampled_from((0,) * 18 + (-1, 1)))
    tokens = tokens[:len(tokens) + resize] if resize < 0 else tokens + ["0.0"] * resize
    body = draw(st.sampled_from(("", "", " ", "\n"))) + tokens[0]
    for token in tokens[1:]:
        body += draw(st.sampled_from(SEPARATORS)) + token
    body += draw(st.sampled_from(("", "", " ", "\n")))
    class_index = draw(st.sampled_from((None, len(arities) - 1, 0)))
    members = [('"arities"', json.dumps(arities, separators=draw(
                   st.sampled_from(((", ", ": "), (",", ":"))))))]
    if draw(st.integers(0, 9)):
        key = draw(st.sampled_from(('"probs"',) * 9 + ('"prob\\u0073"',)))
        members.append((key, "[" + body + "]"))
    if class_index is not None:
        members.append(('"class_index"', str(class_index)))
    source = draw(st.sampled_from((None, None, '"uniform, fixed [0.0, 0.0]"',
                                   '"uniform \\"probs\\" [0.0, 0.0]"')))
    if source is not None:
        members.append(('"source"', source))
    if draw(st.integers(0, 7)) == 0:
        members.append(('"meta"', '{"probs": [' + body + ']}'))
    if draw(st.integers(0, 7)) == 0:
        key, value = draw(st.sampled_from(members))
        members.append((draw(st.sampled_from((key, key.replace("s", "\\u0073")))), value))
    members = draw(st.permutations(members))
    colon = draw(st.sampled_from((": ", ":", " : ")))
    comma = draw(st.sampled_from((", ", ",", ",\n  ")))
    return "{" + comma.join(key + colon + value for key, value in members) + "}"


def boundary_document(probs):
    """A 3 x 2 joint whose list is ``probs``, spelled as given."""
    return '{"arities":[3,2],"probs":[' + probs + "]}"


@settings(max_examples=500, deadline=None)
@given(joint_documents())
@explicit_example(boundary_document("0.0, 0.0, 0.0, 0.0, 0.5, 0.5"))  # a first token 0.0
@explicit_example(boundary_document("0.5, 0.5, 0.0, 0.0, 0.0, 0.0"))  # a last token , 0.0]
@explicit_example(boundary_document("0.5, 0.5, 0.0, 0.0 , 0.0, 0.0"))
@explicit_example(boundary_document("0.5, 0.5, 0.0, 0.00, 0.0, 0.0"))
@explicit_example(boundary_document("0.5, 0.5, 0.0, 0.0e0, 0.0, 0.0"))
@explicit_example(boundary_document("0.49, 0.5, 0.0, 0.01, 0.0, 0.0"))
@explicit_example(boundary_document("0.5, 0.5, 0.0,0.0, 0.0, 0.0"))
@explicit_example(boundary_document("1.0, 0.0, 0.0, 0.0, 0.0, 0.0"))  # canonical after the first
@explicit_example(boundary_document("0.0, 0.0, 0.0, 0.0, 0.5, "))  # a block starts at the last comma
@explicit_example('{"arities":[1,2],"meta":{"probs":[0.5, 0.5]},"prob\\u0073":[]}')
@explicit_example('{"arities":[1,2],"probs":[0.5, 0.5],"prob\\u0073":[0.5, 0.5]}')
@explicit_example('{"arities":[2],"probs":[12]}')
@explicit_example('{"arities":[3,2],"source":"été","probs":[0.5, 0.5, 0.0, 0.0, 0.0, 0.0]}')
@explicit_example('{"arities":[1,1],"probs":[]}')
def test_scan_agrees_with_whole_document_parse(text):
    data = text.encode()
    assert load_outcome(data) == parsed_outcome(data)
    assert_scan_ignores_block_edges(data)
    try:
        doc, cells, masses = relevance._scanned_document(data)
    except ValueError:
        return
    assert_kept_cells(data, cells, masses)  # what was scanned is valid: it parses
    parsed_doc = relevance._parsed_document(data)[0]
    assert doc["arities"] == parsed_doc["arities"]
    assert doc.get("class_index") == parsed_doc.get("class_index")


KEPT_ZEROS = ("0", "-0.0", "0.00", "0e0")


@st.composite
def long_documents(draw):
    """Documents of at least 10^4 cells: runs of canonical zeros between kept tokens."""
    mass = st.floats(1e-300, 1.0).flatmap(lambda m: st.sampled_from((repr(m), f"{m:.17e}")))
    kept = st.one_of(mass, st.sampled_from(KEPT_ZEROS))
    tokens = [draw(st.one_of(kept, st.just("0.0")))]  # the first token holds the [
    for run, token in draw(st.lists(st.tuples(st.integers(0, 3000), kept), max_size=30)):
        tokens += ["0.0"] * run + [token]
    tokens += ["0.0"] * draw(st.integers(0, 50))  # the last token holds the ]
    tokens[1:1] = ["0.0"] * max(0, 10**4 - len(tokens))
    return ('{"arities": [%d], "probs": [%s]}' % (len(tokens), ", ".join(tokens))).encode()


@settings(max_examples=50, deadline=None)
@given(long_documents())
def test_long_scan_agrees_with_whole_document_parse(data):
    doc, cells, masses = relevance._scanned_document(data)
    assert_kept_cells(data, cells, masses)
    parsed_doc = relevance._parsed_document(data)[0]
    assert doc.keys() == parsed_doc.keys() and doc["arities"] == parsed_doc["arities"]
    assert scanned_list(data)[2] == list_less_canonical_tokens(data)
    assert_scan_ignores_block_edges(data, sizes=(64,))


def assert_scan_is_the_parse(data, sizes=(relevance.SCAN_BYTES, 64)):
    """The scan keeps the whole-document parse's masses, bit for bit, at each block size."""
    for size in sizes:
        with mock.patch.object(relevance, "SCAN_BYTES", size):
            doc, cells, masses = relevance._scanned_document(data)
        assert_kept_cells(data, cells, masses)


@pytest.mark.parametrize("offset", range(8))
def test_scan_at_each_word_offset(offset):
    # the scan compares 8-byte words of the list before its bytes: the list
    # starts at each offset mod 8 in the document, and its tokens at each
    # offset mod 8 in the list, so kept tokens straddle word edges every way
    tokens = ["0.0"] * 40 + ["0.25", "0.0", "0.5"] + ["0.0"] * 13 + ["0.125", "0.125"]
    tokens += ["0.0"] * 30
    head = '{"arities": [%d], "probs": ' % len(tokens)
    head += " " * ((offset - len(head)) % 8)
    for shift in range(8):
        data = (head + "[" + " " * shift + ", ".join(tokens) + "]}").encode()
        assert data.index(b"[", data.index(b"probs")) % 8 == offset
        assert load_outcome(data) == parsed_outcome(data)
        assert_scan_is_the_parse(data)


def scan_blocks(data):
    """The scan's blocks as ``(a, b, lo, hi)``: the block ``[a, b)`` and its runs."""
    blocks, period_runs = [], relevance._period_runs

    def record(body, width):
        a = 0
        for b, lo, hi in period_runs(body, width):
            blocks.append((a, b, lo, hi))
            a = b
            yield b, lo, hi

    with mock.patch.object(relevance, "_period_runs", record):
        relevance._scanned_document(data)
    return blocks


@pytest.mark.parametrize("size", [relevance.SCAN_BYTES, 64])
def test_scan_merges_sparse_chunks_around_a_dense_one(size):
    # long runs of zeros, then masses that break period 5 in most words, then
    # zeros again: the zeros' chunks merge into blocks of more than one chunk,
    # and the masses' chunks compare bytes, whose runs skip adjacent breaks
    rng = np.random.default_rng(3)
    masses = [repr(m) for m in (rng.random(30_000) / 15_000).tolist()]
    tokens = ["0.0"] * 120_000 + masses + ["0.0"] * 120_000
    data = ('{"arities": [%d], "probs": [%s]}' % (len(tokens), ", ".join(tokens))).encode()
    assert len(data) > 6 * relevance.SCAN_BYTES
    with mock.patch.object(relevance, "SCAN_BYTES", size):
        blocks = scan_blocks(data)
    assert any(b - a > size for a, b, _, _ in blocks)  # merged
    assert any(np.any(lo[1:] - hi[:-1] > 1) for _, _, lo, hi in blocks)  # the byte compare
    assert_scan_is_the_parse(data)


def traced_peak(load, data):
    """The tracemalloc peak of ``load(data)``, in bytes."""
    tracemalloc.start()
    try:
        load(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_allocates_no_array_per_cell(grid):
    # the list is read in place and scanned in blocks of SCAN_BYTES; a mask or
    # an integer array over the whole list would push the peak past 3 bytes per byte
    data = grid.to_json().encode()
    assert traced_peak(relevance._scanned_document, data) < 3 * len(data)


def test_grid_document_loads_without_an_array_per_cell(grid):
    # the load keeps only the kept tokens' cells and masses: one float per
    # cell of the grid joint's 1,327,104 would alone be 10.1 MiB
    assert math.prod(grid.arities) == 1_327_104
    assert traced_peak(LabeledJoint.from_json, grid.to_json().encode()) < 1 << 20


def test_scan_of_scattered_zeros_allocates_no_array_per_byte():
    # 2% of 262,144 cells carry mass, each alone among canonical zeros, so the
    # list breaks period 5 at most bytes of a kept token; an array a break
    # over the whole list would push the peak far past 3 bytes per byte
    rng = np.random.default_rng(0)
    dense = rng.random([8] * 6) * (rng.random([8] * 6) < 0.02)
    data = LabeledJoint.from_dense(dense / dense.sum()).to_json().encode()
    assert traced_peak(relevance._scanned_document, data) < 3 * len(data)
