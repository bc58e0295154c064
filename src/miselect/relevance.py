"""Feature relevance analysis on finite discrete labeled joints.

Implements the distributional definitions: a feature set is maximally
informative when conditioning on the remaining features cannot change
the class conditional; relevance-optimal sets are the smallest such
sets; features partition into strongly relevant / weakly relevant /
irrelevant, and Markov blanket filtering extracts one relevance-optimal
set by backward elimination.

Checks run on the nonzero support atoms of the joint, held as one
integer array of cell indices and one mass vector, so desk-scale tables
with millions of cells but a few hundred atoms stay fast.  Projecting
the atoms on a variable subset gives each atom a mixed-radix code;
``np.unique`` turns the codes into dense group ids and ``np.bincount``
sums the group masses in atom order.  Each subset's grouping is computed
once per joint, and every conditional probability is the quotient of two
group masses.  Relevance-optimal sets come from an exhaustive search
over feature subsets, which is bounded at ``MAX_SEARCH_FEATURES``.
"""

from __future__ import annotations

import itertools
import json
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .infotheory import JointTable
from .oracle import ScenarioSpec, class_labels, feature_matrix

PROB_TOLERANCE = 1e-9
MAX_SEARCH_FEATURES = 12


class RelevanceClass(Enum):
    SR = "strongly relevant"
    WR = "weakly relevant"
    WR_NR = "weakly relevant, non-redundant"
    WR_R = "weakly relevant, redundant"
    IRRELEVANT = "irrelevant"


class LabeledJoint:
    """A joint table with one variable designated as the class."""

    def __init__(self, table: JointTable, class_index: int | None = None):
        if class_index is None:
            class_index = table.nvars - 1
        if not 0 <= class_index < table.nvars:
            raise ValueError(f"class index {class_index} out of range")
        if table.nvars < 2:
            raise ValueError("need at least one feature besides the class")
        self.table = table
        self.class_index = class_index
        self.features: tuple[int, ...] = tuple(
            v for v in range(table.nvars) if v != class_index
        )
        class_mass = table.marginal((class_index,))
        if np.count_nonzero(class_mass) < 2:
            raise ValueError("class variable must have at least two states")
        # support atoms: cell indices (n_atoms, nvars) and masses, row-major
        self._atoms = np.argwhere(table.probs > 0.0)
        self._mass = table.probs[tuple(self._atoms.T)]
        self._groupings: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._classes: dict[int, RelevanceClass] = {}

    # -- conditional machinery ---------------------------------------------

    def _grouping(self, variables: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Group id of each atom by its projection on ``variables``, and group masses.

        Each group's mass is summed in atom order, so a conditional
        probability is the same float whichever grouping it comes from.
        """
        key = tuple(sorted(set(variables)))
        cached = self._groupings.get(key)
        if cached is None:
            codes = np.zeros(len(self._mass), dtype=np.int64)
            for v in key:
                codes = codes * self.table.arities[v] + self._atoms[:, v]
            _, ids = np.unique(codes, return_inverse=True)
            cached = (ids, np.bincount(ids, weights=self._mass))
            self._groupings[key] = cached
        return cached

    def _conditioning_invariant(
        self, extra: Sequence[int], base: Sequence[int], over: Sequence[int]
    ) -> bool:
        """True iff P(over | base, extra) == P(over | base) on all atoms.

        A value of ``over`` seen under a base key but under none of the
        atoms of one of its (base, extra) keys has probability 0 there.
        """
        n_ids, n_mass = self._grouping(base)
        w_ids, w_mass = self._grouping((*base, *extra))
        no_ids, no_mass = self._grouping((*base, *over))
        wo_ids, wo_mass = self._grouping((*base, *extra, *over))
        p_narrow = no_mass[no_ids] / n_mass[n_ids]
        if np.any(np.abs(wo_mass[wo_ids] / w_mass[w_ids] - p_narrow) > PROB_TOLERANCE):
            return False
        # a value is absent under some wide key when fewer wide keys carry
        # it than there are wide keys under its base key
        keys_with_value = np.bincount(_coarser(wo_ids, len(wo_mass), no_ids))[no_ids]
        keys_in_base = np.bincount(_coarser(w_ids, len(w_mass), n_ids))[n_ids]
        absent = keys_with_value < keys_in_base
        return not np.any(absent & (p_narrow > PROB_TOLERANCE))

    # -- definitions ---------------------------------------------------------

    def is_maximally_informative(self, subset: Iterable[int]) -> bool:
        subset = tuple(subset)
        self._check_features(subset)
        rest = tuple(f for f in self.features if f not in subset)
        if not rest:
            return True
        return self._conditioning_invariant(rest, subset, (self.class_index,))

    def classify_feature(self, i: int) -> RelevanceClass:
        cls = self._classes.get(i)
        if cls is None:
            cls = self._classes[i] = self._classify(i)
        return cls

    def _classify(self, i: int) -> RelevanceClass:
        self._check_features((i,))
        others = tuple(f for f in self.features if f != i)
        if not self.is_maximally_informative(others):
            return RelevanceClass.SR
        for size in range(len(others) + 1):
            for subset in itertools.combinations(others, size):
                if not self._conditioning_invariant((i,), subset, (self.class_index,)):
                    return RelevanceClass.WR
        return RelevanceClass.IRRELEVANT

    def check_search_bound(self) -> None:
        """Raise ValueError when there are too many features for exhaustive search."""
        if len(self.features) > MAX_SEARCH_FEATURES:
            raise ValueError(
                f"{len(self.features)} features exceed the exhaustive-search "
                f"bound of {MAX_SEARCH_FEATURES}"
            )

    def relevance_optimal_sets(self) -> list[tuple[int, ...]]:
        """All minimum-size maximally informative subsets, lexicographic."""
        self.check_search_bound()
        for size in range(len(self.features) + 1):
            found = [
                subset
                for subset in itertools.combinations(self.features, size)
                if self.is_maximally_informative(subset)
            ]
            if found:
                return found
        raise AssertionError("the full feature set is always maximally informative")

    def has_markov_blanket(
        self, i: int, blanket: Iterable[int], within: Iterable[int] | None = None
    ) -> bool:
        """Does ``blanket`` make feature ``i`` uninformative about the rest?

        The test conditions the joint of (class, remaining features of
        ``within``) on the blanket, with and without feature ``i``.
        """
        blanket = tuple(blanket)
        scope = tuple(within) if within is not None else self.features
        self._check_features((i,) + blanket + scope)
        if i in blanket:
            raise ValueError("a feature cannot belong to its own blanket")
        rest = tuple(f for f in scope if f != i and f not in blanket)
        return self._conditioning_invariant(
            (i,), blanket, (self.class_index,) + rest
        )

    def markov_blanket_filter(self) -> tuple[int, ...]:
        """Backward elimination from the relevant features.

        At each round the highest-index feature possessing a blanket is
        removed, so the earliest of a group of mutually redundant
        features is the one kept; the result is a relevance-optimal set.
        """
        remaining = [
            f
            for f in self.features
            if self.classify_feature(f) is not RelevanceClass.IRRELEVANT
        ]
        while True:
            removable = None
            for i in reversed(remaining):
                if self._has_any_blanket(i, remaining):
                    removable = i
                    break
            if removable is None:
                return tuple(remaining)
            remaining.remove(removable)

    def _has_any_blanket(self, i: int, scope: Sequence[int]) -> bool:
        candidates = tuple(f for f in scope if f != i)
        for size in range(len(candidates) + 1):
            for blanket in itertools.combinations(candidates, size):
                if self.has_markov_blanket(i, blanket, within=scope):
                    return True
        return False

    def partition(
        self, optimal_set: Iterable[int] | None = None
    ) -> dict[int, RelevanceClass]:
        """Four-way split; WR features divide relative to ``optimal_set``."""
        if optimal_set is None:
            optimal_set = self.markov_blanket_filter()
        chosen = set(optimal_set)
        out: dict[int, RelevanceClass] = {}
        for f in self.features:
            cls = self.classify_feature(f)
            if cls is RelevanceClass.WR:
                cls = RelevanceClass.WR_NR if f in chosen else RelevanceClass.WR_R
            out[f] = cls
        return out

    # -- plumbing -------------------------------------------------------------

    def _check_features(self, subset: Sequence[int]) -> None:
        for f in subset:
            if f == self.class_index:
                raise ValueError("the class variable is not a feature")
            if not 0 <= f < self.table.nvars:
                raise ValueError(f"feature index {f} out of range")

    def to_json(self) -> str:
        doc = json.loads(self.table.to_json())
        doc["class_index"] = self.class_index
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "LabeledJoint":
        doc = json.loads(text)
        table = JointTable.from_doc(doc)
        class_index = doc.get("class_index")
        if class_index is not None and type(class_index) is not int:
            raise ValueError(f"class_index must be an integer, got {class_index!r}")
        return cls(table, class_index)


def _coarser(fine_ids: np.ndarray, n_fine: int, coarse_ids: np.ndarray) -> np.ndarray:
    """Coarse group of each fine group, for a grouping refined by another."""
    out = np.empty(n_fine, dtype=coarse_ids.dtype)
    out[fine_ids] = coarse_ids
    return out


# ---------------------------------------------------------------------------
# Fixture builders
# ---------------------------------------------------------------------------

def _table_from_columns(columns: list[np.ndarray], mass: np.ndarray) -> JointTable:
    supports = [np.unique(col) for col in columns]
    probs = np.zeros([len(s) for s in supports])
    coded = [np.searchsorted(s, col) for s, col in zip(supports, columns)]
    np.add.at(probs, tuple(coded), mass)
    return JointTable(probs)


def duplicated_features_example() -> LabeledJoint:
    """Five-feature joint with a duplicated pair and a squared irrelevant one.

    V1, V2, V4 are independent uniform grid variables, V3 = 3*V2 + 1,
    V5 = V4^2, and the class is 1{V1 + 0.5*V2 >= 0}.  V1 is the only
    strongly relevant feature, V2/V3 are interchangeable weakly relevant
    duplicates, V4/V5 are irrelevant, and the relevance-optimal sets are
    {V1,V2} and {V1,V3}.
    """
    grid = np.array([-0.3, -0.1, 0.1, 0.3])
    v1, v2, v4 = (g.ravel() for g in np.meshgrid(grid, grid, grid, indexing="ij"))
    v3 = 3.0 * v2 + 1.0
    v5 = v4 * v4
    cls = (v1 + 0.5 * v2 >= 0.0).astype(float)
    mass = np.full(v1.size, 1.0 / v1.size)
    return LabeledJoint(_table_from_columns([v1, v2, v3, v4, v5, cls], mass))


def grid_scenario_joint(
    spec: ScenarioSpec, grid: Sequence[float] = (-0.9, -0.1, 0.1, 0.9)
) -> LabeledJoint:
    """Discrete analogue of the uniform scenario on a symmetric driver grid.

    The drivers X, Y, Z, W take the grid values uniformly and the ten
    features are computed exactly, so every functional dependence among
    them survives discretization.  The grid must be sign-asymmetric
    enough that k*Y can flip the class for small |X| (the default is),
    otherwise Y degenerates to an irrelevant feature.
    """
    g = np.asarray(grid, dtype=float)
    x, y, z, w = (v.ravel() for v in np.meshgrid(g, g, g, g, indexing="ij"))
    feats = feature_matrix(x, y, z, w, spec)
    if np.any(x + spec.k * y == 0.0):
        raise ValueError("grid places atoms exactly on the class boundary")
    cls = class_labels(x, y, spec).astype(float)
    columns = [feats[:, i] for i in range(feats.shape[1])] + [cls]
    mass = np.full(x.size, 1.0 / x.size)
    return LabeledJoint(_table_from_columns(columns, mass))
