"""Feature relevance analysis on finite discrete labeled joints.

Implements the distributional definitions: a feature set is maximally
informative when conditioning on the remaining features cannot change
the class conditional; relevance-optimal sets are the smallest such
sets; features partition into strongly relevant / weakly relevant /
irrelevant, and Markov blanket filtering extracts one relevance-optimal
set by backward elimination.

A joint is only its nonzero support atoms: one integer array of cell
indices and one mass vector, which ``from_json`` takes straight from the
document's flat mass list with no dense table in between, so desk-scale
tables with millions of cells but a few hundred atoms stay fast.  Projecting
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
import math
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .oracle import ScenarioSpec, class_labels, feature_matrix

PROB_TOLERANCE = 1e-9
MASS_TOLERANCE = 1e-9
MAX_SEARCH_FEATURES = 12


def mass_total(probs: np.ndarray) -> float:
    """Total of a mass array; ValueError unless non-negative, finite and near 1."""
    if np.any(probs < 0.0):
        raise ValueError("negative probability mass")
    total = float(probs.sum())
    if not np.isfinite(total):
        raise ValueError(f"total mass {total} is not finite")
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise ValueError(f"total mass {total} not within {MASS_TOLERANCE} of 1")
    return total


class RelevanceClass(Enum):
    SR = "strongly relevant"
    WR = "weakly relevant"
    WR_NR = "weakly relevant, non-redundant"
    WR_R = "weakly relevant, redundant"
    IRRELEVANT = "irrelevant"


class LabeledJoint:
    """The support atoms of a joint, one variable designated as the class.

    ``atoms`` holds the cell index of each nonzero cell, one row per atom
    in row-major order, and ``mass`` their normalised probabilities.
    """

    def __init__(self, arities: Sequence[int], atoms: np.ndarray, mass: np.ndarray,
                 class_index: int | None = None):
        nvars = len(arities)
        if class_index is None:
            class_index = nvars - 1
        if type(class_index) is not int or not 0 <= class_index < nvars:
            raise ValueError(f"class index must be an integer in [0, {nvars}), got {class_index!r}")
        if nvars < 2:
            raise ValueError("need at least one feature besides the class")
        if len(np.unique(atoms[:, class_index])) < 2:
            raise ValueError("class variable must have at least two states")
        self.arities = tuple(arities)
        self.atoms = atoms
        self.mass = mass
        self.class_index = class_index
        self.features: tuple[int, ...] = tuple(v for v in range(nvars) if v != class_index)
        self._groupings: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._classes: dict[int, RelevanceClass] = {}

    @classmethod
    def from_dense(cls, probs: np.ndarray, class_index: int | None = None) -> "LabeledJoint":
        """The joint of a dense mass array; each mass is its cell / the checked total."""
        probs = np.asarray(probs, dtype=float)
        flat = probs.ravel()
        cells = np.flatnonzero(flat)
        atoms = np.column_stack(np.unravel_index(cells, probs.shape))
        return cls(probs.shape, atoms, flat[cells] / mass_total(flat), class_index)

    # -- conditional machinery ---------------------------------------------

    def _grouping(self, variables: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Group id of each atom by its projection on ``variables``, and group masses.

        Each group's mass is summed in atom order, so a conditional
        probability is the same float whichever grouping it comes from.
        """
        key = tuple(sorted(set(variables)))
        cached = self._groupings.get(key)
        if cached is None:
            codes = np.zeros(len(self.mass), dtype=np.int64)
            for v in key:
                codes = codes * self.arities[v] + self.atoms[:, v]
            _, ids = np.unique(codes, return_inverse=True)
            cached = (ids, np.bincount(ids, weights=self.mass))
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
            if not 0 <= f < len(self.arities):
                raise ValueError(f"feature index {f} out of range")

    def to_json(self) -> str:
        """The dense document ``from_json`` reads, zero cells included."""
        probs = np.zeros(self.arities)
        probs[tuple(self.atoms.T)] = self.mass
        return json.dumps({"arities": list(self.arities), "probs": probs.ravel().tolist(),
                           "class_index": self.class_index})

    @classmethod
    def from_json(cls, text: str) -> "LabeledJoint":
        """Parse ``{"arities": [...], "probs": [...flat row-major...], "class_index": ...}``."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        arities = doc.get("arities")
        if not (isinstance(arities, list) and arities
                and all(type(a) is int and a > 0 for a in arities)):
            raise ValueError(f"arities must be one or more positive integers, got {arities!r}")
        # a dtype check, not a loop over a million cells: strings, nulls, nested
        # or all-boolean lists give another dtype or ndim; a ragged nest raises
        flat = np.asarray(doc.get("probs"))
        if flat.ndim != 1 or flat.dtype.kind not in "iuf" or len(flat) != math.prod(arities):
            raise ValueError(f"probs must be a flat list of {math.prod(arities)} numbers")
        return cls.from_dense(flat.reshape(arities), doc.get("class_index"))


def _coarser(fine_ids: np.ndarray, n_fine: int, coarse_ids: np.ndarray) -> np.ndarray:
    """Coarse group of each fine group, for a grouping refined by another."""
    out = np.empty(n_fine, dtype=coarse_ids.dtype)
    out[fine_ids] = coarse_ids
    return out


# ---------------------------------------------------------------------------
# Fixture builders
# ---------------------------------------------------------------------------

def _equal_mass_joint(columns: list[np.ndarray]) -> LabeledJoint:
    """Each row has mass 1/rows; a variable's states are its sorted distinct values."""
    codes = np.column_stack([np.unique(c, return_inverse=True)[1] for c in columns])
    atoms, counts = np.unique(codes, axis=0, return_counts=True)
    arities = [int(c.max()) + 1 for c in codes.T]
    return LabeledJoint(arities, atoms, counts / len(codes))


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
    return _equal_mass_joint([v1, v2, v3, v4, v5, cls])


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
    return _equal_mass_joint([feats[:, i] for i in range(feats.shape[1])] + [cls])
