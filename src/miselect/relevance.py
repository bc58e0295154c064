"""Feature relevance analysis on finite discrete labeled joints.

Implements the distributional definitions: a feature set is maximally
informative when conditioning on the remaining features cannot change
the class conditional; relevance-optimal sets are the smallest such
sets; features partition into strongly relevant / weakly relevant /
irrelevant, and Markov blanket filtering extracts one relevance-optimal
set by backward elimination.

A labeled joint is a :class:`~miselect.infotheory.Joint`, the nonzero
support atoms and their subset lattice, with one variable designated as
the class; ``from_json`` takes the atoms straight from the document's
flat mass list with no dense table in between.  Conditioning invariance
compares two conditional tables, P(over | wide key) and P(over | narrow
key), with 0 for a value absent under a key: for the class, one cached
dense table per key, the narrow one indexed by each wide group's narrow
group; for a wide ``over``, one row per (narrow key, over) value present
and one column per value of the extra feature.  Relevance-optimal sets
come from an exhaustive search over feature subsets, which is bounded at
``MAX_SEARCH_FEATURES``.
"""

from __future__ import annotations

import itertools
import json
import math
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .infotheory import Joint
from .oracle import ScenarioSpec, class_labels, feature_matrix

PROB_TOLERANCE = 1e-9
MAX_SEARCH_FEATURES = 12


class RelevanceClass(Enum):
    SR = "strongly relevant"
    WR = "weakly relevant"
    WR_NR = "weakly relevant, non-redundant"
    WR_R = "weakly relevant, redundant"
    IRRELEVANT = "irrelevant"


class LabeledJoint(Joint):
    """A joint with one variable designated as the class."""

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
        super().__init__(arities, atoms, mass)
        self.class_index = class_index
        self.features: tuple[int, ...] = tuple(v for v in range(nvars) if v != class_index)
        self._class_tables: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._classes: dict[int, RelevanceClass] = {}

    # -- conditional machinery ---------------------------------------------

    def _class_table(self, variables: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Group ids of ``variables`` and P(class | group), 0 for an absent class value."""
        key = tuple(sorted(set(variables)))
        cached = self._class_tables.get(key)
        if cached is None:
            ids, mass = self._grouping(key)
            class_ids, class_mass = self._grouping((self.class_index,))
            n_class = len(class_mass)
            joint = np.bincount(ids * n_class + class_ids, weights=self.mass,
                                minlength=len(mass) * n_class)
            cached = (ids, joint.reshape(-1, n_class) / mass[:, None])
            self._class_tables[key] = cached
        return cached

    def _conditioning_invariant(
        self, extra: Sequence[int], base: Sequence[int], over: Sequence[int]
    ) -> bool:
        """True iff P(over | base, extra) == P(over | base) for every value of ``over``.

        A value of ``over`` absent under a key has probability 0 there.
        """
        if tuple(over) == (self.class_index,):
            # one cached table per key: each wide group against its base group
            w_ids, wide = self._class_table((*base, *extra))
            n_ids, narrow = self._class_table(base)
            parent = np.empty(len(wide), dtype=n_ids.dtype)
            parent[w_ids] = n_ids
            return not np.abs(wide - narrow[parent]).max() > PROB_TOLERANCE
        # A wide ``over`` can have as many values as there are atoms, so no
        # dense table over it: one row per (base, over) value present, one
        # column per value of ``extra``, a single feature in has_markov_blanket.
        n_ids, n_mass = self._grouping(base)
        x_ids, x_mass = self._grouping(extra)
        o_ids, o_mass = self._grouping(over)
        n_x = len(x_mass)
        cells, cell_ids = np.unique(n_ids * len(o_mass) + o_ids, return_inverse=True)
        cell_base = cells // len(o_mass)
        narrow = np.bincount(cell_ids, weights=self.mass) / n_mass[cell_base]
        wide_mass = np.bincount(n_ids * n_x + x_ids, weights=self.mass,
                                minlength=len(n_mass) * n_x).reshape(-1, n_x)[cell_base]
        cell_mass = np.bincount(cell_ids * n_x + x_ids, weights=self.mass,
                                minlength=len(cells) * n_x).reshape(-1, n_x)
        rows, cols = np.nonzero(wide_mass)  # the (base, extra) keys present
        wide = cell_mass[rows, cols] / wide_mass[rows, cols]
        return not np.abs(wide - narrow[rows]).max() > PROB_TOLERANCE

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
        probs = doc.get("probs")
        flat = np.asarray(probs)
        if (flat.ndim != 1 or flat.dtype.kind not in "iuf" or len(flat) != math.prod(arities)
                # a true or false among numbers reads as 1 or 0; only a text holding the
                # "u" of true or the "f" of false, which no finite number holds, can have one
                or (("u" in text or "f" in text) and any(type(p) is bool for p in probs))):
            raise ValueError(f"probs must be a flat list of {math.prod(arities)} numbers")
        return cls.from_dense(flat.reshape(arities), doc.get("class_index"))


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
