"""Feature relevance analysis on finite discrete labeled joints.

Implements the distributional definitions: a feature set is maximally
informative when conditioning on the remaining features cannot change
the class conditional; relevance-optimal sets are the smallest such
sets; features partition into strongly relevant / weakly relevant /
irrelevant, and Markov blanket filtering extracts one relevance-optimal
set by backward elimination.

A labeled joint is a :class:`~miselect.infotheory.Joint`, the nonzero
support atoms and their subset lattice, with one variable designated as
the class.  ``from_json`` reads the document's flat, row-major mass list
into one dense float array and takes the atoms from it.  A plain
document's list is scanned by byte masks: each token that is the
canonical zero (``0.0`` after ``, ``) is an empty cell, and only the bytes
of the other tokens go to ``json.loads``.  Any other document is parsed
whole by ``json.loads``, which words every refusal; both routes fill the
same array, so the masses are bit-equal.  Conditioning invariance
compares two conditionals, P(over | wide key) and P(over | narrow key),
with 0 for a value absent under a key.  For the class, P(class | S-group
of each atom) is built once for every feature subset S, one lattice level
at a time and in blocks of subsets, keeping only the level below; the
relevance classes and the maximally-informative tests compare slices of
it.  For the wider ``over`` of a Markov blanket test, there is one row per
(narrow key, over) value present and one column per value of the extra
feature.  Relevance-optimal sets come from an exhaustive search over
feature subsets, which is bounded at ``MAX_SEARCH_FEATURES``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .infotheory import Joint
from .oracle import ScenarioSpec, class_labels, feature_matrix

PROB_TOLERANCE = 1e-9
MAX_SEARCH_FEATURES = 12
BLOCK_CELLS = 1 << 19  # (subset, member, atom) triples per block of the lattice


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
        self._lattice: tuple[dict[int, RelevanceClass], np.ndarray] | None = None

    # -- conditional machinery ---------------------------------------------

    def _class_conditional(self, ids: np.ndarray, n_groups: int) -> np.ndarray:
        """P(class | group), 0 for an absent value, of the groups ``ids`` numbers row by row."""
        class_ids, class_mass = self._grouping((self.class_index,))
        n_class = len(class_mass)
        weights = np.tile(self.mass, len(ids))  # no group spans two rows: summed in atom order
        joint = np.bincount((ids * n_class + class_ids).ravel(), weights=weights,
                            minlength=n_groups * n_class)
        mass = np.bincount(ids.ravel(), weights=weights, minlength=n_groups)
        return joint.reshape(-1, n_class) / mass[:, None]

    def _lattice_blocks(self):
        """P(class | S-group of each atom) of every feature subset S, level by level.

        Yields per block of subsets their bitmasks (bit j for ``features[j]``),
        the conditionals (subsets, atoms, classes), and the level below as (row
        of each mask, group ids, P(class | group)).  A subset's groups are its
        parent's, the subset less its highest bit, relabelled as
        ``Joint._grouping`` does, each row's codes offset past the rows before.
        """
        d, n = len(self.features), len(self.mass)
        bits = 1 << np.arange(d)
        arity, values = np.take(self.arities, self.features), self.atoms[:, self.features].T
        masks, ids = np.zeros(1, dtype=np.intp), np.zeros((1, n), dtype=np.intp)
        cond = self._class_conditional(ids, 1)
        yield masks, np.take(cond, ids, axis=0), None
        for size in range(1, d + 1):
            row = np.zeros(1 << d, dtype=np.intp)
            row[masks] = np.arange(len(masks))
            below, low = (row, ids, cond), ids.min(axis=1)  # a row's groups are low, low + 1, ...
            parent, new = np.nonzero(masks[:, None] < bits)  # new above every parent bit
            step = max(1, BLOCK_CELLS // (n * size))
            ids, conds, base = np.empty((len(parent), n), dtype=np.intp), [], 0
            for at in range(0, len(parent), step):
                p, k = parent[at:at + step], new[at:at + step]
                local = below[1][p] - low[p, None]
                span = (local.max(axis=1) + 1) * arity[k]
                codes = local * arity[k, None] + values[k] + (np.cumsum(span) - span)[:, None]
                present = np.zeros(span.sum(), dtype=bool)
                present[codes] = True
                dense = np.cumsum(present)
                group = dense[codes] - 1
                conds.append(self._class_conditional(group, dense[-1]))
                ids[at:at + step] = group + base
                base += dense[-1]
                yield masks[p] | bits[k], np.take(conds[-1], group, axis=0), below
            masks, cond = masks[parent] | bits[new], np.concatenate(conds)

    def _relevance(self) -> tuple[dict[int, RelevanceClass], np.ndarray]:
        """Each feature's class, and by bitmask whether each subset is maximally informative.

        With P[S] the conditionals of subset S, feature j is strongly relevant
        when P[full] and P[full less j] differ by more than PROB_TOLERANCE, else
        weakly relevant when P[S with j] and P[S] do for some S (Kohavi and John
        1997).  S is maximally informative when P[S] is within it of P[full].
        """
        if self._lattice is None:
            self.check_search_bound()
            d, (ids, mass) = len(self.features), self._grouping(self.features)
            full = np.take(self._class_conditional(ids[None], len(mass)), ids, axis=0)
            bits, informative, weak = 1 << np.arange(d), np.zeros(1 << d, bool), np.zeros(d, bool)
            for masks, cond, below in self._lattice_blocks():
                informative[masks] = ~_differs(cond, full)
                if below is not None:  # P[S] against P[S less j] for each member j of S,
                    row, ids, narrow = below  # but a j known weak only when S is full
                    open_bits = np.where(weak & (masks[0] < bits.sum()), 0, bits)
                    r, k = np.nonzero(masks[:, None] & open_bits)
                    narrow = np.take(narrow, np.take(ids, row[masks[r] ^ bits[k]], axis=0), axis=0)
                    strong = np.bincount(k[_differs(narrow, np.take(cond, r, axis=0))], minlength=d)
                    weak |= strong > 0  # the last block is the full set
            self._lattice = ({f: RelevanceClass.SR if s else RelevanceClass.WR if w
                              else RelevanceClass.IRRELEVANT
                              for f, s, w in zip(self.features, strong, weak)}, informative)
        return self._lattice

    def _conditioning_invariant(
        self, extra: Sequence[int], base: Sequence[int], over: Sequence[int]
    ) -> bool:
        """True iff P(over | base, extra) == P(over | base) for every value of ``over``.

        A value of ``over`` absent under a key has probability 0 there.
        """
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
        subset = set(subset)
        self._check_features(tuple(subset))
        return bool(self._relevance()[1][sum(1 << self.features.index(f) for f in subset)])

    def classify_feature(self, i: int) -> RelevanceClass:
        self._check_features((i,))
        return self._relevance()[0][i]

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

    def partition(self, optimal_set: Iterable[int]) -> dict[int, RelevanceClass]:
        """Four-way split; WR features divide relative to ``optimal_set``."""
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
        """Parse ``{"arities": [...], "probs": [...flat row-major...], "class_index": ...}``.

        A plain document is scanned (``_scanned_document``); any other is
        parsed whole (``_parsed_document``), which words every refusal.
        """
        try:
            try:
                doc, flat = _scanned_document(text)
            except ValueError:
                doc, flat = _parsed_document(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        return cls.from_dense(flat.reshape(doc["arities"]), doc.get("class_index"))


def _differs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per leading index, whether some entry of ``a`` is over PROB_TOLERANCE from ``b``'s."""
    diff = np.subtract(a, b)
    np.abs(diff, out=diff)  # in place: a second array of this size costs as much again
    return diff.reshape(len(diff), math.prod(diff.shape[1:])).max(axis=1) > PROB_TOLERANCE


# ---------------------------------------------------------------------------
# The joint document
# ---------------------------------------------------------------------------

_PROBS_KEY = '"probs"'
_LIST_OPENING = re.compile(r"\s*:\s*\[")
_ZERO_TOKEN = ", 0.0"  # how json.dumps writes each empty cell after the first


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` refusing an object that repeats a key."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r} in a JSON object")
        doc[key] = value
    return doc


def _cell_count(doc: object) -> int:
    """The number of cells the document's arities give; ValueError unless valid."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    arities = doc.get("arities")
    if not (isinstance(arities, list) and arities
            and all(type(a) is int and a > 0 for a in arities)):
        raise ValueError(f"arities must be one or more positive integers, got {arities!r}")
    return math.prod(arities)


def _numbers(flat: np.ndarray, values: list) -> bool:
    """True iff ``flat``, the array of ``values``, holds only numbers.

    Strings, nulls and integers past uint64 give another dtype; a true or
    false among numbers reads as 1 or 0, so it is looked for one by one in
    ``values``, which may be empty when the text spells neither.
    """
    return flat.dtype.kind in "iuf" and bool not in set(map(type, values))


def _parsed_document(text: str) -> tuple[dict, np.ndarray]:
    """The document and its flat mass array, by ``json.loads`` of the whole text."""
    doc = json.loads(text, object_pairs_hook=_unique_keys)
    size = _cell_count(doc)
    probs = doc.get("probs")
    flat = np.asarray(probs)  # a ragged nest raises
    checked = probs if "u" in text or "f" in text else []  # a bool is spelled true or false
    if flat.ndim != 1 or len(flat) != size or not _numbers(flat, checked):
        raise ValueError(f"probs must be a flat list of {size} numbers")
    return doc, flat


def _scanned_document(text: str) -> tuple[dict, np.ndarray]:
    """The same as ``_parsed_document`` for a plain, valid document, else ValueError.

    Plain means one literal ``"probs"`` key, a list holding no ``[``, ``{``
    or ``"``, and no escape elsewhere, so that no other key decodes to
    ``probs``.  ``json.loads`` parses the rest of the text with the list
    cut to ``[]``.  The list is scanned by byte masks, none per cell: one
    marks each canonical token (``, 0.0`` before the next comma), an empty
    cell, and one its bytes; the other bytes go to one ``json.loads``, so
    each value is json's own.  A kept token's cell is its ordinal plus the
    canonical tokens before it.  ``from_dense`` sums the dense float array
    as it sums the whole-document parse's.  Every refusal, and a list with
    no empty cell to skip, is left to ``_parsed_document``.
    """
    key = text.find(_PROBS_KEY)
    opening = _LIST_OPENING.match(text, key + len(_PROBS_KEY)) if key >= 0 else None
    if opening is None:
        raise ValueError("no probs list")
    start = opening.end()
    end = text.find("]", start)
    if end < 0 or any(text.find(c, start, end) >= 0 for c in '[{"'):
        raise ValueError("probs is not a flat list")
    if text.find(_ZERO_TOKEN + ",", start, end) < 0:  # the last token holds the ]
        raise ValueError("no canonical zero to skip")
    rest = text[:start] + text[end:]  # the list holds no quote, so every key is here
    if rest.count(_PROBS_KEY) > 1 or "\\" in rest:
        raise ValueError("another key may be probs")
    doc = json.loads(rest, object_pairs_hook=_unique_keys)
    size = _cell_count(doc)
    if doc.get("probs") != []:
        raise ValueError("the top-level probs is not the list cut out")
    body = np.frombuffer(text[start - 1:end + 1].encode(), dtype=np.uint8)  # [ through ]
    # token k > 0 runs from its comma to the next; the first holds [ and the last ], never canonical
    pattern = (_ZERO_TOKEN + ",").encode()  # a canonical token, then the next one's comma
    n = len(body) - len(_ZERO_TOKEN)
    canonical = body[:n] == pattern[0]  # at p: a canonical token starts at p
    for i in range(1, len(pattern)):
        canonical &= body[i:n + i] == pattern[i]
    keep = np.ones(len(body), dtype=bool)  # the bytes of every other token
    np.logical_not(canonical, out=canonical)
    for i in range(len(_ZERO_TOKEN)):  # a canonical token holds one comma, so none overlap
        keep[i:n + i] &= canonical
    kept = body[keep]  # a JSON list
    keep &= body == ord(",")
    at = np.append(0, np.flatnonzero(keep))  # each kept token's start, in body and in kept
    cut_at = np.append(0, np.flatnonzero(kept == ord(",")))
    if len(at) + (len(body) - len(kept)) // len(_ZERO_TOKEN) != size:
        raise ValueError("not one token per cell")
    values = json.loads(kept.tobytes())
    flat = np.asarray(values)
    if len(values) != len(at) or not _numbers(flat, values):  # an empty list has no token
        raise ValueError("not one number per kept token")
    dense = np.zeros(size)
    dense[np.arange(len(at)) + (at - cut_at) // len(_ZERO_TOKEN)] = flat  # + tokens cut before
    return doc, dense


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
