"""Feature relevance analysis on finite discrete labeled joints.

Implements the distributional definitions: a feature set is maximally
informative when conditioning on the remaining features cannot change
the class conditional; relevance-optimal sets are the smallest such
sets; features partition into strongly relevant / weakly relevant /
irrelevant, and Markov blanket filtering extracts one relevance-optimal
set by backward elimination.

A labeled joint is a :class:`~miselect.infotheory.Joint`, the nonzero
support atoms and their subset lattice, with one variable designated as
the class.  ``from_json`` takes the document file's bytes and reads its
flat, row-major mass list to the cells that may hold mass and their
masses, of which ``Joint.from_cells`` keeps the nonzero ones as atoms.  A
plain document's list is scanned in place without decoding it: each
token that is the canonical zero (``0.0`` after ``, ``) is an empty cell,
and only the bytes of the other tokens go to ``json.loads``.  The scan
compares 8-byte words with the words five bytes on, and bytes only inside
the words that differ, except in a cache-sized chunk of ``SCAN_BYTES``
where many do; its cells are the kept tokens'.  Any other document is
decoded as a text-mode read decodes it and parsed whole by
``json.loads``, which words every refusal, and its cells are the nonzero
ones of the parsed list.  Both routes divide by the sum of the nonzero
masses in cell order, so the masses are bit-equal.  Conditioning invariance
compares two conditionals, P(over | wide key) and P(over | narrow key),
with 0 for a value absent under a key.  For the class, the feature
subsets' partitions of the atoms are built one lattice level at a time, in
blocks and keeping only the level below, as one row per distinct partition
of the level; P(class | group) is built once per row, and the relevance
classes and the maximally-informative tests compare each distinct pair of
rows once.  A Markov blanket test of feature i takes the blanket as the
narrow key, the blanket with i as the wide one, and for ``over`` the class with
the other features in scope; it holds one row per (blanket, over) value
present and one column per value of i.  Relevance-optimal sets come
from an exhaustive search over feature subsets, which is bounded at
``MAX_SEARCH_FEATURES``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .infotheory import Joint
from .oracle import ScenarioSpec, class_labels, feature_matrix

PROB_TOLERANCE = 1e-9
MAX_SEARCH_FEATURES = 12
BLOCK_CELLS = 1 << 16  # (partition, atom) cells per block of the lattice
SCAN_BYTES = 1 << 18  # bytes of a joint document's mass list per block of its scan


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

    # -- conditional machinery ---------------------------------------------

    def _class_conditional(self, ids: np.ndarray, n_groups: int) -> np.ndarray:
        """P(class | group), 0 for an absent value, of the groups ``ids`` numbers row by row."""
        class_ids, class_mass = self._grouping((self.class_index,))
        n_class = len(class_mass)
        weights = np.tile(self.mass, len(ids))  # no group spans two rows: summed in atom order
        cells = ids * n_class
        cells += class_ids  # in place: a second array of this size costs as much again
        joint = np.bincount(cells.ravel(), weights=weights, minlength=n_groups * n_class)
        mass = np.bincount(ids.ravel(), weights=weights, minlength=n_groups)
        return joint.reshape(-1, n_class) / mass[:, None]

    def _lattice(self):
        """The partitions of the atoms by the feature subsets, one ``_Level`` per subset size.

        A subset's partition is the meet of its parent's, the subset less its
        highest bit, with the bit's feature's: an atom's code is its parent
        group times the bit's arity plus its value.  A meet is built once per
        distinct (parent row, bit), ``BLOCK_CELLS`` // atoms of them per block.
        Its groups are numbered in the order of their first atoms, so equal
        partitions have equal rows; a meet equal to an earlier row of its
        level, picked out by fingerprint and confirmed element by element,
        adds no row.  P(class | group) is summed in atom order, so it is the
        same float whichever subsets share the row, and each new row is
        compared with the full feature set's while its block is at hand.
        Only the level yielded and the one below are held.
        """
        d, n = len(self.features), len(self.mass)
        ids, mass = self._grouping(self.features)
        full = np.take(self._class_conditional(ids[None], len(mass)), ids, axis=0)
        bits = 1 << np.arange(d)
        arity, values = np.take(self.arities, self.features), self.atoms[:, self.features].T
        ids, zero = np.zeros((1, n), dtype=np.intp), np.zeros(1, np.intp)
        cond = self._class_conditional(ids, 1)
        level = _Level(zero, zero, ids, np.ones(1, np.intp), cond, ~_differs(cond[ids], full))
        yield level
        step = max(1, BLOCK_CELLS // n)
        at = np.arange(step * n)  # each cell's position in a block's (meets, atoms) array
        for _ in range(d):
            parent, new = np.nonzero(level.masks[:, None] < bits)  # new above every parent bit
            keys, key_of = np.unique(level.rows[parent] * d + new, return_inverse=True)
            rows, k = np.divmod(keys, d)
            ids, row_of = np.empty((len(keys), n), dtype=np.intp), np.empty(len(keys), np.intp)
            counts, conds, fits, seen, stored = [], [], [], {}, 0
            for a in range(0, len(keys), step):
                r, b = rows[a:a + step], k[a:a + step]
                span = level.counts[r] * arity[b]
                codes = level.ids[r]
                codes *= arity[b, None]
                codes += values[b]
                codes += (np.cumsum(span) - span)[:, None]  # each meet's codes past the last's
                cells = at[:codes.size]
                lead = np.full(span.sum(), codes.size)
                np.minimum.at(lead, codes.ravel(), cells)  # flat: numpy 2.4 crashes on a 2-D index
                lead = lead[codes]  # the cell of the first atom of each atom's group
                first = np.flatnonzero(lead.ravel() == cells)  # the cells that start a group
                end = np.searchsorted(first, (np.arange(len(r)) + 1) * n)  # meet i's end here
                size = np.diff(end, prepend=0)
                rank = np.empty(codes.size, dtype=np.intp)
                rank[first] = np.arange(len(first)) - np.repeat(end - size, size)  # in its meet
                block = ids[stored:stored + len(r)]
                np.take(rank, lead, out=block, mode="clip")  # in range; "raise" buffers out
                kept = []  # the meets that start a row, stored + 0, 1, ... when the block is done
                for i, fingerprint in enumerate(_fingerprints(block).tolist()):
                    same = seen.setdefault(fingerprint, [])
                    for row in same:  # equal bytes: equal ids, atom by atom
                        if block[i].tobytes() == (ids[row] if row < stored
                                                  else block[kept[row - stored]]).tobytes():
                            break
                    else:
                        row = stored + len(kept)
                        same.append(row)
                        kept.append(i)
                    row_of[a + i] = row
                if len(kept) < len(r):
                    block[:len(kept)], size = block[kept], size[kept]
                group = block[:len(kept)] + (np.cumsum(size) - size)[:, None]
                counts.append(size)
                conds.append(self._class_conditional(group, size.sum()))
                fits.append(~_differs(np.take(conds[-1], group, axis=0), full))
                stored += len(kept)
            level = _Level(level.masks[parent] | bits[new], row_of[key_of], ids[:stored],
                           *map(np.concatenate, (counts, conds, fits)))
            yield level

    @functools.cached_property
    def _relevance(self) -> tuple[dict[int, RelevanceClass], np.ndarray]:
        """Each feature's class, and by bitmask whether each subset is maximally informative.

        With P[S] the conditionals of subset S, feature j is strongly relevant
        when P[full] and P[full less j] differ by more than PROB_TOLERANCE, else
        weakly relevant when P[S with j] and P[S] do for some S (Kohavi and John
        1997).  S is maximally informative when P[S] is within it of P[full]
        (``_Level.fits``).  The weak tests compare each distinct pair of rows
        once, ``BLOCK_CELLS`` // atoms pairs at a time, and skip a pair whose
        partitions have as many groups: S with j refines S, so they are equal.
        """
        self.check_search_bound()
        d, step, below = len(self.features), max(1, BLOCK_CELLS // len(self.mass)), None
        bits, informative, weak = 1 << np.arange(d), np.zeros(1 << d, bool), np.zeros(d, bool)
        row = np.empty(1 << d, np.intp)
        for level in self._lattice():
            informative[level.masks], row[level.masks] = level.fits[level.rows], level.rows
            if below is not None:  # P[S] against P[S less j] for each j in S not known weak
                r, k = np.nonzero(level.masks[:, None] & np.where(weak, 0, bits))
                wide, narrow = level.rows[r], row[level.masks[r] ^ bits[k]]
                split = level.counts[wide] != below.counts[narrow]
                pairs, pair_of = np.unique(wide[split] * len(below.counts) + narrow[split],
                                           return_inverse=True)
                wide, narrow = np.divmod(pairs, len(below.counts))
                differs = np.empty(len(pairs), bool)
                for a in range(0, len(pairs), step):
                    differs[a:a + step] = _differs(level.conditionals(wide[a:a + step]),
                                                   below.conditionals(narrow[a:a + step]))
                weak[k[split][differs[pair_of]]] = True
            below = level
        strong = ~informative[bits.sum() ^ bits]  # the full set less j is not informative
        return ({f: RelevanceClass.SR if s else RelevanceClass.WR if w
                 else RelevanceClass.IRRELEVANT
                 for f, s, w in zip(self.features, strong, weak)}, informative)

    # -- definitions ---------------------------------------------------------

    def is_maximally_informative(self, subset: Iterable[int]) -> bool:
        subset = set(subset)
        self._check_features(tuple(subset))
        return bool(self._relevance[1][sum(1 << self.features.index(f) for f in subset)])

    def classify_feature(self, i: int) -> RelevanceClass:
        self._check_features((i,))
        return self._relevance[0][i]

    def check_search_bound(self) -> None:
        """Raise ValueError when there are too many features for exhaustive search."""
        if len(self.features) > MAX_SEARCH_FEATURES:
            raise ValueError(
                f"{len(self.features)} features exceed the exhaustive-search "
                f"bound of {MAX_SEARCH_FEATURES}"
            )

    def relevance_optimal_sets(self) -> list[tuple[int, ...]]:
        """All minimum-size maximally informative subsets, lexicographic."""
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

        True iff P(over | blanket, i) == P(over | blanket) for every value of
        ``over``: the class and the features of ``within`` (default all) not
        in ``blanket`` or ``i``, with 0 for a value absent under a key.
        """
        blanket = tuple(blanket)
        scope = tuple(within) if within is not None else self.features
        self._check_features((i,) + blanket + scope)
        if i in blanket:
            raise ValueError("a feature cannot belong to its own blanket")
        over = (self.class_index,) + tuple(f for f in scope if f != i and f not in blanket)
        # A wide ``over`` can have as many values as there are atoms, so no
        # dense table over it: one row per (blanket, over) cell present, the
        # grouping of blanket + over, and one column per value of ``i``.
        # Each cell lies in one blanket group, which one scatter of the
        # atoms' blanket ids finds.
        n_ids, n_mass = self._grouping(blanket)
        x_ids, x_mass = self._grouping((i,))
        cell_ids, c_mass = self._grouping(blanket + over)
        n_x, cell_base = len(x_mass), np.empty(len(c_mass), dtype=np.intp)
        cell_base[cell_ids] = n_ids
        narrow = c_mass / n_mass[cell_base]
        wide_mass = np.bincount(n_ids * n_x + x_ids, weights=self.mass,
                                minlength=len(n_mass) * n_x).reshape(-1, n_x)[cell_base]
        cell_mass = np.bincount(cell_ids * n_x + x_ids, weights=self.mass,
                                minlength=len(c_mass) * n_x).reshape(-1, n_x)
        rows, cols = np.nonzero(wide_mass)  # the (blanket, i) keys present
        wide = cell_mass[rows, cols] / wide_mass[rows, cols]
        return not np.abs(wide - narrow[rows]).max() > PROB_TOLERANCE

    def markov_blanket_filter(self) -> tuple[int, ...]:
        """Backward elimination from the relevant features.

        At each round the highest-index feature possessing a blanket is
        removed, so the earliest of a group of mutually redundant
        features is the one kept; the result is a relevance-optimal set.
        Blankets are tried by increasing size.
        """
        remaining = [
            f
            for f in self.features
            if self.classify_feature(f) is not RelevanceClass.IRRELEVANT
        ]
        while True:
            for i in reversed(remaining):
                others = [f for f in remaining if f != i]
                if any(self.has_markov_blanket(i, blanket, within=remaining)
                       for size in range(len(others) + 1)
                       for blanket in itertools.combinations(others, size)):
                    remaining.remove(i)
                    break
            else:
                return tuple(remaining)

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
    def from_json(cls, data: bytes) -> "LabeledJoint":
        """Parse ``{"arities": [...], "probs": [...flat row-major...], "class_index": ...}``.

        ``data`` is the document file's bytes.  A plain document is scanned
        (``_scanned_document``), and its atoms are taken from the kept tokens'
        cells and masses (``from_cells``); any other is decoded and parsed
        whole (``_parsed_document``), which words every refusal.
        """
        try:
            try:
                doc, cells, masses = _scanned_document(data)
            except (ValueError, RecursionError):  # the parse words the refusal
                doc, flat = _parsed_document(data)
                return cls.from_dense(flat.reshape(doc["arities"]), doc.get("class_index"))
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        return cls.from_cells(doc["arities"], cells, masses, doc.get("class_index"))


@dataclass(frozen=True)
class _Level:
    """The distinct partitions of the atoms by the feature subsets of one size.

    ``masks`` are the subsets (bit j for ``features[j]``) and ``rows`` the
    row of each one's partition.  Row r numbers each atom's group in
    ``ids[r]``, from 0 in the order of the groups' first atoms, and
    ``cond`` holds P(class | group) of all rows' groups, ``counts[r]`` of
    them for row r, in row order.  ``fits[r]`` is whether row r's P(class |
    group of each atom) is within PROB_TOLERANCE of the full feature set's.
    """

    masks: np.ndarray
    rows: np.ndarray
    ids: np.ndarray
    counts: np.ndarray
    cond: np.ndarray
    fits: np.ndarray

    def conditionals(self, rows) -> np.ndarray:
        """P(class | group of each atom) of ``rows``: (rows, atoms, classes)."""
        low = np.cumsum(self.counts) - self.counts  # each row's first group in cond
        return np.take(self.cond, self.ids[rows] + low[rows, None], axis=0)


def _fingerprints(ids: np.ndarray) -> np.ndarray:
    """An integer per row of ``ids``, the same for equal rows: a wrapping dot product."""
    weights = np.arange(1, 2 * ids.shape[1], 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ids @ weights.view(np.int64)


def _differs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per leading index, whether some entry of ``a`` is over PROB_TOLERANCE from ``b``'s."""
    diff = np.subtract(a, b)
    np.abs(diff, out=diff)  # in place: a second array of this size costs as much again
    return diff.reshape(len(diff), math.prod(diff.shape[1:])).max(axis=1) > PROB_TOLERANCE


# ---------------------------------------------------------------------------
# The joint document
# ---------------------------------------------------------------------------

_PROBS_KEY = b'"probs"'
_LIST_OPENING = re.compile(rb"\s*:\s*\[")
_ZERO_TOKEN = b", 0.0"  # how json.dumps writes each empty cell after the first


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


def _parsed_document(data: bytes) -> tuple[dict, np.ndarray]:
    """The document and its flat mass array, by ``json.loads`` of the whole text.

    ``data`` is decoded as ``open(path, encoding="utf-8")`` decodes a file,
    with universal newlines, so that each refusal is worded as for its text.
    """
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    doc = json.loads(text, object_pairs_hook=_unique_keys)
    size = _cell_count(doc)
    probs = doc.get("probs")
    flat = np.asarray(probs)  # a ragged nest raises
    checked = probs if "u" in text or "f" in text else []  # a bool is spelled true or false
    if flat.ndim != 1 or len(flat) != size or not _numbers(flat, checked):
        raise ValueError(f"probs must be a flat list of {size} numbers")
    return doc, flat


def _scanned_document(data: bytes) -> tuple[dict, np.ndarray, np.ndarray]:
    """A plain, valid document, its kept tokens' cells and their masses as floats.

    The cells hold every nonzero cell of ``_parsed_document``'s list; every
    other cell is a canonical ``0.0``.  Plain means one literal ``"probs"``
    key, a list holding no ``[``, ``{`` or ``"``, and no escape elsewhere, so
    that no other key decodes to ``probs``.  ``json.loads`` parses the rest
    of the document, decoded as strict UTF-8, with the list cut to ``[]``.
    The list's bytes are scanned in place, in blocks that ``_period_runs``
    bounds by ``SCAN_BYTES``, so that what a block holds stays bounded
    however the list is spelled.  A canonical token (``, 0.0`` before the next comma)
    is an empty cell.  Where the list repeats with period 5
    (``body[p] == body[p + 5]``), the canonical tokens of that run form one
    stride-5 chain, which starts at the last comma of the run's first five
    bytes if ``, 0.0`` is spelled there.  The bytes between chains are
    kept, and go to one ``json.loads``, so each value is json's own.  A
    kept token's cell, ascending, is its ordinal plus the canonical tokens
    before it.  Every other document, and a list with no empty cell to skip,
    is a ValueError, left to ``_parsed_document``.
    """
    key = data.find(_PROBS_KEY)
    opening = _LIST_OPENING.match(data, key + len(_PROBS_KEY)) if key >= 0 else None
    if opening is None:
        raise ValueError("no probs list")
    start = opening.end()
    end = data.find(b"]", start)
    if end < 0:
        raise ValueError("probs is not a flat list")
    if data.find(_ZERO_TOKEN + b",", start, end) < 0:  # the last token holds the ]
        raise ValueError("no canonical zero to skip")
    rest = data[:start] + data[end:]  # a list with a quote is refused below: every key is here
    if rest.count(_PROBS_KEY) > 1 or b"\\" in rest:
        raise ValueError("another key may be probs")
    doc = json.loads(rest.decode("utf-8"), object_pairs_hook=_unique_keys)
    size = _cell_count(doc)
    if doc.get("probs") != []:
        raise ValueError("the top-level probs is not the list cut out")
    body = np.frombuffer(data, np.uint8, end + 2 - start, start - 1)  # [ to ], not copied
    # token k > 0 runs from its comma to the next; the first holds [ and the last ], never canonical
    width = len(_ZERO_TOKEN)
    pieces, starts, covered = [], [], 0  # body[:covered] is scanned
    for b, lo, hi in _period_runs(body, width):
        # where body[p] == body[p + 5] for lo <= p < hi, the list repeats with period 5
        # up to hi + 5, so from a run's first canonical token every fifth start is one;
        # a run cut at a block edge still repeats, so its chain goes on in the next block
        chain = (hi - lo > 1) | (hi - lo == 1) & (body[lo] == _ZERO_TOKEN[0])  # one byte: a comma
        lo, hi = lo[chain], hi[chain]
        # the token holds one comma, so a chain starts at the last comma of the run's first period
        phases = lo[:, None] + np.arange(width)
        commas = (body[phases] == _ZERO_TOKEN[0]) & (phases < hi[:, None])
        chain = commas.any(1)
        first = np.where(chain, phases[:, -1] - commas[:, ::-1].argmax(1), lo)
        for i in range(1, width):
            chain &= body[first + i] == _ZERO_TOKEN[i]
        first, hi = first[chain], hi[chain]
        stop = first + width * ((hi - first + width - 1) // width)  # past the chain's last token
        lo, hi = np.append(covered, stop), np.append(first, b)  # the kept gaps
        covered = max(lo[-1], b)  # the last chain may end in the next block
        lo[-1] = min(lo[-1], b)
        length = hi - lo
        kept_at = np.repeat(lo - (np.cumsum(length) - length), length) + np.arange(length.sum())
        pieces.append(body[kept_at])
        starts.append(kept_at[pieces[-1] == ord(",")])
    kept = np.concatenate(pieces)  # a JSON list
    listed = kept.tobytes()
    if any(listed.find(c, 1) >= 0 for c in (b"[", b"{", b'"')):
        raise ValueError("probs is not a flat list")
    at = np.append(0, np.concatenate(starts))  # each kept token's start, in body and in kept
    cut_at = np.append(0, np.flatnonzero(kept == ord(",")))
    if len(at) + (len(body) - len(kept)) // width != size:
        raise ValueError("not one token per cell")
    values = json.loads(listed)
    flat = np.asarray(values)
    if len(values) != len(at) or not _numbers(flat, values):  # an empty list has no token
        raise ValueError("not one number per kept token")
    cells = np.arange(len(at)) + (at - cut_at) // width  # + tokens cut before
    return doc, cells, flat.astype(float)


def _period_runs(body: np.ndarray, width: int):
    """Per block ``[a, b)`` of ``body``, ``(b, lo, hi)``: where ``body[p] == body[p + width]``.

    The runs ``lo <= p < hi`` (some may be empty) are maximal among the
    ``a <= p < len(body) - width``.  Each ``SCAN_BYTES`` chunk first compares
    whole words: word k, bytes 8k to 8k + 7, equals the word ``width`` bytes
    on exactly when none of its bytes breaks the period.  A chunk where more
    than one word in 16 differs compares its bytes and is a block.  The other
    chunks join the block being built while it holds at most as many
    differing words as such a chunk may, so that it stays bounded, and only
    the bytes of those words, and any past the last whole word, are compared.
    """
    n = len(body) - width  # a canonical token may start at p < n
    whole = n - n % 8  # body[:whole] is whole words
    words, fives = body[:whole].view(np.uint64), body[width:width + whole].view(np.uint64)

    def word_block(a, b, differ):  # body[a:b], its differing words' bytes compared one by one
        c = max(min(b, n), a)
        p = np.append((np.unique(np.concatenate(differ)) * 8)[:, None] + np.arange(8),
                      np.arange(max(whole, a), c))
        p = p[(a <= p) & (p < c)]
        breaks = p[body[p] != body[p + width]]
        return b, np.append(a, breaks + 1), np.append(breaks, c)

    lead, differ, held = 0, [], 0  # the block being built starts at lead
    for a in range(0, len(body), SCAN_BYTES):
        b, c = min(a + SCAN_BYTES, len(body)), max(min(a + SCAN_BYTES, n), a)
        span = slice(a // 8, -(-c // 8))  # the words that overlap body[a:c]
        unequal = words[span] != fives[span]
        if np.count_nonzero(unequal) * 16 > len(unequal):  # many differ: where runs start and stop
            if lead < a:
                yield word_block(lead, a, differ)
            broken = body[a:c] != body[a + width:c + width]
            edges = np.flatnonzero(np.diff(broken, prepend=True, append=True)) + a
            yield b, edges[::2], edges[1::2]
            lead, differ, held = b, [], 0
            continue
        moved = np.flatnonzero(unequal) + span.start
        if (held + len(moved)) * 16 > SCAN_BYTES // 8 and lead < a:
            yield word_block(lead, a, differ)
            lead, differ, held = a, [], 0
        differ.append(moved)
        held += len(moved)
    if lead < len(body):
        yield word_block(lead, len(body), differ)


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
