"""Histogram-based differential entropy and MI estimation from samples.

Univariate entropies use m = ceil(sqrt(n)) equal-width bins over the
observed range, plug-in entropy of the bin frequencies plus the ln(bin
width) correction.  Bivariate histograms keep the total cell count near
m by using q = ceil(sqrt(m)) bins per axis; feature-feature MI evaluates
H(X) + H(Y) - H(X,Y) with all three entropies on that shared grid, and
class MI evaluates H(V) - sum_c p(c) H(V | C=c) on pooled bin edges.

Every estimate goes through one kernel: columns are turned into integer
bin codes (:func:`bin_rows`), the class labels into class indices
(:func:`code_labels`), and all counts are ``np.bincount`` of those codes,
split by class label or combined as ``ci * q + cj`` for a pair.  The
entropy of those counts reads its terms from one table of ``p * log(p)``
per total, p = c / total (:func:`count_entropy`).  The codes follow the
counting rule of ``np.histogram``, and each term is numpy's own result
for its count, so the estimates equal the histogram ones bit for bit.
The ``estimate_*`` functions take binned columns and coded labels only;
a binned column carries its own resolution.

A :class:`Sample` holds its columns feature-major, each column's values
contiguous.  :func:`estimated_provider` bins all ten columns at both
resolutions in one :func:`bin_rows` call, which works on blocks of
columns under a budget of ``BLOCK_CELLS`` values and takes each column's
range once for both resolutions.  It feeds the binned columns to the
``estimate_*`` functions for all 65 tables (10 entropies, 10 class MIs,
45 pairwise MIs) in one pass, so a sample the estimator cannot handle
fails there, before any selection runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .oracle import FEATURES, MITables

CSV_HEADER = "v1,v2,v3,v4,v5,v6,v7,v8,v9,v10,class"
COLUMNS = CSV_HEADER.split(",")
# Values per block of rows that bin_rows bins together: a sample's ten
# columns share one block up to n = 819, and each column is a block of its
# own from n = 4097 on.
BLOCK_CELLS = 1 << 13


class DegenerateSampleError(ValueError):
    """All observations equal: the histogram has zero width.

    The differential entropy of a point mass is -inf, which would poison
    every objective downstream, so it is an error rather than a value.
    """


def bin_count(n: int) -> int:
    """Univariate bin count, m = ceil(sqrt(n))."""
    if n < 4:
        raise ValueError(f"need at least 4 observations, got {n}")
    return math.ceil(math.sqrt(n))


def pair_bin_count(n: int) -> int:
    """Per-axis bin count of a bivariate histogram with ~m cells in total."""
    return math.ceil(math.sqrt(bin_count(n)))


@lru_cache(maxsize=4)  # a replicate's n and its two class sizes
def plogp_table(total: int) -> np.ndarray:
    """Read-only ``p * log(p)`` for p = c / total, c = 0 .. total; 0 at c = 0.

    Each entry is numpy's own divide, log and multiply of its count: the
    term ``infotheory.plugin_entropy`` computes for that count.
    """
    p = np.arange(1, total + 1) / total
    table = np.zeros(total + 1)
    table[1:] = p * np.log(p)
    table.setflags(write=False)
    return table


def count_entropy(counts: np.ndarray, total: int) -> float:
    """Plug-in entropy (nats) of integer bin ``counts`` of ``total`` observations.

    Equal to ``infotheory.plugin_entropy(counts, total)`` bit for bit: the
    same terms, sorted into the same order and summed over the same length.
    A nonzero count's term is <= 0, so the empty bins' zeros sort last and
    the slice drops them.
    """
    terms = plogp_table(total)[counts]
    terms.sort()
    return float(-terms[:np.count_nonzero(counts)].sum())


@dataclass(frozen=True)
class BinnedColumn:
    """One column's bin codes on ``count`` bins of equal ``width``.

    ``entropy`` is the plug-in entropy of the bin frequencies, without the
    bin-width term.  The ``estimate_*`` functions take binned columns, so
    that a caller estimating many tables of one sample bins each column
    once per resolution.
    """

    count: int
    width: float
    codes: np.ndarray
    entropy: float


def bin_rows(rows, counts, names=None) -> list[list[BinnedColumn]]:
    """Code each row of ``rows`` on each of ``counts`` equal-width bins.

    Returns one list of binned rows per count.  A row's edges are
    ``y * width + min`` for y = 0 .. count, with width = (max - min) /
    count: the edges ``np.linspace(min, max, count + 1)`` computes, and the
    top edge is closed.  The code of a value is
    ``searchsorted(edges, x, side="right") - 1`` with the top edge folded
    into the last bin: the counting rule of ``np.histogram`` and
    ``np.histogram2d``.  An arithmetic guess is kept where the edges
    confirm it (``edges[g] <= x < edges[g + 1]``, the top edge read as
    +inf, means exactly g + 1 edges lie at or below x); the values it
    misses, on or next to an edge, are searched.  Searching every value
    instead makes an n = 5000 ``simulate`` run about 25% slower.

    Every row's range is taken, and checked, once before any row is binned.
    The rows are then binned in blocks of at most ``BLOCK_CELLS`` values,
    so that a block's temporaries stay in cache.  In a block, each row's
    values scaled to its range are taken once for all counts, the edges of
    all rows come from one outer product per count, and the bins of all
    rows from one ``np.bincount`` per count, each row's codes offset past
    the rows before.  The entropies of a block's bins are one gather from
    :func:`plogp_table` and one sort per row, then one sum per row over
    its occupied bins, as :func:`count_entropy` takes them.  Each row's
    result equals that of the row alone.  The first row, in row order,
    whose range is not finite, is empty, or is so narrow that its width at
    the largest count underflows to 0 raises.  A row of finite values whose
    range ``max - min`` overflows raises with its min and max, and a row
    holding NaN or inf raises without them; ``names`` names the rows in
    every message but the latter.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    finest = max(counts)
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    with np.errstate(over="ignore"):  # an infinite range is refused below
        span = hi - lo
    bad = ~((span / finest > 0.0) & (span < math.inf))  # NaN fails both
    if bad.any():
        r = int(bad.argmax())
        where = "" if names is None else f"column {names[r]}: "
        if not (math.isfinite(lo[r]) and math.isfinite(hi[r])):
            raise ValueError("observations must be finite, with a finite range")
        if span[r] == math.inf:
            raise ValueError(f"{where}range from {lo[r]:g} to {hi[r]:g} overflows")
        if span[r] == 0.0:
            raise DegenerateSampleError(where + "all observations are equal")
        raise ValueError(f"{where}range {float(span[r])!r} is too narrow for {finest} bins")
    plogp = plogp_table(n)
    step = max(1, BLOCK_CELLS // max(1, n))
    out: list[list[BinnedColumn]] = [[] for _ in counts]
    for first in range(0, len(rows), step):
        block, block_lo, block_span = (a[first:first + step] for a in (rows, lo, span))
        row = np.arange(len(block))[:, None]
        unit = block - block_lo[:, None]
        unit /= block_span[:, None]
        for count, binned in zip(counts, out):
            width, last, stride = block_span / count, count - 1, count + 1
            edges = (np.multiply.outer(width, np.arange(stride, dtype=float))
                     + block_lo[:, None]).ravel()
            edges[count::stride] = math.inf  # the top bin is closed: no value lies past it
            codes = (unit * count).astype(np.intp)
            np.minimum(codes, last, out=codes)
            at = codes + row * stride
            miss = (block < edges.take(at)) | (block >= edges[1:].take(at))
            if miss.any():
                for r in np.flatnonzero(miss.any(axis=1)):
                    own, x = edges[r * stride:(r + 1) * stride], block[r, miss[r]]
                    codes[r, miss[r]] = np.searchsorted(own, x, side="right") - 1
                    at[r] = codes[r] + r * stride
            bins = np.bincount(at.ravel(), minlength=len(block) * stride).reshape(-1, stride)
            terms = plogp[bins]
            terms.sort(axis=1)
            occupied = np.count_nonzero(bins, axis=1).tolist()
            binned += [BinnedColumn(count, w, c, float(-t[:k].sum()))
                       for w, c, t, k in zip(width.tolist(), codes, terms, occupied)]
    return out


@dataclass(frozen=True)
class CodedLabels:
    """Class index of each observation and the size of each class."""

    index: np.ndarray
    sizes: list[int]


def code_labels(labels) -> CodedLabels:
    """The 0/1 ``labels`` as class indices, with the two class sizes.

    Refuses labels of a single class, and any label but 0 and 1.
    """
    index = np.asarray(labels)
    try:
        sizes = np.bincount(index, minlength=2).tolist()
    except (TypeError, ValueError):  # a negative, fractional or non-numeric label
        sizes = []
    if len(sizes) != 2:
        raise ValueError("labels must be 0/1")
    if 0 in sizes:
        raise ValueError("need both class labels in the sample")
    return CodedLabels(index, sizes)


def estimate_entropy_1d(b: BinnedColumn) -> float:
    """Differential entropy estimate; may legitimately be negative."""
    return b.entropy + math.log(b.width)


def estimate_mi_features(bx: BinnedColumn, by: BinnedColumn) -> float:
    """MI between two features via H(X) + H(Y) - H(X,Y) on a shared grid.

    Both columns are binned at the bivariate resolution, so the bin-width
    corrections of the three entropies cancel exactly and the result equals
    the discrete MI of the binned pair.  Not clamped: small negative values
    are reported.
    """
    if bx.codes.size != by.codes.size:
        raise ValueError("length mismatch")
    if bx.count != by.count:
        raise ValueError("columns are binned at different resolutions")
    joint = np.bincount(bx.codes * bx.count + by.codes, minlength=bx.count * bx.count)
    return bx.entropy + by.entropy - count_entropy(joint, bx.codes.size)


def estimate_mi_class(b: BinnedColumn, classes: CodedLabels) -> float:
    """MI between a feature and the class: H(V) - sum_c p(c) H(V|C=c).

    The class-conditional histograms reuse the pooled edges, so that an
    independent pair centers on zero instead of inheriting a per-class
    rebinning offset.  Each class's entropy is :func:`count_entropy` of its
    column of the (bin, class) counts, over the class size.
    """
    n = b.codes.size
    if classes.index.size != n:
        raise ValueError("length mismatch")
    k = len(classes.sizes)
    counts = np.bincount(b.codes * k + classes.index, minlength=b.count * k)
    counts = counts.reshape(b.count, k)
    log_width = math.log(b.width)
    mi = b.entropy + log_width
    for c, size in enumerate(classes.sizes):
        mi -= (size / n) * (count_entropy(counts[:, c], size) + log_width)
    return mi


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

class Sample:
    """n observations of the ten features plus a binary class label.

    ``features`` is an (n, 10) array held feature-major (Fortran order),
    so that each column, and each row of ``features.T``, is contiguous for
    the estimator; an array in any other layout is copied into it.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = np.asfortranarray(features, dtype=float)
        labels = np.asarray(labels)
        if features.ndim != 2 or features.shape[1] != len(FEATURES):
            raise ValueError(f"features must be (n, {len(FEATURES)})")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if features.shape[0] < 4:
            raise ValueError("need at least 4 observations")
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0/1")
        if not np.isfinite(features).all():
            row, col = np.argwhere(~np.isfinite(features))[0]
            raise ValueError(
                f"non-finite value {features[row, col]} in row {row + 1}, "
                f"column {COLUMNS[col]}"
            )
        self.features = features
        self.labels = labels.astype(np.int64)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_csv(cls, path: str) -> "Sample":
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(
                    f"bad sample header {header!r}; expected {CSV_HEADER!r}"
                )
            with warnings.catch_warnings():  # an empty body is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[0] == 0:
            raise ValueError("the sample has no observations")
        if data.shape[1] != len(FEATURES) + 1:
            raise ValueError(f"expected {len(FEATURES) + 1} columns")
        return cls(data[:, :-1], data[:, -1])


def estimated_provider(sample: Sample) -> MITables:
    """All histogram estimates of one sample, built in one pass.

    One :func:`bin_rows` call bins each column at the univariate
    resolution m (entropy and class MI) and at the pair resolution
    q = ceil(sqrt(m)), in row blocks of the feature-major sample; the labels
    are coded once, and the 10 entropies, 10 class MIs and 45 pairwise MIs
    are estimated from those codes.  The diagonal of the pairwise matrix,
    the self-MI I(X;X) of a feature, is the entropy of its q-binned column,
    the value ``estimate_mi_features`` gives for a column paired with
    itself.  Raises :class:`DegenerateSampleError` for a constant column and
    ``ValueError`` for a single-class sample or for a column whose range is
    too narrow for its bins or overflows, naming the column.
    """
    m = bin_count(sample.n)
    q = pair_bin_count(sample.n)
    labels = code_labels(sample.labels)
    fine, coarse = bin_rows(sample.features.T, (m, q), COLUMNS)
    entropies = [estimate_entropy_1d(b) for b in fine]
    class_mis = [estimate_mi_class(b, labels) for b in fine]
    matrix = np.diag([b.entropy for b in coarse])
    for a, b in combinations(range(len(coarse)), 2):
        matrix[a, b] = matrix[b, a] = estimate_mi_features(coarse[a], coarse[b])
    return MITables(entropies, class_mis, matrix)
