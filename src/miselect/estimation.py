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
codes follow the counting rule of ``np.histogram``, so the estimates
equal the histogram ones bit for bit.  The ``estimate_*`` functions take
binned columns and coded labels only; a binned column carries its own
resolution.

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
from itertools import combinations

import numpy as np

from .infotheory import plugin_entropy
from .oracle import FEATURES, FeatureId, MITables

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

    The rows are binned in blocks of at most ``BLOCK_CELLS`` values, so
    that a block's temporaries stay in cache.  In a block, each row's
    range and its values scaled to that range are taken once for all
    counts, the edges of all rows come from one outer product per count,
    and the bins of all rows from one ``np.bincount`` per count, each
    row's codes offset past the rows before.  Each row's result equals
    that of the row alone.  The first row, in row order, whose range is
    not finite, is empty, or is so narrow that its width at the largest
    count underflows to 0 raises.  A row of finite values whose range
    ``max - min`` overflows raises with its min and max, and a row holding
    NaN or inf raises without them; ``names`` names the rows in every
    message but the latter.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    step = max(1, BLOCK_CELLS // max(1, n))
    finest = max(counts)
    out: list[list[BinnedColumn]] = [[] for _ in counts]
    for first in range(0, len(rows), step):
        block = rows[first:first + step]
        lo, hi = block.min(axis=1), block.max(axis=1)
        with np.errstate(over="ignore"):  # an infinite range is refused below
            span = hi - lo
        bad = ~((span / finest > 0.0) & (span < math.inf))  # NaN fails both
        if bad.any():
            r = int(bad.argmax())
            where = "" if names is None else f"column {names[first + r]}: "
            if not (math.isfinite(lo[r]) and math.isfinite(hi[r])):
                raise ValueError("observations must be finite, with a finite range")
            if span[r] == math.inf:
                raise ValueError(f"{where}range from {lo[r]:g} to {hi[r]:g} overflows")
            if span[r] == 0.0:
                raise DegenerateSampleError(where + "all observations are equal")
            raise ValueError(f"{where}range {float(span[r])!r} is too narrow for {finest} bins")
        row = np.arange(len(block))[:, None]
        unit = block - lo[:, None]
        unit /= span[:, None]
        for count, binned in zip(counts, out):
            width, last, stride = span / count, count - 1, count + 1
            edges = (np.multiply.outer(width, np.arange(stride, dtype=float))
                     + lo[:, None]).ravel()
            edges[count::stride] = math.inf  # the top bin is closed: no value lies past it
            codes = (unit * count).astype(np.intp)
            np.minimum(codes, last, out=codes)
            at = codes + row * stride
            miss = (block < edges[at]) | (block >= edges[1:][at])
            if miss.any():
                for r in np.flatnonzero(miss.any(axis=1)):
                    own, x = edges[r * stride:(r + 1) * stride], block[r, miss[r]]
                    codes[r, miss[r]] = np.searchsorted(own, x, side="right") - 1
                    at[r] = codes[r] + r * stride
            bins = np.bincount(at.ravel(), minlength=len(block) * stride)
            binned += [BinnedColumn(count, w, c, plugin_entropy(b, n))
                       for w, c, b in zip(width.tolist(), codes, bins.reshape(-1, stride))]
    return out


def bin_column(x, count: int) -> BinnedColumn:
    """Code x on ``count`` equal-width bins: :func:`bin_rows` of one row."""
    [[column]] = bin_rows(np.asarray(x, dtype=float)[None], (count,))
    return column


@dataclass(frozen=True)
class CodedLabels:
    """Class index of each observation and the size of each class."""

    index: np.ndarray
    sizes: list[int]


def code_labels(labels) -> CodedLabels:
    """Index the classes of ``labels``; refuses labels of a single class."""
    values, index = np.unique(np.asarray(labels), return_inverse=True)
    if values.size < 2:
        raise ValueError("need both class labels in the sample")
    return CodedLabels(index, np.bincount(index).tolist())


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
    return bx.entropy + by.entropy - plugin_entropy(joint, bx.codes.size)


def estimate_mi_class(b: BinnedColumn, classes: CodedLabels) -> float:
    """MI between a feature and the class: H(V) - sum_c p(c) H(V|C=c).

    The class-conditional histograms reuse the pooled edges, so that an
    independent pair centers on zero instead of inheriting a per-class
    rebinning offset.
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
        mi -= (size / n) * (plugin_entropy(counts[:, c], size) + log_width)
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

    def column(self, f: FeatureId) -> np.ndarray:
        return self.features[:, f - 1]

    def to_csv(self, path: str) -> None:
        data = np.column_stack([self.features, self.labels])
        fmt = ["%.17g"] * len(FEATURES) + ["%d"]
        np.savetxt(path, data, delimiter=",", header=CSV_HEADER, comments="", fmt=fmt)

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
