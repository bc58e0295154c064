"""Histogram-based differential entropy and MI estimation from samples.

Univariate entropies use m = ceil(sqrt(n)) equal-width bins over the
observed range, plug-in entropy of the bin frequencies plus the ln(bin
width) correction.  Bivariate histograms keep the total cell count near
m by using q = ceil(sqrt(m)) bins per axis; feature-feature MI evaluates
H(X) + H(Y) - H(X,Y) with all three entropies on that shared grid, and
class MI evaluates H(V) - sum_c p(c) H(V | C=c) on pooled bin edges.

Every estimate goes through one kernel: a column is turned into integer
bin codes once per resolution (:func:`bin_column`), the class labels
into class indices (:func:`code_labels`), and all counts are
``np.bincount`` of those codes, split by class label or combined as
``ci * q + cj`` for a pair.  The codes follow the counting rule of
``np.histogram``, so the estimates equal the histogram ones bit for bit.
The ``estimate_*`` functions take raw or binned columns: a raw column is
binned at m (entropy, class MI) or q (pairwise MI) bins, and a binned
column carries its own resolution.  :func:`estimated_provider` bins each
column of a sample twice and feeds the binned columns to them for all 65
tables (10 entropies, 10 class MIs, 45 pairwise MIs) in one pass, so a
sample the estimator cannot handle fails there, before any selection
runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .infotheory import plugin_entropy
from .oracle import FEATURES, FeatureId, MITables

CSV_HEADER = "v1,v2,v3,v4,v5,v6,v7,v8,v9,v10,class"
COLUMNS = CSV_HEADER.split(",")


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
    bin-width term.  Every ``estimate_*`` function accepts a binned column
    in place of the raw one, so that a caller estimating many tables of
    one sample bins each column once per resolution.
    """

    count: int
    width: float
    codes: np.ndarray
    entropy: float


def bin_column(x, count: int) -> BinnedColumn:
    """Code x on ``count`` equal-width bins over its observed range.

    The edges are ``np.linspace(min, max, count + 1)`` and the top edge is
    closed.  The code of a value is ``searchsorted(edges, x, side="right")
    - 1`` with the top edge folded into the last bin: the counting rule of
    ``np.histogram`` and ``np.histogram2d``.  An arithmetic guess is kept
    where the edges confirm it (``edges[g] <= x < edges[g + 1]``, or
    ``edges[g] <= x`` in the last bin, means exactly g + 1 edges lie at or
    below x); the values it misses, on or next to an edge, are searched.
    Searching every value instead makes an n = 5000 ``simulate`` run about
    25% slower.
    """
    x = np.asarray(x, dtype=float)
    lo = float(np.min(x))
    hi = float(np.max(x))
    if not math.isfinite(hi - lo):
        raise ValueError("observations must be finite, with a finite range")
    if hi <= lo:
        raise DegenerateSampleError("all observations are equal")
    edges, last = np.linspace(lo, hi, count + 1), count - 1
    codes = ((x - edges[0]) / (edges[-1] - edges[0]) * count).astype(np.intp)
    np.minimum(codes, last, out=codes)
    miss = (x < edges[codes]) | ((x >= edges[codes + 1]) & (codes < last))
    codes[miss] = np.minimum(np.searchsorted(edges, x[miss], side="right") - 1, last)
    return BinnedColumn(count, (hi - lo) / count, codes,
                        plugin_entropy(np.bincount(codes), x.size))


def _binned(x, default) -> BinnedColumn:
    """x as a binned column; a raw column is binned at ``default(n)`` bins."""
    return x if isinstance(x, BinnedColumn) else bin_column(x, default(np.size(x)))


@dataclass(frozen=True)
class CodedLabels:
    """Class index of each observation and the size of each class."""

    index: np.ndarray
    sizes: list[int]


def code_labels(labels) -> CodedLabels:
    """Index the classes of ``labels``; coded labels are returned as they are."""
    if isinstance(labels, CodedLabels):
        return labels
    values, index = np.unique(np.asarray(labels), return_inverse=True)
    if values.size < 2:
        raise ValueError("need both class labels in the sample")
    return CodedLabels(index, np.bincount(index).tolist())


def estimate_entropy_1d(x) -> float:
    """Differential entropy estimate; may legitimately be negative."""
    b = _binned(x, bin_count)
    return b.entropy + math.log(b.width)


def estimate_mi_features(x, y) -> float:
    """MI between two features via H(X) + H(Y) - H(X,Y) on a shared grid.

    All three entropies use the bivariate resolution, so their bin-width
    corrections cancel exactly and the result equals the discrete MI of
    the binned pair.  Not clamped: small negative values are reported.
    """
    bx, by = _binned(x, pair_bin_count), _binned(y, pair_bin_count)
    if bx.codes.size != by.codes.size:
        raise ValueError("length mismatch")
    if bx.count != by.count:
        raise ValueError("columns are binned at different resolutions")
    joint = np.bincount(bx.codes * bx.count + by.codes, minlength=bx.count * bx.count)
    return bx.entropy + by.entropy - plugin_entropy(joint, bx.codes.size)


def estimate_mi_class(x, labels) -> float:
    """MI between a feature and the class: H(V) - sum_c p(c) H(V|C=c).

    The class-conditional histograms reuse the pooled edges, so that an
    independent pair centers on zero instead of inheriting a per-class
    rebinning offset.  ``labels`` may be raw or coded.
    """
    b = _binned(x, bin_count)
    classes = code_labels(labels)
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
    """n observations of the ten features plus a binary class label."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels)
        if features.ndim != 2 or features.shape[1] != len(FEATURES):
            raise ValueError(f"features must be (n, {len(FEATURES)})")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if features.shape[0] < 4:
            raise ValueError("need at least 4 observations")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0/1")
        bad = np.argwhere(~np.isfinite(features))
        if bad.size:
            row, col = bad[0]
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

    Each column is binned once at the univariate resolution m (entropy and
    class MI) and once at the pair resolution q = ceil(sqrt(m)), the labels
    are coded once, and the 10 entropies, 10 class MIs and 45 pairwise MIs
    are estimated from those codes.  The self-MI I(X;X) of a feature is the
    entropy of its q-binned column, the value ``estimate_mi_features`` gives
    for a column paired with itself.  Raises :class:`DegenerateSampleError`
    for a constant column and ``ValueError`` for a single-class sample.
    """
    m = bin_count(sample.n)
    q = pair_bin_count(sample.n)
    labels = code_labels(sample.labels)
    fine: list[BinnedColumn] = []
    coarse: list[BinnedColumn] = []
    for name, x in zip(COLUMNS, np.ascontiguousarray(sample.features.T)):
        try:
            fine.append(bin_column(x, m))
            coarse.append(bin_column(x, q))
        except DegenerateSampleError as exc:
            raise DegenerateSampleError(f"column {name}: {exc}") from None

    def pairwise(i: FeatureId, j: FeatureId) -> float:
        bi, bj = coarse[i - 1], coarse[j - 1]
        return bi.entropy if i == j else estimate_mi_features(bi, bj)

    return MITables(
        [estimate_entropy_1d(b) for b in fine],
        [estimate_mi_class(b, labels) for b in fine],
        pairwise,
    )
