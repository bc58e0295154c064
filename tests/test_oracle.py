import itertools
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid
from scipy.special import log_ndtr, ndtr

from conftest import random_provider
from miselect.estimation import estimated_provider
from miselect.oracle import (
    FEATURES,
    FeatureId,
    MITables,
    Scenario,
    ScenarioSpec,
    class_mis,
    entropies,
    feature_labels,
    oracle_provider,
    pairwise_mi,
    mi_class_squared_feature,
    _log_ndtr,
    _ndtr,
    _skew_pair_mi,
)
from miselect.simlab import generate_sample

V = FeatureId
LN2 = math.log(2.0)


def spec_i(k=0.2, delta=0.5):
    return ScenarioSpec(Scenario.UNIFORM, k, delta)


def spec_ii(k=0.2):
    return ScenarioSpec(Scenario.GAUSSIAN, k)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(Scenario.UNIFORM, 0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(Scenario.UNIFORM, 1.0)
    with pytest.raises(ValueError):
        ScenarioSpec(Scenario.UNIFORM, 0.5, delta=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(Scenario.UNIFORM, 0.5, a=0.0)


def entropy(spec, f):
    return entropies(spec)[f - 1]


def class_mi(spec, f):
    return class_mis(spec)[f - 1]


def test_entropy_examples():
    assert entropy(spec_i(), V.V1) == pytest.approx(0.0)
    assert entropy(spec_i(), V.V3) == pytest.approx(math.log(0.5) - 1, abs=1e-12)
    assert entropy(spec_ii(), V.V1) == pytest.approx(1.4189, abs=5e-5)
    assert entropy(spec_i(delta=0.4), V.V1) == pytest.approx(math.log(0.8))
    assert entropy(spec_i(), V.V2) == pytest.approx(math.log(3.0))
    assert entropy(spec_ii(), V.V4) == pytest.approx(1.7655, abs=5e-5)


# Each entropy kind: its features, and its closed forms in scenario I (of
# delta and a) and in scenario II (of a), written out independently of oracle.py.
ENTROPY_KINDS = {
    "driver": ((V.V1, V.V5, V.V7, V.V9),
               lambda delta, a: math.log(2.0 * delta),
               lambda a: 0.5 * math.log(2.0 * math.pi * math.e)),
    "affine": ((V.V2,),
               lambda delta, a: math.log(2.0 * abs(a) * delta),
               lambda a: 0.5 * math.log(2.0 * math.pi * math.e * a**2)),
    "square": ((V.V3, V.V6, V.V8),
               lambda delta, a: math.log(2.0 * delta**2) - 1.0,
               lambda a: 0.5 * (1.0 + math.log(math.pi) - 0.5772156649015329)),
    "sum": ((V.V4, V.V10),
            lambda delta, a: 0.5 + math.log(2.0 * delta),
            lambda a: 0.5 * math.log(4.0 * math.pi * math.e)),
}


@pytest.mark.parametrize("kind", ENTROPY_KINDS)
def test_entropy_kind_is_its_closed_form(kind):
    # exact, and at shapes away from the defaults, so a feature given the
    # wrong kind fails even where two kinds happen to agree at delta 0.5, a 3
    features, uniform, gaussian = ENTROPY_KINDS[kind]
    assert sorted(f for fs, _, _ in ENTROPY_KINDS.values() for f in fs) == list(FEATURES)
    for delta, a in itertools.product((0.25, 0.5, 1.7), (-2.0, 0.5, 3.0)):
        for f in features:
            assert entropy(ScenarioSpec(Scenario.UNIFORM, 0.3, delta, a), f) == uniform(delta, a)
            assert entropy(ScenarioSpec(Scenario.GAUSSIAN, 0.3, delta, a), f) == gaussian(a)


def test_class_mi_closed_forms():
    assert class_mi(spec_i(0.2), V.V1) == pytest.approx(0.5932, abs=1e-4)
    assert class_mi(spec_i(0.8), V.V7) == pytest.approx(0.1153, abs=5e-5)
    assert class_mi(spec_i(0.2), V.V4) == pytest.approx(0.1785, abs=5e-5)
    assert class_mi(spec_i(0.8), V.V4) == pytest.approx(0.0201, abs=5e-5)
    for k in (0.2, 0.5, 0.8):
        assert class_mi(spec_i(k), V.V8) == 0.0


def uniform_class_mis_exact(k: float) -> tuple[Decimal, Decimal, Decimal]:
    """The class MIs of X, X-Y and Y in scenario I, in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        k, one = Decimal(k), Decimal(1)
        x = Decimal(2).ln() - k / 2
        diff = -((k - one) ** 2) * (one - k).ln() / (4 * k)
        y = ((k * k + one) * ((one + k) / (one - k)).ln()
             + 2 * k * ((one - k * k).ln() - one)) / (4 * k)
        return x, diff, y


def test_uniform_class_mis_at_any_slope():
    # a log grid of k toward 0, where the logs of 1 - k and 1 + k nearly cancel,
    # and toward 1
    grid = np.concatenate([np.logspace(-40, -0.01, 300), 1.0 - np.logspace(-14, -1, 60)])
    for k in grid.tolist():
        got = class_mis(spec_i(k))
        for f, want in zip((V.V1, V.V4, V.V7), uniform_class_mis_exact(k)):
            assert got[f - 1] >= 0.0, (k, f)
            assert abs(got[f - 1] - float(want)) <= 1e-14, (k, f)


def test_class_mi_does_not_depend_on_delta():
    # C = 1{X + kY >= 0} is invariant when the drivers are scaled together
    for k in (0.2, 0.8):
        reference = class_mis(spec_i(k))
        for delta in (0.25, 1.0, 2.0):
            assert class_mis(spec_i(k, delta)) == reference


def test_quadrature_stability():
    # the Gauss-Legendre rule agrees with a dense trapezoid rule on the same
    # integral: sum over the two classes of 1/2 * int f_c ln(f_c / phi)
    t = np.linspace(-8.0, 8.0, 16_001)
    phi = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    for f, alpha in ((V.V1, 1.0 / 0.3), (V.V7, 0.3)):
        dense = 0.0
        for a in (alpha, -alpha):
            log_cdf = log_ndtr(a * t)
            dense += 0.5 * trapezoid(2.0 * phi * np.exp(log_cdf) * (LN2 + log_cdf), t)
        assert abs(class_mi(spec_ii(0.3), f) - dense) < 1e-9


def test_log_ndtr_matches_scipy():
    # both sides of the switch to the Mills-ratio series at -20
    x = np.linspace(-45.0, 8.0, 53_001)
    assert np.max(np.abs(_log_ndtr(x) - log_ndtr(x))) <= 1e-12


def test_ndtr_matches_scipy():
    # down to where Phi is still a normal float
    x = np.linspace(-37.0, 8.0, 45_001)
    assert np.max(np.abs(_ndtr(x) / ndtr(x) - 1.0)) <= 1e-12


def quad_skew_pair_mi(alpha):
    """The class-MI integral by adaptive quadrature, the integrand summed over both signs."""
    def integrand(t, a):
        lc = log_ndtr(a * t)
        return 2.0 * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * math.exp(lc) * (LN2 + lc)

    # break points where Phi(a t) turns over, which quad alone misses at large alpha
    steps = [s * m / alpha for m in (1.0, 4.0, 16.0) for s in (-1.0, 1.0) if m / alpha < 8.0]
    return sum(0.5 * quad(integrand, -8.0, 8.0, args=(a,), points=[0.0] + steps,
                          epsabs=1e-14, epsrel=1e-14, limit=500)[0]
               for a in (alpha, -alpha))


@pytest.mark.parametrize("k", [1e-3, 0.01, 0.05, 0.2, 0.3, 0.5, 0.8, 0.95, 0.99, 0.999])
def test_gaussian_class_mi_matches_adaptive_quadrature(k):
    # V1 and V7 are these integrals; V4's is one too, pinned at k = 0.2 and 0.8
    mis = class_mis(spec_ii(k))
    assert mis[V.V1 - 1] == _skew_pair_mi(1.0 / k)
    assert mis[V.V7 - 1] == _skew_pair_mi(k)
    for alpha in (1.0 / k, k, (1.0 - k) / (1.0 + k)):
        assert abs(_skew_pair_mi(alpha) - quad_skew_pair_mi(alpha)) <= 1e-12


def test_affine_invariance_is_exact():
    for spec in (spec_i(0.2), spec_i(0.8), spec_ii(0.2), spec_ii(0.8)):
        p = oracle_provider(spec)
        assert p.class_mi(V.V1) == p.class_mi(V.V2)


def test_class_independent_features_are_exactly_zero():
    for spec in (spec_i(0.37), spec_ii(0.37)):
        for f in (V.V3, V.V5, V.V6, V.V8, V.V9, V.V10):
            assert class_mi(spec, f) == 0.0


def test_pairwise_examples():
    assert pairwise_mi(spec_i(), V.V1, V.V2) == math.inf
    assert pairwise_mi(spec_i(), V.V1, V.V4) == 0.5
    assert pairwise_mi(spec_ii(), V.V3, V.V4) == pytest.approx(0.1078)
    assert pairwise_mi(spec_i(), V.V5, V.V9) == 0.0
    assert pairwise_mi(spec_i(), V.V3, V.V4) == pytest.approx((1 - LN2) / 2)
    assert pairwise_mi(spec_ii(), V.V1, V.V4) == pytest.approx(LN2 / 2)


def test_pairwise_symmetry_and_diagonal():
    for spec in (spec_i(), spec_ii()):
        for i in FEATURES:
            assert pairwise_mi(spec, i, i) == math.inf
            for j in FEATURES:
                a = pairwise_mi(spec, i, j)
                b = pairwise_mi(spec, j, i)
                assert a == b


def test_squared_feature_zero_mi():
    assert abs(mi_class_squared_feature(0.2, "uniform", 0.5)) < 1e-3
    assert abs(mi_class_squared_feature(0.8, "uniform", 1.0)) < 1e-3
    assert abs(mi_class_squared_feature(0.5, "normal")) < 1e-3
    with pytest.raises(ValueError):
        mi_class_squared_feature(1.2, "uniform")
    with pytest.raises(ValueError):
        mi_class_squared_feature(0.5, "cauchy")


def quad_mi_class_squared_feature(k, base, delta):
    """MI(C_k, X^2) by adaptive quadrature of the joint density of (|X|, C)."""
    if base == "uniform":
        def pdf(t):
            return 1.0 / (2.0 * delta) if abs(t) <= delta else 0.0

        def cdf(t):
            return min(1.0, max(0.0, (t + delta) / (2.0 * delta)))

        top = delta
    else:
        def pdf(t):
            return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

        cdf = ndtr
        top = 8.0

    def joint(t, sign):
        return pdf(t) * cdf(-sign * t / k) + pdf(-t) * cdf(sign * t / k)

    total = 0.0
    for sign in (1, -1):
        p_class = quad(joint, 0.0, top, args=(sign,), epsabs=1e-12, limit=200)[0]

        def integrand(t):
            j, m = joint(t, sign), pdf(t) + pdf(-t)
            return j * math.log(j / (p_class * m)) if j > 0.0 and m > 0.0 else 0.0

        total += quad(integrand, 0.0, top, epsabs=1e-12, limit=200)[0]
    return total


def test_squared_feature_matches_adaptive_quadrature():
    # the six cases of `miselect verify`
    for k in (0.2, 0.8):
        for base, delta in (("uniform", 0.5), ("uniform", 1.0), ("normal", 0.5)):
            got = mi_class_squared_feature(k, base, delta)
            assert abs(got - quad_mi_class_squared_feature(k, base, delta)) <= 1e-12


def test_provider_examples():
    p = oracle_provider(spec_i(0.2))
    assert p.class_mi(V.V1) == pytest.approx(0.5932, abs=1e-4)
    assert p.pairwise_mi(V.V1, V.V1) == math.inf
    assert oracle_provider(spec_ii()).entropy(V.V4) == pytest.approx(
        1.7655, abs=5e-5
    )


def test_tables_hold_finite_floats_and_infinite_pairwise_mis():
    def tables(entropy=1.0, class_mi=0.5, pairwise=0.25):
        # the entry under test is the first entropy, class MI or pairwise MI
        return MITables([entropy] + [1.0] * 9, [class_mi] + [0.5] * 9,
                        lambda i, j: pairwise if (i, j) == (V.V1, V.V2) else 0.25)

    nan, inf = math.nan, math.inf
    refused = [{"entropy": v} for v in (nan, inf, -inf)]
    refused += [{"class_mi": v} for v in (nan, inf, -inf)]
    refused += [{"pairwise": v} for v in (nan, -inf)]
    for entry in refused:
        (value,) = entry.values()
        with pytest.raises(ValueError, match=re.escape(f"not a finite real: {value!r}")):
            tables(**entry)
    assert tables(pairwise=inf).pairwise_mi(V.V2, V.V1) == inf
    t = tables(entropy=-0.0, class_mi=-0.0, pairwise=-0.0)
    for v in (t.entropy(V.V1), t.class_mi(V.V1), t.pairwise_mi(V.V2, V.V1)):
        assert v == 0.0 and math.copysign(1.0, v) == 1.0  # -0.0 reads back as +0.0
    t = tables(np.float64(0.5), np.float64(0.25), np.float64(0.125))
    for v in (t.entropy(V.V1), t.class_mi(V.V1), t.pairwise_mi(V.V1, V.V2)):
        assert type(v) is float


def test_pairwise_matrix_holds_one_object_per_pair():
    sample = generate_sample(spec_i(), 200, np.random.default_rng(3))
    for tables in (oracle_provider(spec_i()), oracle_provider(spec_ii()),
                   estimated_provider(sample), random_provider(np.random.default_rng(4))):
        for i in FEATURES:
            for j in FEATURES:
                assert tables.pairwise_mi(i, j) is tables.pairwise_mi(j, i)


def test_spot_check_constants():
    assert -0.2 / 2 + LN2 == pytest.approx(0.5932, abs=1e-4)
    assert -((0.2 - 1) ** 2) * math.log(0.8) / 0.8 == pytest.approx(0.1785, abs=5e-5)


def test_feature_labels():
    labels = feature_labels(spec_i())
    assert labels == ("X", "3X+1", "Y2", "X-Y", "Z", "Z2", "Y", "X2", "W+2", "Z+W")
    labels = feature_labels(ScenarioSpec(Scenario.UNIFORM, 0.2, a=2.0, b=0.5, d=0.5))
    assert labels[V.V2 - 1] == "2X+0.5" and labels[V.V9 - 1] == "W+0.5"
