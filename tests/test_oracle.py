import math

import numpy as np
import pytest

from conftest import random_provider
from miselect.estimation import estimated_provider
from miselect.oracle import (
    FEATURES,
    CLASS_INDEPENDENT,
    FeatureId,
    Scenario,
    ScenarioSpec,
    class_mi,
    entropy_of,
    feature_label,
    mi_y2_xy_gaussian,
    oracle_provider,
    pairwise_mi,
    mi_class_squared_feature,
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


def test_entropy_examples():
    assert entropy_of(spec_i(), V.V1).value == pytest.approx(0.0)
    assert entropy_of(spec_i(), V.V3).value == pytest.approx(math.log(0.5) - 1, abs=1e-12)
    assert entropy_of(spec_ii(), V.V1).value == pytest.approx(1.4189, abs=5e-5)
    assert entropy_of(spec_i(delta=0.4), V.V1).value == pytest.approx(math.log(0.8))
    assert entropy_of(spec_i(), V.V2).value == pytest.approx(math.log(3.0))
    assert entropy_of(spec_ii(), V.V4).value == pytest.approx(1.7655, abs=5e-5)


def test_class_mi_closed_forms():
    assert class_mi(spec_i(0.2), V.V1) == pytest.approx(0.5932, abs=1e-4)
    assert class_mi(spec_i(0.8), V.V7) == pytest.approx(0.1153, abs=5e-5)
    assert class_mi(spec_i(0.2), V.V4) == pytest.approx(0.1785, abs=5e-5)
    assert class_mi(spec_i(0.8), V.V4) == pytest.approx(0.0201, abs=5e-5)
    for k in (0.2, 0.5, 0.8):
        assert class_mi(spec_i(k), V.V8) == 0.0


def test_class_mi_gaussian_quadrature():
    assert class_mi(spec_ii(0.2), V.V1) == pytest.approx(0.5520, abs=1e-3)
    assert class_mi(spec_ii(0.8), V.V1) == pytest.approx(0.2495, abs=1e-3)
    assert class_mi(spec_ii(0.2), V.V7) == pytest.approx(0.0124, abs=1e-3)
    assert class_mi(spec_ii(0.8), V.V7) == pytest.approx(0.1434, abs=1e-3)
    assert class_mi(spec_ii(0.2), V.V4) == pytest.approx(0.0947, abs=1e-3)
    assert class_mi(spec_ii(0.8), V.V4) == pytest.approx(0.0032, abs=1e-3)


def test_class_mi_rejects_off_reference_delta():
    with pytest.raises(ValueError):
        class_mi(spec_i(0.2, delta=1.0), V.V1)


def test_quadrature_stability():
    for f in (V.V1, V.V7):
        coarse = class_mi(spec_ii(0.3), f, tol=1e-6)
        fine = class_mi(spec_ii(0.3), f, tol=5e-7)
        assert abs(coarse - fine) < 1e-5


def test_affine_invariance_is_exact():
    for spec in (spec_i(0.2), spec_i(0.8), spec_ii(0.2), spec_ii(0.8)):
        p = oracle_provider(spec)
        assert p.class_mi(V.V1) == p.class_mi(V.V2)


def test_class_independent_features_are_exactly_zero():
    for spec in (spec_i(0.37), spec_ii(0.37)):
        for f in CLASS_INDEPENDENT:
            assert class_mi(spec, f) == 0.0


def test_pairwise_examples():
    assert pairwise_mi(spec_i(), V.V1, V.V2).is_pos_inf
    assert pairwise_mi(spec_i(), V.V1, V.V4).value == 0.5
    assert pairwise_mi(spec_ii(), V.V3, V.V4).value == pytest.approx(0.1078)
    assert pairwise_mi(spec_i(), V.V5, V.V9).value == 0.0
    assert pairwise_mi(spec_i(), V.V3, V.V4).value == pytest.approx((1 - LN2) / 2)
    assert pairwise_mi(spec_ii(), V.V1, V.V4).value == pytest.approx(LN2 / 2)


def test_pairwise_symmetry_and_diagonal():
    for spec in (spec_i(), spec_ii()):
        for i in FEATURES:
            assert pairwise_mi(spec, i, i).is_pos_inf
            for j in FEATURES:
                a = pairwise_mi(spec, i, j)
                b = pairwise_mi(spec, j, i)
                assert a == b


def test_mi_y2_xy_gaussian():
    assert mi_y2_xy_gaussian() == pytest.approx(0.1078, abs=2e-3)
    # the constant limb alone (expectation replaced by ln cosh(0) = 0)
    assert -1 + LN2 / 2 == pytest.approx(-0.6534, abs=5e-5)


def test_squared_feature_zero_mi():
    assert abs(mi_class_squared_feature(0.2, "uniform", 0.5)) < 1e-3
    assert abs(mi_class_squared_feature(0.8, "uniform", 1.0)) < 1e-3
    assert abs(mi_class_squared_feature(0.5, "normal")) < 1e-3
    with pytest.raises(ValueError):
        mi_class_squared_feature(1.2, "uniform")
    with pytest.raises(ValueError):
        mi_class_squared_feature(0.5, "cauchy")


def test_provider_examples():
    p = oracle_provider(spec_i(0.2))
    assert p.class_mi(V.V1).value == pytest.approx(0.5932, abs=1e-4)
    assert p.pairwise_mi(V.V1, V.V1).is_pos_inf
    assert oracle_provider(spec_ii()).entropy(V.V4).value == pytest.approx(
        1.7655, abs=5e-5
    )


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
    spec = spec_i()
    labels = [feature_label(f, spec) for f in FEATURES]
    assert labels == ["X", "3X+1", "Y2", "X-Y", "Z", "Z2", "Y", "X2", "W+2", "Z+W"]
    assert feature_label(V.V2, ScenarioSpec(Scenario.UNIFORM, 0.2, a=2.0, b=0.5)) == "2X+0.5"
