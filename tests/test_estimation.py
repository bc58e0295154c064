import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from miselect import estimation
from miselect.estimation import (
    DegenerateSampleError,
    Sample,
    bin_column,
    bin_count,
    code_labels,
    estimate_entropy_1d,
    estimate_mi_class,
    estimate_mi_features,
    estimated_provider,
    pair_bin_count,
)
from miselect.oracle import FEATURES, FeatureId, Scenario, ScenarioSpec
from miselect.selection import Method, MethodSpec, select_all
from miselect.simlab import generate_sample

F = FeatureId
SPEC_I = ScenarioSpec(Scenario.UNIFORM, 0.2)


def replicate_mean(fn, reps, n, seed):
    ss = np.random.SeedSequence(seed)
    vals = []
    for child in ss.spawn(reps):
        sample = generate_sample(SPEC_I, n, np.random.default_rng(child))
        vals.append(fn(sample))
    return float(np.mean(vals))


def test_bin_counts():
    assert bin_count(1000) == 32
    assert bin_count(50) == 8
    assert pair_bin_count(1000) == 6
    with pytest.raises(ValueError):
        bin_count(3)


def test_binning_scheme_assigns_max_to_last_bin():
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    codes = bin_column(x, 4).codes
    assert codes.tolist() == [0, 1, 2, 3, 3]  # 0.75 and the max 1.0
    counts, _ = np.histogram(x, bins=np.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(np.bincount(codes, minlength=4), counts)


def test_entropy_1d_uniform():
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, 1_000_000)
    assert abs(estimate_entropy_1d(x)) < 0.01


def test_entropy_1d_gaussian():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1_000_000)
    assert estimate_entropy_1d(x) == pytest.approx(1.4189, abs=0.01)


def test_entropy_1d_degenerate():
    with pytest.raises(DegenerateSampleError):
        estimate_entropy_1d(np.ones(100))


def test_mi_features_independent_pair_near_zero():
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.5, 0.5, 1_000_000)
    y = rng.uniform(-0.5, 0.5, 1_000_000)
    assert abs(estimate_mi_features(x, y)) < 0.01


def test_mi_features_replicate_mean_independent_pair():
    mean = replicate_mean(
        lambda s: estimate_mi_features(s.column(F.V1), s.column(F.V3)),
        reps=150, n=1000, seed=61,
    )
    assert mean == pytest.approx(0.0107, abs=0.01)


def test_mi_features_symmetry_is_exact():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2000)
    y = x - rng.standard_normal(2000)
    assert estimate_mi_features(x, y) == estimate_mi_features(y, x)


def test_mi_class_replicate_means():
    mean1 = replicate_mean(
        lambda s: estimate_mi_class(s.column(F.V1), s.labels), reps=150, n=1000, seed=62
    )
    assert mean1 == pytest.approx(0.5932, abs=0.02)
    mean3 = replicate_mean(
        lambda s: estimate_mi_class(s.column(F.V3), s.labels), reps=150, n=1000, seed=63
    )
    assert mean3 == pytest.approx(0.0075, abs=0.01)


def test_mi_class_independent_labels():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, 1_000_000)
    labels = rng.integers(0, 2, 1_000_000)
    assert abs(estimate_mi_class(x, labels)) < 0.01


def test_mi_class_requires_both_labels():
    with pytest.raises(ValueError):
        estimate_mi_class(np.arange(100.0), np.zeros(100, dtype=int))


def test_estimator_consistency_trend():
    # replicate-mean absolute error shrinks with n, up to Monte Carlo noise
    targets = {
        "h1": (lambda s: estimate_entropy_1d(s.column(F.V1)), 0.0),
        "cmi1": (lambda s: estimate_mi_class(s.column(F.V1), s.labels), 0.59315),
        "fmi14": (
            lambda s: estimate_mi_features(s.column(F.V1), s.column(F.V4)),
            0.5,
        ),
    }
    reps = 120
    for name, (fn, truth) in targets.items():
        errs = []
        ses = []
        for n in (100, 1000, 100_000):
            ss = np.random.SeedSequence(1234)
            vals = [
                fn(generate_sample(SPEC_I, n, np.random.default_rng(c)))
                for c in ss.spawn(reps)
            ]
            errs.append(abs(np.mean(vals) - truth))
            ses.append(np.std(vals) / math.sqrt(reps))
        for i in (0, 1):
            slack = 2.0 * math.hypot(ses[i], ses[i + 1])
            assert errs[i + 1] <= errs[i] + slack, (name, errs)


def test_reproducibility_bit_identical():
    a = generate_sample(SPEC_I, 500, np.random.default_rng(77))
    b = generate_sample(SPEC_I, 500, np.random.default_rng(77))
    assert estimate_entropy_1d(a.column(F.V1)) == estimate_entropy_1d(b.column(F.V1))
    assert estimate_mi_class(a.column(F.V4), a.labels) == estimate_mi_class(
        b.column(F.V4), b.labels
    )


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(np.zeros((10, 9)), np.zeros(10))
    with pytest.raises(ValueError):
        Sample(np.zeros((3, 10)), np.zeros(3))
    with pytest.raises(ValueError):
        Sample(np.zeros((10, 10)), np.full(10, 2))
    with pytest.raises(ValueError, match="labels must be 0/1"):
        Sample(np.zeros((10, 10)), np.full(10, 0.5))  # not truncated to 0
    features = np.zeros((10, 10))
    features[3, 7] = np.inf
    with pytest.raises(ValueError, match="non-finite value inf in row 4, column v8"):
        Sample(features, np.zeros(10))


def test_sample_csv_round_trip(tmp_path):
    sample = generate_sample(SPEC_I, 64, np.random.default_rng(5))
    path = tmp_path / "s.csv"
    sample.to_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == "v1,v2,v3,v4,v5,v6,v7,v8,v9,v10,class"
    back = Sample.from_csv(str(path))
    np.testing.assert_array_equal(back.labels, sample.labels)
    np.testing.assert_allclose(back.features, sample.features, rtol=0, atol=0)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        Sample.from_csv(str(bad))


def test_estimated_provider_values_are_finite():
    sample = generate_sample(SPEC_I, 5000, np.random.default_rng(8))
    p = estimated_provider(sample)
    h1 = p.entropy(F.V1)
    assert math.isfinite(h1) and abs(h1) < 0.05  # near zero, sign not pinned
    big = p.pairwise_mi(F.V1, F.V2)
    assert math.isfinite(big)  # fully associated pair stays a large finite value
    assert big > 1.0


def test_estimated_provider_calls_each_estimator_once_per_table(monkeypatch):
    # perfbench/tracing.py times the estimator by wrapping these three module
    # attributes, and expects 10/10/45 calls per built provider
    sample = generate_sample(SPEC_I, 200, np.random.default_rng(11))
    plain = estimated_provider(sample)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("estimate_entropy_1d", "estimate_mi_class", "estimate_mi_features"):
        monkeypatch.setattr(estimation, name, counted(name, getattr(estimation, name)))
    wrapped = estimated_provider(sample)
    assert calls == {"estimate_entropy_1d": 10, "estimate_mi_class": 10,
                     "estimate_mi_features": 45}
    assert wrapped.entropies == plain.entropies
    assert wrapped.class_mis == plain.class_mis
    assert wrapped.matrix == plain.matrix


def test_estimated_provider_feeds_selection_without_indeterminates():
    sample = generate_sample(SPEC_I, 5000, np.random.default_rng(9))
    p = estimated_provider(sample)
    for method in Method:
        beta = 0.7 if method in (Method.MIFS, Method.MIFS_U) else None
        trace = select_all(MethodSpec(method, beta), p)
        assert len(trace.selected) == 10
        for step in trace.steps:
            assert not any(v.is_indet for v in step.objectives.values())


# ---------------------------------------------------------------------------
# Reference: the np.histogram / np.histogram2d estimator that the coded
# kernel replaced.  The kernel must reproduce it bit for bit.
# ---------------------------------------------------------------------------

def _ref_plugin(counts, n):
    p = counts[counts > 0] / n
    terms = p * np.log(p)
    terms.sort()
    return float(-terms.sum())


def _ref_edges(x, m):
    lo, hi = float(np.min(x)), float(np.max(x))
    return np.linspace(lo, hi, m + 1), (hi - lo) / m


def _ref_entropy_on(x, edges, width):
    counts, _ = np.histogram(x, bins=edges)
    return _ref_plugin(counts, x.size) + math.log(width)


def ref_entropy_1d(x, m):
    return _ref_entropy_on(x, *_ref_edges(x, m))


def ref_mi_class(x, labels, m):
    edges, width = _ref_edges(x, m)
    out = _ref_entropy_on(x, edges, width)
    for c in np.unique(labels):
        part = x[labels == c]
        out -= (part.size / x.size) * _ref_entropy_on(part, edges, width)
    return out


def ref_mi_features(x, y, q):
    (ex, _), (ey, _) = _ref_edges(x, q), _ref_edges(y, q)
    counts, _, _ = np.histogram2d(x, y, bins=[ex, ey])
    n = x.size
    return (_ref_plugin(counts.sum(axis=1), n) + _ref_plugin(counts.sum(axis=0), n)
            - _ref_plugin(counts.ravel(), n))


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("n", [50, 51, 200, 1000, 5000])
def test_estimates_equal_the_histogram_reference(scenario, n):
    m, q = bin_count(n), pair_bin_count(n)
    for seed, k in enumerate((0.2, 0.8, 0.2, 0.8)):
        sample = generate_sample(ScenarioSpec(scenario, k), n, np.random.default_rng(seed))
        p = estimated_provider(sample)
        for f in FEATURES:
            x = sample.column(f)
            assert p.entropy(f) == ref_entropy_1d(x, m)
            assert p.class_mi(f) == ref_mi_class(x, sample.labels, m)
        for i, j in combinations(FEATURES, 2):
            x, y = sample.column(i), sample.column(j)
            assert p.pairwise_mi(i, j) == ref_mi_features(x, y, q)
        for f in FEATURES:  # the self-MI I(X;X) on the pair grid
            x = sample.column(f)
            assert p.pairwise_mi(f, f) == ref_mi_features(x, x, q)
        # the public functions share the kernel: a raw column is binned at
        # m or q bins, a binned column keeps its own resolution
        x, y = sample.column(F.V1), sample.column(F.V4)
        assert estimate_entropy_1d(x) == ref_entropy_1d(x, m)
        assert estimate_mi_class(x, sample.labels) == ref_mi_class(x, sample.labels, m)
        assert estimate_mi_features(x, y) == ref_mi_features(x, y, q)
        bx, by = bin_column(x, 13), bin_column(y, 13)
        assert estimate_entropy_1d(bx) == ref_entropy_1d(x, 13)
        assert estimate_mi_class(bx, sample.labels) == ref_mi_class(x, sample.labels, 13)
        assert estimate_mi_class(bx, code_labels(sample.labels)) == ref_mi_class(
            x, sample.labels, 13)
        assert estimate_mi_features(bx, by) == ref_mi_features(x, y, 13)
        assert estimate_mi_features(bin_column(x, 5), bin_column(y, 5)) == ref_mi_features(
            x, y, 5)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 200),
    exponent=st.integers(-300, 300),
    mantissa=st.floats(1.0, 10.0, exclude_max=True),
    offset=st.floats(-1e15, 1e15),
    inner=st.lists(st.floats(0.0, 1.0), max_size=20),
)
@example(m=200, exponent=-5, mantissa=1.0, offset=1e15, inner=[0.3])  # edges coincide
@example(m=200, exponent=300, mantissa=9.9, offset=0.0, inner=[0.5])
@example(m=7, exponent=-300, mantissa=1.0, offset=-3.0, inner=[])
def test_bin_codes_equal_searchsorted(m, exponent, mantissa, offset, inner):
    # a range of width 1e-300 .. 1e301, placed at up to 1e15 widths from 0
    width = mantissa * 10.0**exponent
    lo = width * offset
    hi = lo + width
    assume(math.isfinite(lo) and math.isfinite(hi) and hi > lo)
    edges = np.linspace(lo, hi, m + 1)
    x = np.concatenate([
        [lo, hi], edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        lo + width * np.array(inner, dtype=float),
    ])
    x = np.clip(x, lo, hi)
    binned = bin_column(x, m)
    assert binned.count == m and binned.width == (hi - lo) / m
    codes = binned.codes
    expected = np.minimum(np.searchsorted(edges, x, side="right") - 1, m - 1)
    np.testing.assert_array_equal(codes, expected)
    counts, _ = np.histogram(x, bins=edges)
    np.testing.assert_array_equal(np.bincount(codes, minlength=m), counts)


def test_binning_rejects_non_finite_observations():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            estimate_entropy_1d(np.array([0.0, 1.0, bad, 2.0]))
    with pytest.raises(ValueError, match="finite range"):  # hi - lo overflows
        estimate_entropy_1d(np.array([-1e308, 0.0, 1e308, 5.0]))


def test_bad_samples_fail_when_the_provider_is_built():
    sample = generate_sample(SPEC_I, 200, np.random.default_rng(10))
    constant = sample.features.copy()
    constant[:, 4] = 0.25
    with pytest.raises(DegenerateSampleError, match="column v5: all observations"):
        estimated_provider(Sample(constant, sample.labels))
    with pytest.raises(ValueError, match="need both class labels"):
        estimated_provider(Sample(sample.features, np.ones(sample.n)))


def test_coded_inputs_must_match_the_requested_resolution():
    x = np.random.default_rng(12).uniform(size=100)
    with pytest.raises(ValueError, match="different resolutions"):
        estimate_mi_features(bin_column(x, 10), bin_column(x, 4))
    with pytest.raises(ValueError, match="length mismatch"):
        estimate_mi_class(bin_column(x, 10), code_labels(np.arange(50) % 2))
