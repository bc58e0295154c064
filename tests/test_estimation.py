import math
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import write_csv
from miselect import estimation
from miselect.estimation import (
    DegenerateSampleError,
    Sample,
    bin_count,
    bin_rows,
    count_entropy,
    estimate_entropy_1d,
    estimate_mi_class,
    estimate_mi_features,
    estimated_provider,
    pair_bin_count,
    plogp_table,
)
from miselect.infotheory import plugin_entropy
from miselect.oracle import FEATURES, FeatureId, Scenario, ScenarioSpec
from miselect.selection import Method, MethodSpec, select_all
from miselect.simlab import generate_sample

F = FeatureId
SPEC_I = ScenarioSpec(Scenario.UNIFORM, 0.2)


def one_row(x, count):
    """x on ``count`` equal-width bins: :func:`bin_rows` of one row."""
    [[column]] = bin_rows(np.asarray(x)[None], (count,), ["x"])
    return column


def one_column_sample(x, labels):
    """A :class:`Sample` of ``labels`` whose ten columns all hold ``x``."""
    x = np.asarray(x, dtype=float)
    return Sample(np.broadcast_to(x[:, None], (x.size, len(FEATURES))), labels)


def entropy_1d(x):
    """The entropy estimate of a raw column, binned at m bins."""
    return estimate_entropy_1d(one_row(x, bin_count(np.size(x))))


def mi_features(x, y):
    """The MI estimate of two raw columns, each binned at q bins."""
    q = pair_bin_count(np.size(x))
    return estimate_mi_features(one_row(x, q), one_row(y, q))


def mi_class(x, labels):
    """The class-MI estimate of a raw column, binned at m bins, and raw labels."""
    return estimate_mi_class(one_row(x, bin_count(np.size(x))), one_column_sample(x, labels))


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


def test_binning_scheme_assigns_max_to_last_bin():
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    codes = one_row(x, 4).codes
    assert codes.tolist() == [0, 1, 2, 3, 3]  # 0.75 and the max 1.0
    counts, _ = np.histogram(x, bins=np.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(np.bincount(codes, minlength=4), counts)


def test_entropy_1d_uniform():
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, 1_000_000)
    assert abs(entropy_1d(x)) < 0.01


def test_entropy_1d_gaussian():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1_000_000)
    assert entropy_1d(x) == pytest.approx(1.4189, abs=0.01)


def test_entropy_1d_degenerate():
    with pytest.raises(DegenerateSampleError):
        entropy_1d(np.ones(100))


def test_mi_features_independent_pair_near_zero():
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.5, 0.5, 1_000_000)
    y = rng.uniform(-0.5, 0.5, 1_000_000)
    assert abs(mi_features(x, y)) < 0.01


def test_mi_features_replicate_mean_independent_pair():
    mean = replicate_mean(
        lambda s: mi_features(s.features[:, F.V1 - 1], s.features[:, F.V3 - 1]),
        reps=150, n=1000, seed=61,
    )
    assert mean == pytest.approx(0.0107, abs=0.01)


def test_mi_features_symmetry_is_exact():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2000)
    y = x - rng.standard_normal(2000)
    assert mi_features(x, y) == mi_features(y, x)


def test_mi_class_replicate_means():
    mean1 = replicate_mean(
        lambda s: mi_class(s.features[:, F.V1 - 1], s.labels), reps=150, n=1000, seed=62
    )
    assert mean1 == pytest.approx(0.5932, abs=0.02)
    mean3 = replicate_mean(
        lambda s: mi_class(s.features[:, F.V3 - 1], s.labels), reps=150, n=1000, seed=63
    )
    assert mean3 == pytest.approx(0.0075, abs=0.01)


def test_mi_class_independent_labels():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, 1_000_000)
    labels = rng.integers(0, 2, 1_000_000)
    assert abs(mi_class(x, labels)) < 0.01


def test_mi_class_requires_both_labels():
    sample = one_column_sample(np.arange(100.0), np.zeros(100, dtype=int))
    with pytest.raises(ValueError, match="^need both class labels in the sample$"):
        estimated_provider(sample)


def test_sample_counts_the_two_classes_and_refuses_other_labels():
    sample = one_column_sample(np.arange(5.0), np.array([1, 0, 1, 1, 0]))
    assert sample.labels.tolist() == [1, 0, 1, 1, 0] and sample.class_sizes == [2, 3]
    assert one_column_sample(np.arange(5.0), np.ones(5)).class_sizes == [0, 5]
    for bad in ([0, 1, 1, 0, 2], [0, 1, 1, 0, -1], [0.0, 1.0, 1.0, 0.0, 0.5]):
        with pytest.raises(ValueError, match="^labels must be 0/1$"):
            one_column_sample(np.arange(5.0), np.array(bad))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20_000), st.integers(1, 80),
       st.sampled_from(["spread", "one full bin", "all occupied"]),
       st.integers(0, 2**32 - 1))
@example(1, 1, "one full bin", 0)
@example(20_000, 80, "all occupied", 0)
@example(7, 80, "spread", 0)
def test_count_entropy_is_the_plugin_entropy_bit_for_bit(total, bins, layout, seed):
    rng = np.random.default_rng(seed)
    if layout == "one full bin":
        counts = np.zeros(bins, dtype=np.intp)
        counts[rng.integers(bins)] = total
    elif layout == "all occupied":
        bins = min(bins, total)
        counts = 1 + rng.multinomial(total - bins, np.full(bins, 1 / bins))
    else:  # a sparse Dirichlet leaves bins empty
        counts = rng.multinomial(total, rng.dirichlet(np.full(bins, 0.3)))
    assert counts.sum() == total
    grid = rng.integers(0, total + 1, size=(bins, 3))
    grid[:, 1] = counts  # a strided column view, as estimate_mi_class passes
    for view in (counts, grid[:, 1]):
        assert float.hex(count_entropy(view, total)) == float.hex(plugin_entropy(view / total))


def test_plogp_table_is_read_only_and_cached():
    table = plogp_table(200)
    assert plogp_table(200) is table
    assert table[0] == 0.0 and table[200] == 0.0 and (table[1:200] < 0.0).all()
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[1] = 0.0


def test_estimator_consistency_trend():
    # replicate-mean absolute error shrinks with n, up to Monte Carlo noise
    targets = {
        "h1": (lambda s: entropy_1d(s.features[:, F.V1 - 1]), 0.0),
        "cmi1": (lambda s: mi_class(s.features[:, F.V1 - 1], s.labels), 0.59315),
        "fmi14": (
            lambda s: mi_features(s.features[:, F.V1 - 1], s.features[:, F.V4 - 1]),
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
    assert entropy_1d(a.features[:, F.V1 - 1]) == entropy_1d(b.features[:, F.V1 - 1])
    assert (mi_class(a.features[:, F.V4 - 1], a.labels)
            == mi_class(b.features[:, F.V4 - 1], b.labels))


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
    write_csv(sample, path)
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
            x = sample.features[:, f - 1]
            assert p.entropy(f) == ref_entropy_1d(x, m)
            assert p.class_mi(f) == ref_mi_class(x, sample.labels, m)
        for i, j in combinations(FEATURES, 2):
            x, y = sample.features[:, i - 1], sample.features[:, j - 1]
            assert p.pairwise_mi(i, j) == ref_mi_features(x, y, q)
        for f in FEATURES:  # the self-MI I(X;X) on the pair grid
            x = sample.features[:, f - 1]
            assert p.pairwise_mi(f, f) == ref_mi_features(x, x, q)
        # the public functions share the kernel: a binned column keeps its
        # own resolution, m, q or any other
        x, y = sample.features[:, F.V1 - 1], sample.features[:, F.V4 - 1]
        assert entropy_1d(x) == ref_entropy_1d(x, m)
        assert mi_class(x, sample.labels) == ref_mi_class(x, sample.labels, m)
        assert mi_features(x, y) == ref_mi_features(x, y, q)
        bx, by = one_row(x, 13), one_row(y, 13)
        assert estimate_entropy_1d(bx) == ref_entropy_1d(x, 13)
        assert estimate_mi_class(bx, sample) == ref_mi_class(x, sample.labels, 13)
        assert estimate_mi_features(bx, by) == ref_mi_features(x, y, 13)
        assert estimate_mi_features(one_row(x, 5), one_row(y, 5)) == ref_mi_features(
            x, y, 5)


@st.composite
def uneven_classes(draw):
    """(n, size of class 1): any split that leaves both classes present."""
    n = draw(st.integers(4, 5000))
    return n, draw(st.integers(1, n - 1))


@settings(max_examples=200, deadline=None)
@given(uneven_classes(), st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@example((4, 1), 1, 0.0, 0)
@example((5000, 1), 3, 1.0, 1)
@example((5000, 4999), 60, 0.5, 2)
def test_class_mi_equals_the_histogram_reference_for_uneven_classes(
        classes, distinct, on_edges, seed):
    # the samples above have near-balanced classes; here class 1 holds from
    # one observation to all but one, and the values are ties drawn from
    # ``distinct`` values or lie on the m-bin edges
    n, ones = classes
    rng = np.random.default_rng(seed)
    m = bin_count(n)
    lo = rng.uniform(-10.0, 10.0)
    hi = lo + rng.uniform(1e-3, 100.0)
    pool = rng.uniform(lo, hi, distinct)
    x = np.where(rng.random(n) < on_edges, rng.choice(np.linspace(lo, hi, m + 1), n),
                 rng.choice(pool, n))
    x[:2] = lo, hi
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, ones, replace=False)] = 1
    assert mi_class(x, labels).hex() == ref_mi_class(x, labels, m).hex()


def edge_row(m, exponent, mantissa, offset, inner):
    """[lo, hi], the m-bin edges of that range, their neighbours, then ``inner`` in it.

    The range is 1e-300 .. 1e301 wide, placed at up to 1e15 widths from 0.
    """
    width = mantissa * 10.0**exponent
    lo = width * offset
    hi = lo + width
    assume(math.isfinite(lo) and math.isfinite(hi) and hi > lo)
    edges = np.linspace(lo, hi, m + 1)
    x = np.concatenate([
        [lo, hi], edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        lo + width * np.array(inner, dtype=float),
    ])
    return np.clip(x, lo, hi)


RANGES = st.tuples(st.integers(-300, 300), st.floats(1.0, 10.0, exclude_max=True),
                   st.floats(-1e15, 1e15))


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
    x = edge_row(m, exponent, mantissa, offset, inner)
    lo, hi = x[0], x[1]
    edges = np.linspace(lo, hi, m + 1)
    binned = one_row(x, m)
    assert binned.count == m and binned.width == (hi - lo) / m
    codes = binned.codes
    expected = np.minimum(np.searchsorted(edges, x, side="right") - 1, m - 1)
    np.testing.assert_array_equal(codes, expected)
    counts, _ = np.histogram(x, bins=edges)
    np.testing.assert_array_equal(np.bincount(codes, minlength=m), counts)


@pytest.mark.parametrize("rows_per_block", [None, 1, 3])  # None: the default budget
@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 200),
    other=st.integers(1, 200),
    ranges=st.lists(RANGES, min_size=2, max_size=7),
    inner=st.lists(st.floats(0.0, 1.0), max_size=20),
)
@example(m=200, other=3, ranges=[(-5, 1.0, 1e15), (300, 9.9, 0.0), (-300, 1.0, -3.0)],
         inner=[0.3])
def test_row_blocks_equal_the_rows_alone(rows_per_block, m, other, ranges, inner):
    # every row is binned on its own edges in one multi-row call, whatever
    # the rows are grouped into; the one-row call is the reference
    rows = np.array([edge_row(m, e, mant, off, inner) for e, mant, off in ranges])
    budget = estimation.BLOCK_CELLS if rows_per_block is None else rows_per_block
    if rows_per_block == 3:
        budget *= rows.shape[1]
    with mock.patch.object(estimation, "BLOCK_CELLS", budget):
        blocks = bin_rows(rows, (m, other), "abcdefg")
    for count, binned in zip((m, other), blocks):
        assert len(binned) == len(rows)
        for x, b in zip(rows, binned):
            edges = np.linspace(x.min(), x.max(), count + 1)
            expected = np.minimum(np.searchsorted(edges, x, side="right") - 1, count - 1)
            np.testing.assert_array_equal(b.codes, expected)
            alone = one_row(x, count)
            assert b.count == count
            assert b.width.hex() == alone.width.hex() == ((x.max() - x.min()) / count).hex()
            assert b.entropy.hex() == alone.entropy.hex()
            np.testing.assert_array_equal(alone.codes, expected)


@pytest.mark.parametrize("budget", [1, estimation.BLOCK_CELLS])
def test_a_range_too_narrow_for_its_bins_is_refused(budget):
    # the middle row's width at 200 bins, 1e-323 / 200, underflows to 0, and
    # its entropy's ln(width) term would not exist; at 2 bins it is binned
    rows = np.array([[0.0, 1.0, 0.5], [0.0, 1e-323, 5e-324], [7.0, 7.0, 7.0]])
    with mock.patch.object(estimation, "BLOCK_CELLS", budget):
        for counts in ((200, 2), (2, 200)):
            with pytest.raises(ValueError) as caught:
                bin_rows(rows, counts, "abc")
            assert type(caught.value) is ValueError  # not a degenerate sample
            assert str(caught.value) == "column b: range 1e-323 is too narrow for 200 bins"
        with pytest.raises(DegenerateSampleError, match="^column c: all observations"):
            bin_rows(rows[::-1], (200, 2), "cba")  # the first failing row decides
        [[binned]] = bin_rows(rows[1:2], (2,), "b")
    assert binned.width == 5e-324 and binned.codes.tolist() == [0, 1, 1]


@pytest.mark.parametrize("budget", [1, estimation.BLOCK_CELLS])
def test_first_failing_column_decides_the_error(budget):
    sample = generate_sample(SPEC_I, 200, np.random.default_rng(13))

    def provider(**columns):
        features = sample.features.copy()
        for name, values in columns.items():
            features[:, estimation.COLUMNS.index(name)] = values
        return estimated_provider(Sample(features, sample.labels))

    huge = np.where(np.arange(sample.n) % 2, 1e308, -1e308)
    with mock.patch.object(estimation, "BLOCK_CELLS", budget):
        overflow = r"^column v3: range from -1e\+308 to 1e\+308 overflows$"
        with pytest.raises(ValueError, match=overflow):
            provider(v3=huge, v7=0.5)
        with pytest.raises(DegenerateSampleError, match="^column v7: all observations are equal$"):
            provider(v7=0.5, v9=-2.0)
        with pytest.raises(ValueError, match="need both class labels"):
            estimated_provider(Sample(np.where(np.arange(10) == 4, 1.0, sample.features),
                                      np.zeros(sample.n)))


def test_sample_layouts_agree():
    sample = generate_sample(SPEC_I, 64, np.random.default_rng(14))
    rows = np.ascontiguousarray(sample.features.T)  # feature-major, as generated
    assert rows.T.flags.f_contiguous and sample.features.flags.f_contiguous
    for r, c in ((40, 2), (5, 7)):  # (40, 2) comes first in memory, (5, 7) in row order
        rows[c, r] = np.nan
    copy = np.ascontiguousarray(rows.T)
    assert copy.flags.c_contiguous
    messages = set()
    for features in (rows.T, copy):
        with pytest.raises(ValueError) as caught:
            Sample(features, sample.labels)
        messages.add(str(caught.value))
    assert messages == {"non-finite value nan in row 6, column v8"}


def test_sample_csv_bytes_do_not_depend_on_layout(tmp_path):
    sample = generate_sample(SPEC_I, 64, np.random.default_rng(15))
    texts = []
    for i, features in enumerate((sample.features, np.ascontiguousarray(sample.features))):
        path = tmp_path / f"{i}.csv"
        layout = Sample(features, sample.labels)
        assert layout.features.flags.f_contiguous
        write_csv(layout, path)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    assert Sample.from_csv(str(tmp_path / "1.csv")).features.flags.f_contiguous


def test_binning_rejects_non_finite_observations():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^observations must be finite, with a finite range$"):
            entropy_1d(np.array([0.0, 1.0, bad, 2.0]))
    # every value is finite, but hi - lo overflows
    with pytest.raises(ValueError, match=r"^column x: range from -1e\+308 to 1e\+308 overflows$"):
        entropy_1d(np.array([-1e308, 0.0, 1e308, 5.0]))


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
        estimate_mi_features(one_row(x, 10), one_row(x, 4))
    with pytest.raises(ValueError, match="length mismatch"):
        estimate_mi_class(one_row(x, 10), one_column_sample(x[:50], np.arange(50) % 2))
