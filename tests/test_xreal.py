import itertools
import math
from functools import reduce

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from miselect.xreal import (
    NEG_INF,
    POS_INF,
    ZERO,
    IndetKind,
    box,
    fadd,
    fdiv,
    fmax,
    fmul,
    fsub,
)

ALL_INDETS = [box(k) for k in IndetKind]
SAMPLE = [box(v) for v in (-3.0, -0.5, 0.0, 0.25, 2.0)]
SAMPLE += [POS_INF, NEG_INF] + ALL_INDETS


def raw(v):
    """The float or IndetKind of an XReal: the form the operations take."""
    return v.indet_kind if v.is_indet else v.value


def boxed(op, a, b):
    """An operation applied to two XReals, its result boxed."""
    return box(op(raw(a), raw(b)))


def fold(op, values, *start):
    """Left fold of an operation over XReals, boxed once at the end."""
    return box(reduce(op, [raw(v) for v in (*start, *values)]))


def test_negative_zero_collapses():
    assert str(box(-0.0)) == "0"
    assert box(-0.0) == ZERO


def test_add_examples():
    assert boxed(fadd, POS_INF, NEG_INF).indet_kind is IndetKind.INF_MINUS_INF
    assert boxed(fadd, box(2.0), box(3.0)) == box(5.0)
    assert boxed(fadd, NEG_INF, box(0.5)) is NEG_INF


def test_mul_examples():
    assert boxed(fmul, box(0.0), POS_INF).indet_kind is IndetKind.ZERO_TIMES_INF
    assert boxed(fmul, box(-2.0), POS_INF) is NEG_INF
    assert boxed(fmul, box(0.4), box(0.5)) == box(0.2)
    assert boxed(fmul, NEG_INF, NEG_INF) is POS_INF


def test_div_examples():
    zero_over_zero = boxed(fdiv, box(0.0), box(0.0))
    assert zero_over_zero.indet_kind is IndetKind.ZERO_OVER_ZERO
    assert boxed(fdiv, box(0.5), box(0.0)) is POS_INF
    assert boxed(fdiv, box(-0.5), box(0.0)) is NEG_INF
    assert boxed(fdiv, box(3.0), NEG_INF) == ZERO
    assert boxed(fdiv, POS_INF, NEG_INF).indet_kind is IndetKind.INF_OVER_INF
    assert boxed(fdiv, POS_INF, box(0.0)) is POS_INF
    assert boxed(fdiv, NEG_INF, box(0.0)) is NEG_INF
    assert boxed(fdiv, NEG_INF, box(-2.0)) is POS_INF


def test_sum_is_left_fold():
    total = fold(fadd, [POS_INF, box(1.0), NEG_INF], ZERO)
    assert total.indet_kind is IndetKind.INF_MINUS_INF
    assert fold(fadd, [], ZERO) == ZERO
    assert fold(fadd, [box(0.5), box(0.25)], ZERO) == box(0.75)


def test_neg_examples():
    # negation is subtraction from zero
    assert boxed(fsub, ZERO, NEG_INF) is POS_INF
    assert boxed(fsub, ZERO, box(2.5)) == box(-2.5)
    assert boxed(fsub, ZERO, ALL_INDETS[0]) is ALL_INDETS[0]


def test_ordering():
    # fmax orders -inf < finite < +inf and keeps the first operand on a tie
    assert boxed(fmax, NEG_INF, box(-1e9)) == box(-1e9)
    assert boxed(fmax, box(0.0), POS_INF) is POS_INF
    a, b = float("inf"), float("inf")
    assert fmax(a, b) is a
    # an indeterminate operand is not ordered: it absorbs
    assert boxed(fmax, ALL_INDETS[0], box(0.0)) is ALL_INDETS[0]


def test_extrema():
    assert fold(fmax, [NEG_INF, box(1.0), box(3.0)]) == box(3.0)
    assert fold(fmax, [box(1.0), ALL_INDETS[2]]).is_indet


def test_rendering():
    assert str(box(0.5932)) == "0.5932"
    assert str(POS_INF) == "+inf"
    assert str(NEG_INF) == "-inf"
    assert str(box(IndetKind.ZERO_OVER_ZERO)) == "indet(0/0)"
    assert str(box(IndetKind.ZERO_TIMES_INF)) == "indet(0*inf)"


def test_absorption_property():
    for op in (fadd, fsub, fmul, fdiv):
        for ind, other in itertools.product(ALL_INDETS, SAMPLE):
            assert boxed(op, ind, other).is_indet
            assert boxed(op, other, ind).is_indet


def test_finite_closure_matches_float_arithmetic():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b = rng.uniform(-50, 50, size=2)
        assert boxed(fadd, box(a), box(b)).value == a + b
        assert boxed(fmul, box(a), box(b)).value == a * b
        if b != 0.0:
            assert boxed(fdiv, box(a), box(b)).value == a / b


def test_negation_involution():
    for v in SAMPLE:
        if v.is_indet:
            continue
        assert boxed(fsub, ZERO, boxed(fsub, ZERO, v)) == v


def test_commutativity_up_to_indeterminate():
    for op in (fadd, fmul):
        for a, b in itertools.product(SAMPLE, repeat=2):
            r1, r2 = boxed(op, a, b), boxed(op, b, a)
            assert r1.is_indet == r2.is_indet
            if not r1.is_indet:
                assert r1.value == r2.value


def test_every_indet_outcome_has_one_kind():
    outcomes = {
        boxed(fmul, ZERO, POS_INF).indet_kind,
        boxed(fadd, POS_INF, NEG_INF).indet_kind,
        boxed(fdiv, ZERO, ZERO).indet_kind,
        boxed(fdiv, NEG_INF, POS_INF).indet_kind,
    }
    assert outcomes == set(IndetKind)


def test_finite_values_never_nan():
    # a pile of operations on finite operands stays finite and NaN-free
    rng = np.random.default_rng(3)
    vals = [box(v) for v in rng.uniform(-5, 5, size=30)]
    for a, b in itertools.product(vals, repeat=2):
        for op in (fadd, fsub, fmul):
            r = boxed(op, a, b)
            assert math.isfinite(r.value) and not math.isnan(r.value)


# ---------------------------------------------------------------------------
# Reference: the case analysis xreal used while +inf and -inf were kinds of
# their own, written against the fields of XReal and the POS_INF and NEG_INF
# singletons.  The operations, on the raw float or IndetKind of each operand
# and with their results boxed, must reproduce it.  A finite result
# that overflows is boxed to +inf or -inf in both.
# ---------------------------------------------------------------------------

def ref_xneg(a):
    if a.is_indet:
        return a
    if a is POS_INF:
        return NEG_INF
    if a is NEG_INF:
        return POS_INF
    return box(-a.value)


def ref_xadd(a, b):
    if a.is_indet:
        return a
    if b.is_indet:
        return b
    if math.isfinite(a.value) and math.isfinite(b.value):
        return box(a.value + b.value)
    if math.isfinite(a.value):
        return b
    if math.isfinite(b.value):
        return a
    if (a is POS_INF) == (b is POS_INF):
        return a
    return box(IndetKind.INF_MINUS_INF)


def ref_xsub(a, b):
    return ref_xadd(a, ref_xneg(b))


def ref_xmul(a, b):
    if a.is_indet:
        return a
    if b.is_indet:
        return b
    if math.isfinite(a.value) and math.isfinite(b.value):
        return box(a.value * b.value)
    if math.isfinite(a.value) or math.isfinite(b.value):
        fin, inf = (a, b) if math.isfinite(a.value) else (b, a)
        if fin.value == 0.0:
            return box(IndetKind.ZERO_TIMES_INF)
        return POS_INF if (fin.value > 0.0) == (inf is POS_INF) else NEG_INF
    return POS_INF if (a is POS_INF) == (b is POS_INF) else NEG_INF


def ref_xdiv(a, b):
    if a.is_indet:
        return a
    if b.is_indet:
        return b
    if math.isfinite(b.value) and b.value == 0.0:
        if math.isfinite(a.value) and a.value == 0.0:
            return box(IndetKind.ZERO_OVER_ZERO)
        # one-sided limit convention: sign of the numerator
        positive = a is POS_INF or (math.isfinite(a.value) and a.value > 0.0)
        return POS_INF if positive else NEG_INF
    if math.isfinite(a.value) and math.isfinite(b.value):
        return box(a.value / b.value)
    if not math.isfinite(b.value):
        if not math.isfinite(a.value):
            return box(IndetKind.INF_OVER_INF)
        return ZERO
    # a infinite, b finite nonzero
    return POS_INF if (a is POS_INF) == (b.value > 0.0) else NEG_INF


def ref_order_class(v):
    if v is NEG_INF:
        return 0
    if math.isfinite(v.value):
        return 1
    return 2


def ref_compare(a, b):
    """-1, 0 or 1 for two determinate values under -inf < finite < +inf."""
    ka, kb = ref_order_class(a), ref_order_class(b)
    if ka != kb:
        return -1 if ka < kb else 1
    if math.isfinite(a.value):
        if a.value < b.value:
            return -1
        if a.value > b.value:
            return 1
    return 0


def ref_maximum(values):
    best = None
    indet = None
    for v in values:
        if v.is_indet:
            indet = indet or v
            continue
        if best is None or ref_compare(v, best) > 0:
            best = v
    if indet is not None:
        return indet
    if best is None:
        raise ValueError("maximum of an empty sequence")
    return best


SINGLETONS = [POS_INF, NEG_INF] + ALL_INDETS
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -1.5,
               1.7976931348623157e308, -1.7976931348623157e308]
XREALS = st.one_of(
    st.sampled_from(SINGLETONS),
    st.sampled_from(EDGE_FLOATS).map(box),
    # subnormals too
    st.floats(allow_nan=False, allow_infinity=False).map(box),
)
BINARY = [(fadd, ref_xadd), (fsub, ref_xsub), (fmul, ref_xmul), (fdiv, ref_xdiv)]


def assert_same(got, want):
    assert got == want
    assert got.indet_kind is want.indet_kind
    if want.is_indet or not math.isfinite(want.value):
        assert got is want  # the infinities and indeterminates are singletons
    assert str(got) == str(want)


@settings(max_examples=500, deadline=None)
@given(XREALS, XREALS)
@example(box(1.7976931348623157e308), box(1.7976931348623157e308))
@example(box(-0.0), box(0.0))
def test_operations_equal_the_case_analysis(a, b):
    assert_same(boxed(fsub, ZERO, a), ref_xneg(a))
    for op, ref in BINARY:
        assert_same(boxed(op, a, b), ref(a, b))
    # the order fmax keeps; an indeterminate operand absorbs
    pa, pb = raw(a), raw(b)
    if a.is_indet or b.is_indet:
        assert fmax(pa, pb) is (pa if a.is_indet else pb)
    else:
        assert fmax(pa, pb) is (pb if ref_compare(a, b) < 0 else pa)


@settings(max_examples=300, deadline=None)
@given(st.lists(XREALS, min_size=1, max_size=6))
def test_extrema_equal_the_case_analysis(values):
    assert_same(fold(fmax, values), ref_maximum(values))


@settings(max_examples=300, deadline=None)
@given(XREALS, XREALS)
def test_add_and_mul_commute_unless_both_operands_are_indeterminate(a, b):
    for op in (fadd, fmul):
        if a.is_indet and b.is_indet:
            assert boxed(op, a, b) is a and boxed(op, b, a) is b
        else:
            assert_same(boxed(op, a, b), boxed(op, b, a))


@given(st.sampled_from(ALL_INDETS), st.sampled_from(ALL_INDETS))
def test_first_indeterminate_operand_wins(a, b):
    for op in (fadd, fsub, fmul, fdiv):
        assert boxed(op, a, b) is a
    assert fold(fadd, [box(1.0), a, POS_INF, b], ZERO) is a
    assert fold(fmax, [box(1.0), a, b]) is a


@settings(max_examples=300, deadline=None)
@given(st.lists(XREALS, max_size=8))
def test_sum_is_the_left_fold_of_add(values):
    # the fold selection runs (on raw values, boxed once at the end) equals
    # boxing after every step
    assert_same(fold(fadd, values, ZERO),
                reduce(lambda acc, v: boxed(fadd, acc, v), values, ZERO))


def test_finite_overflow_gives_an_infinity():
    big = box(1.7976931348623157e308)
    assert boxed(fadd, big, big) is POS_INF
    assert boxed(fsub, boxed(fsub, ZERO, big), big) is NEG_INF
    assert boxed(fmul, big, box(-2.0)) is NEG_INF
    assert boxed(fdiv, big, box(0.5)) is POS_INF
    assert boxed(fdiv, box(-1e300), box(1e-300)) is NEG_INF
    # and the infinity then follows the extended-real rules
    assert boxed(fsub, boxed(fadd, big, big), POS_INF).indet_kind is IndetKind.INF_MINUS_INF
