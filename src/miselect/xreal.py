"""Closed arithmetic over the extended reals with typed indeterminate outcomes.

Objective functions built from entropies and mutual informations of
continuous features routinely produce +inf (fully associated features),
-inf (infinite redundancy penalties) and the four classic indeterminate
forms (0*inf, inf-inf, 0/0, inf/inf).  Floating-point NaN silently
poisons comparisons, so indeterminates are first-class tagged values
here: every operation is total, and an indeterminate operand absorbs.

A value is one float plus a tag.  +inf and -inf are the IEEE
infinities, so an operation on two determinate operands is one float
operation: IEEE 754 infinity arithmetic gives the extended-real result
and signals each indeterminate form as NaN, which becomes the tag of
the operation's form.  A finite result that overflows is +inf or -inf.
Only division by zero has a rule of its own (0/0, else the sign of the
numerator).  The rules are written once, as operations on (value, kind)
float pairs.  The MI tables are plain floats; the selection engine folds
them as pairs and boxes into :class:`XReal` only the objectives a trace
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import inf, isfinite, nan


class IndetKind(Enum):
    """The four undefined extended-real outcomes."""

    ZERO_TIMES_INF = "0*inf"
    INF_MINUS_INF = "inf-inf"
    ZERO_OVER_ZERO = "0/0"
    INF_OVER_INF = "inf/inf"


@dataclass(frozen=True)
class XReal:
    """Extended-real value: finite, +inf, -inf, or a tagged indeterminate.

    ``value`` is a finite float or an IEEE infinity, and NaN exactly when
    ``indet_kind`` names the indeterminate form.  Build one only with
    :func:`box`, as selection does for every objective it reports; the raw
    constructor does not validate.  :func:`box` returns the infinities and
    the four indeterminates as singletons (``POS_INF``, ``NEG_INF`` and one
    per kind), so ``==`` and ``is`` both hold for them.
    """

    value: float
    indet_kind: IndetKind | None = None

    @property
    def is_indet(self) -> bool:
        return self.indet_kind is not None

    def __str__(self) -> str:
        if self.indet_kind is not None:
            return f"indet({self.indet_kind.value})"
        if isfinite(self.value):
            return format(self.value, "g")
        return "+inf" if self.value > 0.0 else "-inf"

    def __repr__(self) -> str:
        return f"XReal<{self}>"


ZERO = XReal(0.0)
POS_INF = XReal(inf)
NEG_INF = XReal(-inf)
_INDETS = {kind: XReal(nan, kind) for kind in IndetKind}


# ---------------------------------------------------------------------------
# Float-level form: an extended real as a (value, kind) pair
#
# The rules live here once.  ``value`` is a float and ``kind`` is None, or
# ``value`` is NaN and ``kind`` names the indeterminate form.  The pair
# operations neither collapse -0.0 nor allocate an XReal, so a running fold
# stays a plain float.  The sign of a zero changes nothing but the sign of a
# zero result (x/0 takes the sign of x, not of the zero), so collapsing -0.0
# once, when a fold's result is boxed, gives the same XReal as collapsing it
# at every step.
# ---------------------------------------------------------------------------

XPair = tuple[float, IndetKind | None]


def box(p: XPair) -> XReal:
    """The XReal of a pair; -0.0 collapses, ±inf and indeterminates are singletons."""
    x, kind = p
    if kind is not None:
        return _INDETS[kind]
    if isfinite(x):
        return XReal(x) if x else ZERO
    return POS_INF if x > 0.0 else NEG_INF


def fadd(a: XPair, b: XPair) -> XPair:
    if a[1] is not None:
        return a
    if b[1] is not None:
        return b
    x = a[0] + b[0]
    return (x, None) if x == x else (x, IndetKind.INF_MINUS_INF)


def fsub(a: XPair, b: XPair) -> XPair:
    if a[1] is not None:
        return a
    if b[1] is not None:
        return b
    x = a[0] - b[0]
    return (x, None) if x == x else (x, IndetKind.INF_MINUS_INF)


def fmul(a: XPair, b: XPair) -> XPair:
    if a[1] is not None:
        return a
    if b[1] is not None:
        return b
    x = a[0] * b[0]
    return (x, None) if x == x else (x, IndetKind.ZERO_TIMES_INF)


def fdiv(a: XPair, b: XPair) -> XPair:
    if a[1] is not None:
        return a
    if b[1] is not None:
        return b
    if b[0] == 0.0:
        if a[0] == 0.0:
            return (nan, IndetKind.ZERO_OVER_ZERO)
        # one-sided limit convention: sign of the numerator
        return (inf, None) if a[0] > 0.0 else (-inf, None)
    x = a[0] / b[0]
    return (x, None) if x == x else (x, IndetKind.INF_OVER_INF)


def fmax(a: XPair, b: XPair) -> XPair:
    """The larger operand, ``a`` on a tie; the first indeterminate operand absorbs."""
    if a[1] is not None:
        return a
    if b[1] is not None:
        return b
    return b if b[0] > a[0] else a


def fmin(a: XPair, b: XPair) -> XPair:
    """The smaller operand, ``a`` on a tie; the first indeterminate operand absorbs."""
    if a[1] is not None:
        return a
    if b[1] is not None:
        return b
    return b if b[0] < a[0] else a
