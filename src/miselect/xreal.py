"""Closed arithmetic over the extended reals with typed indeterminate outcomes.

Objective functions built from entropies and mutual informations of
continuous features routinely produce +inf (fully associated features),
-inf (infinite redundancy penalties) and the four classic indeterminate
forms (0*inf, inf-inf, 0/0, inf/inf).  Floating-point NaN silently
poisons comparisons, so indeterminates are first-class tagged values
here: every operation is total, and an indeterminate operand absorbs.

A value is a bare float, or the :class:`IndetKind` member that names its
indeterminate form.  +inf and -inf are the IEEE infinities, so an
operation on two determinate operands is one float operation: IEEE 754
infinity arithmetic gives the extended-real result and signals each
indeterminate form as NaN, which becomes the kind of the operation's
form.  A finite result that overflows is +inf or -inf.  Only division by
zero has a rule of its own (0/0, else the sign of the numerator).  The
rules are written once, as operations on those values (``XValue``).  The
MI tables are plain floats; the selection engine folds them as they are
and keeps each step's objectives as values, boxed into :class:`XReal`
only when a reader asks for them.
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
    :func:`box`, as a selection step does for each objective it is asked
    for; the raw constructor does not validate.  :func:`box` returns the
    infinities and the four indeterminates as singletons (``POS_INF``,
    ``NEG_INF`` and one per kind), so ``==`` and ``is`` both hold for them.
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
# Float-level form: an extended real as a bare float or an IndetKind
#
# The rules live here once.  A value is a float (finite or an IEEE infinity),
# or the IndetKind member that names its indeterminate form.  Indeterminacy
# is tested as ``v.__class__ is IndetKind``: a numpy float64 is a float
# subclass and is determinate.  The operations neither collapse -0.0 nor
# allocate an XReal, so a running fold stays a plain float.  The sign of a
# zero changes nothing but the sign of a zero result (x/0 takes the sign of
# x, not of the zero), so collapsing -0.0 once, when a fold's result is
# boxed, gives the same XReal as collapsing it at every step.
# ---------------------------------------------------------------------------

XValue = float | IndetKind


def box(v: XValue) -> XReal:
    """The XReal of a value; -0.0 collapses, ±inf and indeterminates are singletons."""
    if v.__class__ is IndetKind:
        return _INDETS[v]
    if isfinite(v):
        return XReal(v) if v else ZERO
    return POS_INF if v > 0.0 else NEG_INF


def fadd(a: XValue, b: XValue) -> XValue:
    if a.__class__ is IndetKind:
        return a
    if b.__class__ is IndetKind:
        return b
    x = a + b
    return x if x == x else IndetKind.INF_MINUS_INF


def fsub(a: XValue, b: XValue) -> XValue:
    if a.__class__ is IndetKind:
        return a
    if b.__class__ is IndetKind:
        return b
    x = a - b
    return x if x == x else IndetKind.INF_MINUS_INF


def fmul(a: XValue, b: XValue) -> XValue:
    if a.__class__ is IndetKind:
        return a
    if b.__class__ is IndetKind:
        return b
    x = a * b
    return x if x == x else IndetKind.ZERO_TIMES_INF


def fdiv(a: XValue, b: XValue) -> XValue:
    if a.__class__ is IndetKind:
        return a
    if b.__class__ is IndetKind:
        return b
    if b == 0.0:
        if a == 0.0:
            return IndetKind.ZERO_OVER_ZERO
        # one-sided limit convention: sign of the numerator
        return inf if a > 0.0 else -inf
    x = a / b
    return x if x == x else IndetKind.INF_OVER_INF


def fmax(a: XValue, b: XValue) -> XValue:
    """The larger operand, ``a`` on a tie; the first indeterminate operand absorbs."""
    if a.__class__ is IndetKind:
        return a
    if b.__class__ is IndetKind:
        return b
    return b if b > a else a


def fmin(a: XValue, b: XValue) -> XValue:
    """The smaller operand, ``a`` on a tie; the first indeterminate operand absorbs."""
    if a.__class__ is IndetKind:
        return a
    if b.__class__ is IndetKind:
        return b
    return b if b < a else a
