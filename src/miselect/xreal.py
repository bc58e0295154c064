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
numerator).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import inf, isfinite, nan
from typing import Iterable


class IndetKind(Enum):
    """The four undefined extended-real outcomes."""

    ZERO_TIMES_INF = "0*inf"
    INF_MINUS_INF = "inf-inf"
    ZERO_OVER_ZERO = "0/0"
    INF_OVER_INF = "inf/inf"


class IndeterminateComparison(ValueError):
    """Raised when an indeterminate value reaches an order comparison."""


@dataclass(frozen=True)
class XReal:
    """Extended-real value: finite, +inf, -inf, or a tagged indeterminate.

    ``value`` is a finite float or an IEEE infinity, and NaN exactly when
    ``indet_kind`` names the indeterminate form.  Construct through
    :func:`finite`, :func:`indeterminate` or the module constants
    ``ZERO`` / ``POS_INF`` / ``NEG_INF``; the raw constructor does not
    validate.  Operations return the infinities and the four
    indeterminates as singletons, so ``==`` and ``is`` both hold for them.
    """

    value: float
    indet_kind: IndetKind | None = None

    @property
    def is_finite(self) -> bool:
        return isfinite(self.value)

    @property
    def is_pos_inf(self) -> bool:
        return self.value == inf

    @property
    def is_neg_inf(self) -> bool:
        return self.value == -inf

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


def finite(value: float) -> XReal:
    """Wrap a host float; NaN and the float infinities are rejected."""
    value = float(value)
    if not isfinite(value):
        raise ValueError(f"not a finite real: {value!r}")
    # collapse -0.0 so exact-zero tests and rendering agree
    return XReal(value) if value else ZERO


def indeterminate(kind: IndetKind) -> XReal:
    return _INDETS[kind]


def _wrap(x: float, form: IndetKind | None) -> XReal:
    """Box one float result; NaN means the operation met ``form``."""
    if isfinite(x):
        return XReal(x) if x else ZERO  # collapse -0.0, as finite() does
    if x != x:
        return _INDETS[form]
    return POS_INF if x > 0.0 else NEG_INF


def xneg(a: XReal) -> XReal:
    if a.indet_kind is not None:
        return a
    return _wrap(-a.value, None)  # negation never meets a form


def xadd(a: XReal, b: XReal) -> XReal:
    if a.indet_kind is not None:
        return a
    if b.indet_kind is not None:
        return b
    return _wrap(a.value + b.value, IndetKind.INF_MINUS_INF)


def xsub(a: XReal, b: XReal) -> XReal:
    if a.indet_kind is not None:
        return a
    if b.indet_kind is not None:
        return b
    return _wrap(a.value - b.value, IndetKind.INF_MINUS_INF)


def xmul(a: XReal, b: XReal) -> XReal:
    if a.indet_kind is not None:
        return a
    if b.indet_kind is not None:
        return b
    return _wrap(a.value * b.value, IndetKind.ZERO_TIMES_INF)


def xdiv(a: XReal, b: XReal) -> XReal:
    if a.indet_kind is not None:
        return a
    if b.indet_kind is not None:
        return b
    if b.value == 0.0:
        if a.value == 0.0:
            return _INDETS[IndetKind.ZERO_OVER_ZERO]
        # one-sided limit convention: sign of the numerator
        return POS_INF if a.value > 0.0 else NEG_INF
    return _wrap(a.value / b.value, IndetKind.INF_OVER_INF)


def xsum(values: Iterable[XReal]) -> XReal:
    """Left fold of :func:`xadd`; the empty sum is finite zero."""
    total = ZERO
    for v in values:
        total = xadd(total, v)
    return total


def compare(a: XReal, b: XReal) -> int:
    """Order two non-indeterminate values: -inf < finite < +inf.

    Returns -1, 0 or 1.  Indeterminate operands signal a programming
    error: callers must filter them out before ranking.
    """
    for v in (a, b):
        if v.indet_kind is not None:
            raise IndeterminateComparison(f"cannot order {v}")
    return (a.value > b.value) - (a.value < b.value)


def xmax(values: Iterable[XReal]) -> XReal:
    """Maximum under the extended order; an indeterminate operand absorbs."""
    return _extremum(values, 1)


def xmin(values: Iterable[XReal]) -> XReal:
    """Minimum under the extended order; an indeterminate operand absorbs."""
    return _extremum(values, -1)


def _extremum(values: Iterable[XReal], sign: int) -> XReal:
    best: XReal | None = None
    indet: XReal | None = None
    for v in values:
        if v.indet_kind is not None:
            indet = indet or v
            continue
        if best is None or sign * compare(v, best) > 0:
            best = v
    if indet is not None:
        return indet
    if best is None:
        raise ValueError("extremum of an empty sequence")
    return best
