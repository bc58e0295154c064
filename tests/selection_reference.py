"""The scalar selection code that ``miselect.selection`` replaced: the reference.

``objective`` evaluates one candidate from scratch, folding its redundancy
over the whole selected set with the extended-real operations and boxing
the result, and ``reference_select_all`` is the forward search built on it;
its steps keep the values that ``objective`` boxes, as ``SelectionStep``
stores them.  The incremental engine must reproduce both
exactly: the same objectives by ``==``, indeterminate kind and rendering,
the same winners and halts.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

from miselect.oracle import FeatureId, MITables
from miselect.selection import (
    HaltReason,
    Method,
    MethodSpec,
    SelectionStep,
    SelectionTrace,
)
from miselect.xreal import XReal, XValue, box, fadd, fdiv, fmax, fmul, fsub

HALF = 0.5


def objective(
    m: MethodSpec, candidate: FeatureId, selected: Sequence[FeatureId], p: MITables
) -> XReal:
    """Objective value of one candidate given the already selected set."""
    return box(_objective(m, candidate, selected, p))


def _objective(
    m: MethodSpec, candidate: FeatureId, selected: Sequence[FeatureId], p: MITables
) -> XValue:
    rel = p.class_mi(candidate)
    if not selected:
        return rel
    method = m.method

    if method is Method.MIFS:
        redundancy = fmul(float(m.beta), _mi_sum(candidate, selected, p))
    elif method is Method.MRMR:
        redundancy = fmul(1.0 / len(selected), _mi_sum(candidate, selected, p))
    elif method is Method.MAX_MIFS:
        redundancy = _max(p.pairwise_mi(candidate, s) for s in selected)
    elif method is Method.MIFS_U:
        redundancy = fmul(
            float(m.beta),
            _sum(_class_ratio_term(candidate, s, p) for s in selected),
        )
    elif method is Method.MMIFS_U:
        redundancy = _max(_class_ratio_term(candidate, s, p) for s in selected)
    elif method is Method.NMIFS:
        redundancy = fmul(
            1.0 / len(selected),
            _sum(_ni(candidate, s, p) for s in selected),
        )
    elif method is Method.MICC:
        mean_ni = fmul(
            1.0 / len(selected),
            _sum(_ni(candidate, s, p) for s in selected),
        )
        return fsub(fdiv(rel, mean_ni), rel)
    elif method is Method.QMIFS:
        return _qmifs(rel, candidate, selected, p)
    else:  # pragma: no cover
        raise AssertionError(method)
    return fsub(rel, redundancy)


def _sum(values: Iterable[XValue]) -> XValue:
    """Left fold of fadd from 0.0; the empty sum is 0."""
    return reduce(fadd, values, 0.0)


def _max(values: Iterable[XValue]) -> XValue:
    """Left fold of fmax over a nonempty sequence."""
    return reduce(fmax, values)


def _mi_sum(i: FeatureId, selected: Sequence[FeatureId], p: MITables) -> XValue:
    return _sum(p.pairwise_mi(i, s) for s in selected)


def _class_ratio_term(i: FeatureId, s: FeatureId, p: MITables) -> XValue:
    # MI(C,Vs)/h(Vs) * MI(Vi,Vs); the quotient is where 0/0 and inf/0 arise
    ratio = fdiv(p.class_mi(s), p.entropy(s))
    return fmul(ratio, p.pairwise_mi(i, s))


def ni(mi_xy: float, h_x: float, h_y: float) -> XValue:
    """The normalised MI of NMIFS and MICC: MI over the smaller entropy.

    Bounded in [0,1] only for discrete variables; with differential
    entropies the quotient can be negative, infinite, or indeterminate,
    which is exactly what the selection objectives must see.
    """
    return fdiv(mi_xy, min(h_x, h_y))


def _ni(i: FeatureId, s: FeatureId, p: MITables) -> XValue:
    return ni(p.pairwise_mi(i, s), p.entropy(i), p.entropy(s))


def _phi(l: FeatureId, m_: FeatureId, p: MITables) -> XValue:
    return fdiv(p.pairwise_mi(l, m_), p.entropy(m_))


def _qmifs(
    rel: XValue, i: FeatureId, selected: Sequence[FeatureId], p: MITables
) -> XValue:
    # rel - sum_k [phi_ik - 1/2 sum_{j != k} phi_ij phi_jk] * MI(C,Vk)
    total = rel
    for k in selected:
        pair_term = _sum(
            fmul(_phi(i, j, p), _phi(j, k, p)) for j in selected if j != k
        )
        bracket = fsub(_phi(i, k, p), fmul(HALF, pair_term))
        total = fsub(total, fmul(bracket, p.class_mi(k)))
    return total


def reference_select_all(m: MethodSpec, p: MITables) -> SelectionTrace:
    """The forward search, re-evaluating every objective at every step."""
    order = list(p.feature_order)
    selected: list[FeatureId] = []
    steps: list[SelectionStep] = []
    halt = HaltReason.ALL_SELECTED
    while len(selected) < len(order):
        values = {
            f: _objective(m, f, selected, p) for f in order if f not in selected
        }
        winner: FeatureId | None = None
        winner_val: XReal | None = None
        for f, value in values.items():
            v = box(value)
            if v.is_indet:
                continue
            if winner_val is None or v.value > winner_val.value:
                winner, winner_val = f, v
        if winner is None:
            steps.append(SelectionStep(None, values))
            halt = HaltReason.NO_ADMISSIBLE_CANDIDATE
            break
        steps.append(SelectionStep(winner, values))
        selected.append(winner)
    return SelectionTrace(tuple(selected), tuple(steps), halt)
