"""The scalar selection code that ``miselect.selection`` replaced: the reference.

``objective`` evaluates one candidate from scratch, folding its redundancy
over the whole selected set with the extended-real pair operations and
boxing the result, and ``reference_select_all`` is the forward search built
on it; its steps keep the pairs that ``objective`` boxes, as
``SelectionStep`` stores them.  The incremental engine must reproduce both
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
from miselect.xreal import XPair, XReal, box, fadd, fdiv, fmax, fmin, fmul, fsub

HALF: XPair = (0.5, None)


def objective(
    m: MethodSpec, candidate: FeatureId, selected: Sequence[FeatureId], p: MITables
) -> XReal:
    """Objective value of one candidate given the already selected set."""
    return box(_objective(m, candidate, selected, p))


def _objective(
    m: MethodSpec, candidate: FeatureId, selected: Sequence[FeatureId], p: MITables
) -> XPair:
    rel = (p.class_mi(candidate), None)
    if not selected:
        return rel
    method = m.method

    if method is Method.MIFS:
        redundancy = fmul((float(m.beta), None), _mi_sum(candidate, selected, p))
    elif method is Method.MRMR:
        redundancy = fmul((1.0 / len(selected), None), _mi_sum(candidate, selected, p))
    elif method is Method.MAX_MIFS:
        redundancy = _max((p.pairwise_mi(candidate, s), None) for s in selected)
    elif method is Method.MIFS_U:
        redundancy = fmul(
            (float(m.beta), None),
            _sum(_class_ratio_term(candidate, s, p) for s in selected),
        )
    elif method is Method.MMIFS_U:
        redundancy = _max(_class_ratio_term(candidate, s, p) for s in selected)
    elif method is Method.NMIFS:
        redundancy = fmul(
            (1.0 / len(selected), None),
            _sum(_ni(candidate, s, p) for s in selected),
        )
    elif method is Method.MICC:
        mean_ni = fmul(
            (1.0 / len(selected), None),
            _sum(_ni(candidate, s, p) for s in selected),
        )
        return fsub(fdiv(rel, mean_ni), rel)
    elif method is Method.QMIFS:
        return _qmifs(rel, candidate, selected, p)
    else:  # pragma: no cover
        raise AssertionError(method)
    return fsub(rel, redundancy)


def _sum(values: Iterable[XPair]) -> XPair:
    """Left fold of fadd from 0.0; the empty sum is 0."""
    return reduce(fadd, values, (0.0, None))


def _max(values: Iterable[XPair]) -> XPair:
    """Left fold of fmax over a nonempty sequence."""
    return reduce(fmax, values)


def _mi_sum(i: FeatureId, selected: Sequence[FeatureId], p: MITables) -> XPair:
    return _sum((p.pairwise_mi(i, s), None) for s in selected)


def _class_ratio_term(i: FeatureId, s: FeatureId, p: MITables) -> XPair:
    # MI(C,Vs)/h(Vs) * MI(Vi,Vs); the quotient is where 0/0 and inf/0 arise
    ratio = fdiv((p.class_mi(s), None), (p.entropy(s), None))
    return fmul(ratio, (p.pairwise_mi(i, s), None))


def ni(mi_xy: float, h_x: float, h_y: float) -> XPair:
    """The normalised MI of NMIFS and MICC: MI over the smaller entropy.

    Bounded in [0,1] only for discrete variables; with differential
    entropies the quotient can be negative, infinite, or indeterminate,
    which is exactly what the selection objectives must see.
    """
    return fdiv((mi_xy, None), fmin((h_x, None), (h_y, None)))


def _ni(i: FeatureId, s: FeatureId, p: MITables) -> XPair:
    return ni(p.pairwise_mi(i, s), p.entropy(i), p.entropy(s))


def _phi(l: FeatureId, m_: FeatureId, p: MITables) -> XPair:
    return fdiv((p.pairwise_mi(l, m_), None), (p.entropy(m_), None))


def _qmifs(
    rel: XPair, i: FeatureId, selected: Sequence[FeatureId], p: MITables
) -> XPair:
    # rel - sum_k [phi_ik - 1/2 sum_{j != k} phi_ij phi_jk] * MI(C,Vk)
    total = rel
    for k in selected:
        pair_term = _sum(
            fmul(_phi(i, j, p), _phi(j, k, p)) for j in selected if j != k
        )
        bracket = fsub(_phi(i, k, p), fmul(HALF, pair_term))
        total = fsub(total, fmul(bracket, (p.class_mi(k), None)))
    return total


def reference_select_all(m: MethodSpec, p: MITables) -> SelectionTrace:
    """The forward search, re-evaluating every objective at every step."""
    order = list(p.feature_order)
    selected: list[FeatureId] = []
    steps: list[SelectionStep] = []
    halt = HaltReason.ALL_SELECTED
    while len(selected) < len(order):
        pairs = {
            f: _objective(m, f, selected, p) for f in order if f not in selected
        }
        winner: FeatureId | None = None
        winner_val: XReal | None = None
        for f, pair in pairs.items():
            v = box(pair)
            if v.is_indet:
                continue
            if winner_val is None or v.value > winner_val.value:
                winner, winner_val = f, v
        if winner is None:
            steps.append(SelectionStep(None, pairs))
            halt = HaltReason.NO_ADMISSIBLE_CANDIDATE
            break
        steps.append(SelectionStep(winner, pairs))
        selected.append(winner)
    return SelectionTrace(m, tuple(selected), tuple(steps), halt)
