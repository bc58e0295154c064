"""The scalar selection code that ``miselect.selection`` replaced: the reference.

``objective`` evaluates one candidate from scratch, folding its redundancy
over the whole selected set in boxed ``XReal`` arithmetic, and
``reference_select_all`` is the forward search built on it.  The
incremental engine must reproduce both exactly: the same objectives by
``==``, indeterminate kind and rendering, the same winners and halts.
"""

from __future__ import annotations

from typing import Sequence

from miselect.infotheory import normalized_mi
from miselect.oracle import FeatureId, MITables
from miselect.selection import (
    HaltReason,
    Method,
    MethodSpec,
    SelectionStep,
    SelectionTrace,
)
from miselect.xreal import XReal, compare, finite, xdiv, xmax, xmul, xsub, xsum

HALF = finite(0.5)


def objective(
    m: MethodSpec, candidate: FeatureId, selected: Sequence[FeatureId], p: MITables
) -> XReal:
    """Objective value of one candidate given the already selected set."""
    rel = p.class_mi(candidate)
    if not selected:
        return rel
    method = m.method

    if method is Method.MIFS:
        redundancy = xmul(finite(m.beta), _mi_sum(candidate, selected, p))
    elif method is Method.MRMR:
        redundancy = xmul(
            finite(1.0 / len(selected)), _mi_sum(candidate, selected, p)
        )
    elif method is Method.MAX_MIFS:
        redundancy = xmax(p.pairwise_mi(candidate, s) for s in selected)
    elif method is Method.MIFS_U:
        redundancy = xmul(
            finite(m.beta),
            xsum(_class_ratio_term(candidate, s, p) for s in selected),
        )
    elif method is Method.MMIFS_U:
        redundancy = xmax(_class_ratio_term(candidate, s, p) for s in selected)
    elif method is Method.NMIFS:
        redundancy = xmul(
            finite(1.0 / len(selected)),
            xsum(_ni(candidate, s, p) for s in selected),
        )
    elif method is Method.MICC:
        mean_ni = xmul(
            finite(1.0 / len(selected)),
            xsum(_ni(candidate, s, p) for s in selected),
        )
        return xsub(xdiv(rel, mean_ni), rel)
    elif method is Method.QMIFS:
        return _qmifs(rel, candidate, selected, p)
    else:  # pragma: no cover
        raise AssertionError(method)
    return xsub(rel, redundancy)


def _mi_sum(i: FeatureId, selected: Sequence[FeatureId], p: MITables) -> XReal:
    return xsum(p.pairwise_mi(i, s) for s in selected)


def _class_ratio_term(i: FeatureId, s: FeatureId, p: MITables) -> XReal:
    # MI(C,Vs)/h(Vs) * MI(Vi,Vs); the quotient is where 0/0 and inf/0 arise
    ratio = xdiv(p.class_mi(s), p.entropy(s))
    return xmul(ratio, p.pairwise_mi(i, s))


def _ni(i: FeatureId, s: FeatureId, p: MITables) -> XReal:
    return normalized_mi(p.pairwise_mi(i, s), p.entropy(i), p.entropy(s))


def _phi(l: FeatureId, m_: FeatureId, p: MITables) -> XReal:
    return xdiv(p.pairwise_mi(l, m_), p.entropy(m_))


def _qmifs(
    rel: XReal, i: FeatureId, selected: Sequence[FeatureId], p: MITables
) -> XReal:
    # rel - sum_k [phi_ik - 1/2 sum_{j != k} phi_ij phi_jk] * MI(C,Vk)
    total = rel
    for k in selected:
        pair_term = xsum(
            xmul(_phi(i, j, p), _phi(j, k, p)) for j in selected if j != k
        )
        bracket = xsub(_phi(i, k, p), xmul(HALF, pair_term))
        total = xsub(total, xmul(bracket, p.class_mi(k)))
    return total


def reference_select_all(m: MethodSpec, p: MITables) -> SelectionTrace:
    """The forward search, re-evaluating every objective at every step."""
    order = list(p.feature_order)
    selected: list[FeatureId] = []
    steps: list[SelectionStep] = []
    halt = HaltReason.ALL_SELECTED
    while len(selected) < len(order):
        objectives = {
            f: objective(m, f, selected, p) for f in order if f not in selected
        }
        winner: FeatureId | None = None
        winner_val: XReal | None = None
        for f in order:
            v = objectives.get(f)
            if v is None or v.is_indet:
                continue
            if winner_val is None or compare(v, winner_val) > 0:
                winner, winner_val = f, v
        if winner is None:
            if not selected:
                raise ValueError("every class MI is indeterminate")
            steps.append(SelectionStep(None, objectives))
            halt = HaltReason.NO_ADMISSIBLE_CANDIDATE
            break
        steps.append(SelectionStep(winner, objectives))
        selected.append(winner)
    return SelectionTrace(m, tuple(selected), tuple(steps), halt)
