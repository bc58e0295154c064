"""Sequential forward selection with the eight MI-based objective functions.

Every objective is evaluated in extended-real arithmetic.  A candidate
whose objective is indeterminate is inadmissible for that step only;
-inf objectives remain admissible (fully redundant features are picked
last, not skipped).  Selection halts when no admissible candidate is
left, which reproduces the truncated reference orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .infotheory import normalized_mi
from .oracle import FeatureId, MITables
from .xreal import (
    XReal,
    compare,
    finite,
    xdiv,
    xmax,
    xmul,
    xsub,
    xsum,
)

HALF = finite(0.5)


class Method(Enum):
    MIFS = "mifs"
    MIFS_U = "mifsu"
    MRMR = "mrmr"
    MMIFS_U = "mmifsu"
    MICC = "micc"
    QMIFS = "qmifs"
    NMIFS = "nmifs"
    MAX_MIFS = "maxmifs"


_BETA_METHODS = {Method.MIFS, Method.MIFS_U}


@dataclass(frozen=True)
class MethodSpec:
    """One selection criterion, with its weight where the method takes one."""

    method: Method
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.method in _BETA_METHODS:
            if self.beta is None:
                raise ValueError(f"{self.method.value} requires beta")
            if not 0.0 <= self.beta <= 1.0:
                raise ValueError(f"beta must lie in [0,1], got {self.beta}")
        elif self.beta is not None:
            raise ValueError(f"{self.method.value} does not take beta")

    @classmethod
    def parse(cls, text: str) -> "MethodSpec":
        """Parse "mifs:0.4" or a bare method name."""
        name, _, beta = text.strip().partition(":")
        try:
            method = Method(name.lower())
        except ValueError:
            valid = ", ".join(m.value for m in Method)
            raise ValueError(f"unknown method {name!r}; valid: {valid}") from None
        return cls(method, float(beta) if beta else None)

    def label(self) -> str:
        if self.beta is not None:
            return f"{self.method.value}(beta={self.beta:g})"
        return self.method.value


class HaltReason(Enum):
    ALL_SELECTED = "all selected"
    NO_ADMISSIBLE_CANDIDATE = "no admissible candidate"


@dataclass(frozen=True)
class SelectionStep:
    """One evaluation round; ``winner`` is None for the halting round."""

    winner: FeatureId | None
    objectives: Mapping[FeatureId, XReal]

    def admissible(self, f: FeatureId) -> bool:
        return f in self.objectives and not self.objectives[f].is_indet


@dataclass(frozen=True)
class SelectionTrace:
    method: MethodSpec
    selected: tuple[FeatureId, ...]
    steps: tuple[SelectionStep, ...] = field(repr=False)
    halt: HaltReason = HaltReason.ALL_SELECTED


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


def first_feature(p: MITables) -> FeatureId:
    """Most class-informative feature; ties go to the earliest feature."""
    best: FeatureId | None = None
    best_val: XReal | None = None
    for f in p.feature_order:
        v = p.class_mi(f)
        if v.is_indet:
            continue
        if best_val is None or compare(v, best_val) > 0:
            best, best_val = f, v
    if best is None:
        raise ValueError("every class MI is indeterminate")
    return best


def select_all(m: MethodSpec, p: MITables) -> SelectionTrace:
    """Run the forward search to exhaustion or until nothing is admissible."""
    order = list(p.feature_order)
    selected: list[FeatureId] = []
    steps: list[SelectionStep] = []

    first = first_feature(p)
    steps.append(SelectionStep(first, {f: p.class_mi(f) for f in order}))
    selected.append(first)

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
            # keep the all-inadmissible evaluation: it shows which
            # indeterminate form blocked each remaining candidate
            steps.append(SelectionStep(None, objectives))
            halt = HaltReason.NO_ADMISSIBLE_CANDIDATE
            break
        steps.append(SelectionStep(winner, objectives))
        selected.append(winner)
    return SelectionTrace(m, tuple(selected), tuple(steps), halt)
