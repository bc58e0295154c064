"""Sequential forward selection with the eight MI-based objective functions.

The tables are plain floats (finite, or +inf for a pairwise MI), but
every objective is evaluated in extended-real arithmetic, because the
criteria combine them into -inf and indeterminate forms.  A candidate
whose objective is indeterminate is inadmissible for that step only;
-inf objectives remain admissible (fully redundant features are picked
last, not skipped).  Selection halts when no admissible candidate is
left, which reproduces the truncated reference orderings.

Each criterion is relevance minus an aggregate of a per-pair term
t(i, s) over the selected set S, as in Brown et al. (JMLR 2012):

* MIFS and MIFS-U: rel_i - beta * sum_s t;  mRMR and NMIFS: rel_i - mean_s t;
* maxMIFS and mMIFS-U: rel_i - max_s t;  MICC: rel_i / mean_s t - rel_i;

with t = I_is (MIFS, mRMR, maxMIFS), (I_cs / h_s) * I_is (MIFS-U,
mMIFS-U) and NI_is = I_is / min(h_i, h_s) (NMIFS, MICC).  QMIFS is
rel_i - sum_k [phi_ik - 1/2 sum_{j in S, j != k} phi_ij phi_jk] * I_ck with
phi_lm = I_lm / h_m.

The search reads the tables once, as bare floats (``xreal.XValue``), and
keeps, for every remaining candidate, the running aggregate as a float or
the ``IndetKind`` that absorbed it, extended with the new pick's term once
per step: a step costs O(d) for d features (O(d * |S|) for QMIFS, which
keeps one inner sum per candidate and selected k and refolds the outer
sum).  The sums are left folds from 0.0 in selection order, so every
objective is the same IEEE result, indeterminate kind included, as
evaluating the formula above from scratch with the xreal operations.  A
step keeps its objectives as those values; they are boxed into XReal
values only when a reader asks for ``SelectionStep.objectives``, so a
caller that reads only the picks and the halt (``simulate``) never builds
an XReal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import inf
from typing import Mapping

from .oracle import FeatureId, MITables
from .xreal import IndetKind, XReal, XValue, box, fadd, fdiv, fmax, fmul, fsub

HALF = 0.5


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
_MAX_METHODS = {Method.MAX_MIFS, Method.MMIFS_U}


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
    def parse(cls, text: str, beta: float | None = None) -> "MethodSpec":
        """Parse "mifs:0.4" or a bare method name; ``beta`` may come apart."""
        name, _, beta_text = text.strip().partition(":")
        try:
            method = Method(name.lower())
        except ValueError:
            valid = ", ".join(m.value for m in Method)
            raise ValueError(f"unknown method {name!r}; valid: {valid}") from None
        if beta_text:
            if beta is not None:
                raise ValueError(f"beta given twice: in {text!r} and as {beta:g}")
            try:
                beta = float(beta_text)
            except ValueError:
                raise ValueError(f"beta must be a number, got {beta_text!r}") from None
        return cls(method, beta)

    def label(self) -> str:
        if self.beta is not None:
            return f"{self.method.value}(beta={self.beta:g})"
        return self.method.value


class HaltReason(Enum):
    ALL_SELECTED = "all selected"
    NO_ADMISSIBLE_CANDIDATE = "no admissible candidate"


@dataclass(frozen=True)
class SelectionStep:
    """One evaluation round; ``winner`` is None for the halting round.

    ``values`` holds each candidate's objective, in feature order, as the
    engine's float or ``IndetKind``; ``objectives`` boxes them anew on every
    read.
    """

    winner: FeatureId | None
    values: Mapping[FeatureId, XValue]

    @property
    def objectives(self) -> dict[FeatureId, XReal]:
        return {f: box(v) for f, v in self.values.items()}


@dataclass(frozen=True)
class SelectionTrace:
    selected: tuple[FeatureId, ...]
    steps: tuple[SelectionStep, ...] = field(repr=False)
    halt: HaltReason = HaltReason.ALL_SELECTED


class _RunningAggregate:
    """Every criterion but QMIFS: one sum or max of t(i, s) per candidate."""

    def __init__(
        self, m: MethodSpec, rel: list[float], h: list[float], mi: list[list[float]]
    ):
        method = m.method
        self.method = method
        self.beta = None if m.beta is None else float(m.beta)
        self.rel = rel
        if method in (Method.MIFS, Method.MRMR, Method.MAX_MIFS):
            self.term = lambda i, s: mi[i][s]
        elif method in (Method.MIFS_U, Method.MMIFS_U):
            ratio = [fdiv(c, e) for c, e in zip(rel, h)]  # where 0/0 and x/0 arise
            self.term = lambda i, s: fmul(ratio[s], mi[i][s])
        else:  # NMIFS, MICC: the normalised MI; entropies are plain floats
            self.term = lambda i, s: fdiv(mi[i][s], min(h[i], h[s]))
        if method in _MAX_METHODS:
            self.fold, start = fmax, -inf
        else:
            self.fold, start = fadd, 0.0
        self.aggregate: list[XValue] = [start] * len(rel)

    def step(self, picked: list[int], remaining: list[int]) -> dict[int, XValue]:
        s, agg, rel = picked[-1], self.aggregate, self.rel
        fold, term = self.fold, self.term
        for i in remaining:
            agg[i] = fold(agg[i], term(i, s))
        weight = self.beta if self.beta is not None else 1.0 / len(picked)
        if self.method is Method.MICC:
            return {i: fsub(fdiv(rel[i], fmul(weight, agg[i])), rel[i]) for i in remaining}
        if self.method in _MAX_METHODS:
            return {i: fsub(rel[i], agg[i]) for i in remaining}
        return {i: fsub(rel[i], fmul(weight, agg[i])) for i in remaining}


class _QMIFS:
    """QMIFS: one inner sum per (candidate, selected k), the outer sum refolded."""

    def __init__(self, rel: list[float], h: list[float], mi: list[list[float]]):
        d = len(rel)
        self.rel = rel
        self.phi = [[fdiv(mi[l][k], h[k]) for k in range(d)] for l in range(d)]
        # inner[i][k] = sum over j in S, j != k, in selection order, of phi_ij phi_jk
        self.inner: list[list[XValue]] = [[0.0] * d for _ in range(d)]

    def step(self, picked: list[int], remaining: list[int]) -> dict[int, XValue]:
        s, earlier = picked[-1], picked[:-1]
        phi, rel = self.phi, self.rel
        # read once per step: the new pick's row and column, the picks' relevances
        phi_s = phi[s]
        phi_to_s = [(j, phi[j][s]) for j in earlier]
        rel_picked = [(k, rel[k]) for k in picked]
        out = {}
        for i in remaining:
            inner, phi_i = self.inner[i], phi[i]
            phi_is = phi_i[s]
            for k in earlier:
                inner[k] = fadd(inner[k], fmul(phi_is, phi_s[k]))
            inner_s = inner[s]
            for j, phi_js in phi_to_s:
                inner_s = fadd(inner_s, fmul(phi_i[j], phi_js))
            inner[s] = inner_s
            total = rel[i]
            for k, rel_k in rel_picked:
                bracket = fsub(phi_i[k], fmul(HALF, inner[k]))
                total = fsub(total, fmul(bracket, rel_k))
            out[i] = total
        return out


def _best(values, positions) -> int | None:
    """Position of the largest determinate value; the earliest wins a tie."""
    best, best_x = None, 0.0
    for a in positions:
        x = values[a]
        if x.__class__ is not IndetKind and (best is None or x > best_x):
            best, best_x = a, x
    return best


def select_all(m: MethodSpec, p: MITables) -> SelectionTrace:
    """Run the forward search to exhaustion or until nothing is admissible."""
    order = p.feature_order
    rel = [p.class_mi(f) for f in order]
    h = [p.entropy(f) for f in order]
    mi = [[p.pairwise_mi(i, j) for j in order] for i in order]
    if m.method is Method.QMIFS:
        engine = _QMIFS(rel, h, mi)
    else:
        engine = _RunningAggregate(m, rel, h, mi)

    # the class MIs are finite, so the first step has a winner
    picked = [_best(rel, range(len(order)))]
    steps = [SelectionStep(order[picked[0]], dict(zip(order, rel)))]
    remaining = [a for a in range(len(order)) if a != picked[0]]
    halt = HaltReason.ALL_SELECTED
    while remaining:
        values = engine.step(picked, remaining)
        winner = _best(values, remaining)
        objectives = {order[a]: values[a] for a in remaining}
        if winner is None:
            # keep the all-inadmissible evaluation: it shows which
            # indeterminate form blocked each remaining candidate
            steps.append(SelectionStep(None, objectives))
            halt = HaltReason.NO_ADMISSIBLE_CANDIDATE
            break
        steps.append(SelectionStep(order[winner], objectives))
        picked.append(winner)
        remaining.remove(winner)
    return SelectionTrace(tuple(order[a] for a in picked), tuple(steps), halt)
