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

The search reads the tables once, as (value, None) float pairs
(``xreal.XPair``), and keeps, for every remaining candidate, the running
aggregate as a pair, extended with the new pick's term once per step: a
step costs O(d) for d features (O(d * |S|) for QMIFS, which keeps one
inner sum per candidate and selected k and refolds the outer sum).  The
sums are left folds from 0.0 in selection order, so every objective is
the same IEEE result, indeterminate kind included, as evaluating the
formula above from scratch with the pair operations.  Only each step's
objectives are boxed into XReal values, for the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import inf
from typing import Mapping

from .oracle import FeatureId, MITables
from .xreal import XPair, XReal, box, fadd, fdiv, fmax, fmin, fmul, fsub

HALF: XPair = (0.5, None)


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
    """One evaluation round; ``winner`` is None for the halting round."""

    winner: FeatureId | None
    objectives: Mapping[FeatureId, XReal]


@dataclass(frozen=True)
class SelectionTrace:
    method: MethodSpec
    selected: tuple[FeatureId, ...]
    steps: tuple[SelectionStep, ...] = field(repr=False)
    halt: HaltReason = HaltReason.ALL_SELECTED


class _RunningAggregate:
    """Every criterion but QMIFS: one sum or max of t(i, s) per candidate."""

    def __init__(
        self, m: MethodSpec, rel: list[XPair], h: list[XPair], mi: list[list[XPair]]
    ):
        method = m.method
        self.method = method
        self.beta: XPair | None = None if m.beta is None else (float(m.beta), None)
        self.rel = rel
        if method in (Method.MIFS, Method.MRMR, Method.MAX_MIFS):
            self.term = lambda i, s: mi[i][s]
        elif method in (Method.MIFS_U, Method.MMIFS_U):
            ratio = [fdiv(c, e) for c, e in zip(rel, h)]  # where 0/0 and x/0 arise
            self.term = lambda i, s: fmul(ratio[s], mi[i][s])
        else:  # NMIFS, MICC: the normalised MI
            self.term = lambda i, s: fdiv(mi[i][s], fmin(h[i], h[s]))
        if method in _MAX_METHODS:
            self.fold, start = fmax, (-inf, None)
        else:
            self.fold, start = fadd, (0.0, None)
        self.aggregate: list[XPair] = [start] * len(rel)

    def step(self, picked: list[int], remaining: list[int]) -> dict[int, XPair]:
        s = picked[-1]
        weight = self.beta if self.beta is not None else (1.0 / len(picked), None)
        out = {}
        for i in remaining:
            agg = self.aggregate[i] = self.fold(self.aggregate[i], self.term(i, s))
            rel = self.rel[i]
            if self.method is Method.MICC:
                out[i] = fsub(fdiv(rel, fmul(weight, agg)), rel)
            elif self.method in _MAX_METHODS:
                out[i] = fsub(rel, agg)
            else:
                out[i] = fsub(rel, fmul(weight, agg))
        return out


class _QMIFS:
    """QMIFS: one inner pair sum per (candidate, selected k), the outer sum refolded."""

    def __init__(self, rel: list[XPair], h: list[XPair], mi: list[list[XPair]]):
        d = len(rel)
        self.rel = rel
        self.phi = [[fdiv(mi[l][k], h[k]) for k in range(d)] for l in range(d)]
        # inner[i][k] = sum over j in S, j != k, in selection order, of phi_ij phi_jk
        self.inner: list[list[XPair]] = [[(0.0, None)] * d for _ in range(d)]

    def step(self, picked: list[int], remaining: list[int]) -> dict[int, XPair]:
        s, earlier = picked[-1], picked[:-1]
        phi, rel = self.phi, self.rel
        out = {}
        for i in remaining:
            inner, phi_i = self.inner[i], phi[i]
            for k in earlier:
                inner[k] = fadd(inner[k], fmul(phi_i[s], phi[s][k]))
            for j in earlier:
                inner[s] = fadd(inner[s], fmul(phi_i[j], phi[j][s]))
            total = rel[i]
            for k in picked:
                bracket = fsub(phi_i[k], fmul(HALF, inner[k]))
                total = fsub(total, fmul(bracket, rel[k]))
            out[i] = total
        return out


def _best(values, positions) -> int | None:
    """Position of the largest determinate value; the earliest wins a tie."""
    best, best_x = None, 0.0
    for a in positions:
        x, kind = values[a]
        if kind is None and (best is None or x > best_x):
            best, best_x = a, x
    return best


def select_all(m: MethodSpec, p: MITables) -> SelectionTrace:
    """Run the forward search to exhaustion or until nothing is admissible."""
    order = p.feature_order
    rel: list[XPair] = [(p.class_mi(f), None) for f in order]
    h: list[XPair] = [(p.entropy(f), None) for f in order]
    mi = [[(p.pairwise_mi(i, j), None) for j in order] for i in order]
    if m.method is Method.QMIFS:
        engine = _QMIFS(rel, h, mi)
    else:
        engine = _RunningAggregate(m, rel, h, mi)

    # the class MIs are finite, so the first step has a winner
    picked = [_best(rel, range(len(order)))]
    steps = [SelectionStep(order[picked[0]], {f: box(v) for f, v in zip(order, rel)})]
    remaining = [a for a in range(len(order)) if a != picked[0]]
    halt = HaltReason.ALL_SELECTED
    while remaining:
        values = engine.step(picked, remaining)
        winner = _best(values, remaining)
        objectives = {order[a]: box(values[a]) for a in remaining}
        if winner is None:
            # keep the all-inadmissible evaluation: it shows which
            # indeterminate form blocked each remaining candidate
            steps.append(SelectionStep(None, objectives))
            halt = HaltReason.NO_ADMISSIBLE_CANDIDATE
            break
        steps.append(SelectionStep(order[winner], objectives))
        picked.append(winner)
        remaining.remove(winner)
    return SelectionTrace(m, tuple(order[a] for a in picked), tuple(steps), halt)
