"""Self-verification checks: algebra laws, identities, and reference tables.

Each check returns a :class:`CheckResult`; the CLI prints one line per
check and exits nonzero if any fails, and the acceptance suite asserts
the same checks.  The checks are deterministic (seeded where randomness
is involved).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import infotheory
from .infotheory import Joint
from .oracle import (
    FEATURES,
    FeatureId,
    Scenario,
    ScenarioSpec,
    mi_class_squared_feature,
    mi_y2_xy_gaussian,
    oracle_provider,
)
from .reference import (
    CLASS_MI_TABLE,
    ENTROPY_TABLE,
    ORDERING_TABLE,
    expected_positions,
)
from .selection import HaltReason, select_all
from .xreal import IndetKind, XPair, box, fadd, fdiv, fmul, fsub, indeterminate, unbox


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _sample_values() -> list[XPair]:
    finites = [(v, None) for v in (-2.5, -2.0, -1.0, 0.0, 0.5, 0.7, 3.0)]
    indets = [unbox(indeterminate(k)) for k in IndetKind]
    return finites + [(math.inf, None), (-math.inf, None)] + indets


def check_xreal_algebra() -> CheckResult:
    """The laws of the pair operations that selection runs, on a value grid."""
    values = _sample_values()
    ops: list[Callable] = [fadd, fsub, fmul, fdiv]
    zero: XPair = (0.0, None)
    cases = 0
    for op, a, b in itertools.product(ops, values, values):
        cases += 1
        r1 = op(a, b)
        # absorption
        if (a[1] is not None or b[1] is not None) and r1[1] is None:
            return CheckResult(
                "xreal-algebra", False, f"{op.__name__}({box(a)},{box(b)}) = {box(r1)}"
            )
        # commutativity of add/mul up to indeterminate-ness
        if op in (fadd, fmul):
            r2 = op(b, a)
            if (r1[1] is None) != (r2[1] is None) or (r1[1] is None and r1[0] != r2[0]):
                return CheckResult(
                    "xreal-algebra", False,
                    f"{op.__name__} not commutative on {box(a)},{box(b)}",
                )
    for v in values:
        # negation is subtraction from zero
        if v[1] is None and fsub(zero, fsub(zero, v))[0] != v[0]:
            return CheckResult("xreal-algebra", False, f"negation not involutive on {box(v)}")
    return CheckResult("xreal-algebra", True, f"{cases} operator cases")


def random_table(rng: np.random.Generator, nvars: int = 3, max_arity: int = 4) -> Joint:
    """A random joint of ``nvars`` variables, about a fifth of its cells empty."""
    arities = rng.integers(2, max_arity + 1, size=nvars)
    probs = rng.random(arities.prod()).reshape(arities)
    probs[rng.random(probs.shape) < 0.2] = 0.0  # exercise the 0*ln0 branch
    if probs.sum() == 0.0:
        probs.flat[0] = 1.0
    return Joint.from_dense(probs / probs.sum())


def mi_direct(t: Joint, x: int, y: int) -> float:
    """MI from its defining double sum, independent of the entropy route."""
    pxy = np.zeros((t.arities[x], t.arities[y]))
    np.add.at(pxy, (t.atoms[:, x], t.atoms[:, y]), t.mass)
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0.0
    return float(np.sum(pxy[mask] * np.log(pxy[mask] / (px * py)[mask])))


def check_discrete_identities(tables: int = 1000, tol: float = 1e-10) -> CheckResult:
    rng = np.random.default_rng(1847)
    worst = 0.0
    for _ in range(tables):
        t = random_table(rng)
        dev = abs(mi_direct(t, 0, 1) - infotheory.mi(t, (0,), (1,)))
        forms = (
            infotheory.tmi(t, (0,), (1,), (2,)),
            infotheory.mi(t, (0,), (2,)) - infotheory.cond_mi(t, (0,), (2,), (1,)),
            infotheory.mi(t, (1,), (2,)) - infotheory.cond_mi(t, (1,), (2,), (0,)),
        )
        dev = max(dev, max(forms) - min(forms))
        worst = max(worst, dev)
        if dev > tol:
            return CheckResult(
                "discrete-identities", False, f"deviation {dev:.2e} exceeds {tol:.0e}"
            )
    return CheckResult(
        "discrete-identities", True, f"{tables} tables, max deviation {worst:.1e}"
    )


def check_oracle_tables(tol: float = 1e-3) -> CheckResult:
    """The tabulated entropies and class MIs; a tabulated 0 must be exact."""
    worst = 0.0
    for scenario, entries in ENTROPY_TABLE.items():
        tables = oracle_provider(ScenarioSpec(scenario, 0.2))
        for f, want in entries.items():
            worst = max(worst, abs(tables.entropy(f) - want))
    for (scenario, k), entries in CLASS_MI_TABLE.items():
        tables = oracle_provider(ScenarioSpec(scenario, k))
        for f, want in entries.items():
            got = tables.class_mi(f)
            if want == 0.0 and got != 0.0:
                return CheckResult(
                    "oracle-tables", False, f"{scenario.value} k={k} {f.name}: expected exact 0"
                )
            worst = max(worst, abs(got - want))
    ok = worst <= tol
    return CheckResult("oracle-tables", ok, f"60 values, max deviation {worst:.1e}")


V = FeatureId
# The pairwise-MI table by pair class, listed apart from oracle.pairwise_mi;
# every pair listed in none of them has MI exactly 0.
_INF_PAIRS = {frozenset(p) for p in [
    (V.V1, V.V2), (V.V1, V.V8), (V.V2, V.V8), (V.V3, V.V7), (V.V5, V.V6),
]}
_HALF_PAIRS = {frozenset(p) for p in [
    (V.V1, V.V4), (V.V2, V.V4), (V.V4, V.V7), (V.V5, V.V10), (V.V9, V.V10),
]}
_SQUARE_PAIRS = {frozenset(p) for p in [(V.V3, V.V4), (V.V4, V.V8), (V.V6, V.V10)]}


def check_pairwise_tables(tol: float = 2e-3) -> CheckResult:
    """Every pairwise MI against its pair class, in both scenarios."""
    expected_finite = {
        Scenario.UNIFORM: (0.5, (1.0 - math.log(2.0)) / 2.0),
        Scenario.GAUSSIAN: (math.log(2.0) / 2.0, 0.1078),
    }
    entries = 0
    for scenario in Scenario:
        tables = oracle_provider(ScenarioSpec(scenario, 0.2))
        half, square = expected_finite[scenario]
        for i, j in itertools.combinations_with_replacement(FEATURES, 2):
            v = tables.pairwise_mi(i, j)
            pair = frozenset((i, j))
            if i == j or pair in _INF_PAIRS:
                ok = v == math.inf
            elif pair in _HALF_PAIRS:
                ok = abs(v - half) <= tol
            elif pair in _SQUARE_PAIRS:
                ok = abs(v - square) <= tol
            else:
                ok = v == 0.0
            if not ok or tables.pairwise_mi(j, i) != v:
                return CheckResult(
                    "pairwise-tables", False, f"{scenario.value} {i.name},{j.name} = {v}"
                )
            entries += 1
    dual = mi_y2_xy_gaussian()
    if abs(dual - 0.1078) > tol:
        return CheckResult(
            "pairwise-tables", False, f"independent evaluation {dual:.4f} vs 0.1078"
        )
    return CheckResult(
        "pairwise-tables", True, f"{entries} entries; independent square/diff route {dual:.4f}"
    )


def check_zero_mi_of_square(tol: float = 1e-3) -> CheckResult:
    worst = 0.0
    for k in (0.2, 0.8):
        for base, delta in (("uniform", 0.5), ("uniform", 1.0), ("normal", 0.5)):
            worst = max(worst, abs(mi_class_squared_feature(k, base, delta)))
    ok = worst <= tol
    return CheckResult("zero-mi-of-square", ok, f"6 cases, max |MI| {worst:.1e}")


def check_ordering_tables() -> CheckResult:
    rows = 0
    for (scenario, k), methods in ORDERING_TABLE.items():
        tables = oracle_provider(ScenarioSpec(scenario, k))
        for mspec in methods:
            want, excluded = expected_positions(scenario, k, mspec)
            trace = select_all(mspec, tables)
            got = trace.selected
            if len(got) != len(want):
                return CheckResult(
                    "ordering-tables",
                    False,
                    f"{scenario.value} k={k} {mspec.label()}: {len(got)} picks, "
                    f"expected {len(want)}",
                )
            for pos, (g, w) in enumerate(zip(got, want)):
                if pos in excluded:
                    continue
                if g != w:
                    return CheckResult(
                        "ordering-tables",
                        False,
                        f"{scenario.value} k={k} {mspec.label()} step {pos + 1}: "
                        f"{g.name} != {w.name}",
                    )
            want_halt = (
                HaltReason.ALL_SELECTED if len(want) == len(FEATURES)
                else HaltReason.NO_ADMISSIBLE_CANDIDATE
            )
            if trace.halt is not want_halt:
                return CheckResult(
                    "ordering-tables", False,
                    f"{scenario.value} k={k} {mspec.label()}: halt reason {trace.halt.value}",
                )
            rows += 1
    return CheckResult("ordering-tables", True, f"{rows} rows reproduced, halts included")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_xreal_algebra,
    check_discrete_identities,
    check_oracle_tables,
    check_pairwise_tables,
    check_zero_mi_of_square,
    check_ordering_tables,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
