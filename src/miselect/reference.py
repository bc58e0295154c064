"""Reference values the suite reproduces, and the self-checks against them.

Entropies and class MIs of the ten features (both scenarios, both
evaluated class slopes), the pairwise-MI classes, and the true selection
orderings of all eight methods.  Rows shorter than ten features end in a
forced halt.  One cell is known to be irreproducible from the stated
objective semantics and is listed in ``EXCLUDED_CELLS``.

Each check in ``ALL_CHECKS`` returns the detail of its PASS line or raises
:class:`CheckFailed` with the detail of its FAIL line; ``miselect verify``
runs them in turn and prints each line as its check returns, and the
acceptance suite asserts the same checks.  The checks are deterministic
(seeded where randomness is involved).
"""

from __future__ import annotations

import itertools
import math
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
from .selection import HaltReason, Method, MethodSpec, select_all
from .xreal import IndetKind, XValue, box, fadd, fdiv, fmul, fsub

V = FeatureId

ENTROPY_TABLE: dict[Scenario, dict[FeatureId, float]] = {
    Scenario.UNIFORM: {
        V.V1: 0.0, V.V2: 1.0986, V.V3: -1.6932, V.V4: 0.5, V.V5: 0.0,
        V.V6: -1.6932, V.V7: 0.0, V.V8: -1.6932, V.V9: 0.0, V.V10: 0.5,
    },
    Scenario.GAUSSIAN: {
        V.V1: 1.4189, V.V2: 2.5176, V.V3: 0.7838, V.V4: 1.7655, V.V5: 1.4189,
        V.V6: 0.7838, V.V7: 1.4189, V.V8: 0.7838, V.V9: 1.4189, V.V10: 1.7655,
    },
}

CLASS_MI_TABLE: dict[tuple[Scenario, float], dict[FeatureId, float]] = {
    (Scenario.UNIFORM, 0.2): {
        V.V1: 0.5932, V.V2: 0.5932, V.V3: 0.0, V.V4: 0.1785, V.V5: 0.0,
        V.V6: 0.0, V.V7: 0.0067, V.V8: 0.0, V.V9: 0.0, V.V10: 0.0,
    },
    (Scenario.UNIFORM, 0.8): {
        V.V1: 0.2932, V.V2: 0.2932, V.V3: 0.0, V.V4: 0.0201, V.V5: 0.0,
        V.V6: 0.0, V.V7: 0.1153, V.V8: 0.0, V.V9: 0.0, V.V10: 0.0,
    },
    (Scenario.GAUSSIAN, 0.2): {
        V.V1: 0.5520, V.V2: 0.5520, V.V3: 0.0, V.V4: 0.0947, V.V5: 0.0,
        V.V6: 0.0, V.V7: 0.0124, V.V8: 0.0, V.V9: 0.0, V.V10: 0.0,
    },
    (Scenario.GAUSSIAN, 0.8): {
        V.V1: 0.2495, V.V2: 0.2495, V.V3: 0.0, V.V4: 0.0032, V.V5: 0.0,
        V.V6: 0.0, V.V7: 0.1434, V.V8: 0.0, V.V9: 0.0, V.V10: 0.0,
    },
}

# The pairwise-MI table by pair class, listed apart from oracle.pairwise_mis:
# a feature with itself or with a function of it ("inf"), a driver with a
# difference or sum holding it ("half"), a squared driver with a difference
# or sum holding that driver ("square").  Every other pair has MI exactly 0.
PAIR_CLASSES: dict[frozenset[FeatureId], str] = {
    frozenset(pair): name
    for name, pairs in (
        ("inf", [(f, f) for f in FEATURES] + [
            (V.V1, V.V2), (V.V1, V.V8), (V.V2, V.V8), (V.V3, V.V7), (V.V5, V.V6)]),
        ("half", [(V.V1, V.V4), (V.V2, V.V4), (V.V4, V.V7), (V.V5, V.V10), (V.V9, V.V10)]),
        ("square", [(V.V3, V.V4), (V.V4, V.V8), (V.V6, V.V10)]),
    )
    for pair in pairs
}
PAIRWISE_TABLE: dict[Scenario, dict[str, float]] = {
    Scenario.UNIFORM: {"inf": math.inf, "half": 0.5, "square": (1.0 - math.log(2.0)) / 2.0},
    Scenario.GAUSSIAN: {"inf": math.inf, "half": math.log(2.0) / 2.0, "square": 0.1078},
}

# The ordering shared by MIFS (beta != 0), mRMR and maxMIFS everywhere.
FULL_ORDER = (V.V1, V.V7, V.V5, V.V9, V.V4, V.V10, V.V2, V.V3, V.V6, V.V8)

_BETAS = (0.0, 0.4, 0.7, 1.0)


ORDERING_TABLE: dict[tuple[Scenario, float], dict[MethodSpec, tuple[FeatureId, ...]]] = {
    (Scenario.UNIFORM, 0.2): {
        MethodSpec(Method.MIFS, 0.0): (V.V1, V.V4, V.V7, V.V5, V.V9, V.V10),
        **{MethodSpec(Method.MIFS, b): FULL_ORDER for b in _BETAS[1:]},
        MethodSpec(Method.MIFS_U, 0.0): (V.V1,),
        **{MethodSpec(Method.MIFS_U, b): (V.V1, V.V2, V.V4, V.V8) for b in _BETAS[1:]},
        MethodSpec(Method.MRMR): FULL_ORDER,
        MethodSpec(Method.MMIFS_U): (V.V1, V.V2, V.V4, V.V8),
        MethodSpec(Method.MICC): (V.V1, V.V8, V.V4, V.V3),
        MethodSpec(Method.QMIFS): (V.V1, V.V2),
        MethodSpec(Method.NMIFS): (V.V1, V.V8, V.V3, V.V6, V.V4),
        MethodSpec(Method.MAX_MIFS): FULL_ORDER,
    },
    (Scenario.UNIFORM, 0.8): {
        MethodSpec(Method.MIFS, 0.0): (V.V1, V.V7, V.V4, V.V5, V.V9, V.V10),
        **{MethodSpec(Method.MIFS, b): FULL_ORDER for b in _BETAS[1:]},
        MethodSpec(Method.MIFS_U, 0.0): (V.V1,),
        **{MethodSpec(Method.MIFS_U, b): (V.V1, V.V2, V.V4, V.V8) for b in _BETAS[1:]},
        MethodSpec(Method.MRMR): FULL_ORDER,
        MethodSpec(Method.MMIFS_U): (V.V1, V.V2, V.V4, V.V8),
        MethodSpec(Method.MICC): (V.V1, V.V8, V.V4, V.V3),
        MethodSpec(Method.QMIFS): (V.V1, V.V2),
        MethodSpec(Method.NMIFS): (V.V1, V.V8, V.V2, V.V6, V.V4),
        MethodSpec(Method.MAX_MIFS): FULL_ORDER,
    },
    (Scenario.GAUSSIAN, 0.2): {
        MethodSpec(Method.MIFS, 0.0): (V.V1, V.V4, V.V7, V.V5, V.V9, V.V10),
        **{MethodSpec(Method.MIFS, b): FULL_ORDER for b in _BETAS[1:]},
        MethodSpec(Method.MIFS_U, 0.0): (V.V1, V.V4, V.V7, V.V5, V.V9, V.V10),
        MethodSpec(Method.MIFS_U, 0.4): (V.V1, V.V4, V.V7, V.V5, V.V9, V.V10, V.V2, V.V3, V.V8),
        MethodSpec(Method.MIFS_U, 0.7): (V.V1, V.V7, V.V5, V.V9, V.V10, V.V4, V.V2, V.V3, V.V8),
        MethodSpec(Method.MIFS_U, 1.0): (V.V1, V.V7, V.V5, V.V9, V.V10, V.V4, V.V2, V.V3, V.V8),
        MethodSpec(Method.MRMR): FULL_ORDER,
        MethodSpec(Method.MMIFS_U): (V.V1, V.V7, V.V5, V.V9, V.V10, V.V4, V.V2, V.V3, V.V8),
        MethodSpec(Method.MICC): (V.V1, V.V7, V.V4, V.V3, V.V8, V.V2),
        MethodSpec(Method.QMIFS): (V.V1, V.V7, V.V5, V.V9, V.V10, V.V4),
        MethodSpec(Method.NMIFS): FULL_ORDER,
        MethodSpec(Method.MAX_MIFS): FULL_ORDER,
    },
    (Scenario.GAUSSIAN, 0.8): {
        MethodSpec(Method.MIFS, 0.0): (V.V1, V.V7, V.V4, V.V5, V.V9, V.V10),
        **{MethodSpec(Method.MIFS, b): FULL_ORDER for b in _BETAS[1:]},
        MethodSpec(Method.MIFS_U, 0.0): (V.V1, V.V7, V.V4, V.V5, V.V9, V.V10),
        **{
            MethodSpec(Method.MIFS_U, b): (V.V1, V.V7, V.V5, V.V9, V.V10, V.V4, V.V2, V.V3, V.V8)
            for b in _BETAS[1:]
        },
        MethodSpec(Method.MRMR): FULL_ORDER,
        MethodSpec(Method.MMIFS_U): (V.V1, V.V7, V.V5, V.V9, V.V10, V.V4, V.V2, V.V3, V.V8),
        MethodSpec(Method.MICC): (V.V1, V.V7, V.V4, V.V3, V.V8, V.V2),
        MethodSpec(Method.QMIFS): (V.V1, V.V7, V.V5, V.V9, V.V10, V.V4),
        MethodSpec(Method.NMIFS): FULL_ORDER,
        MethodSpec(Method.MAX_MIFS): FULL_ORDER,
    },
}

# (scenario, k, method spec) -> 0-based positions whose reference value is
# inconsistent with the stated objective semantics: the uniform-scenario
# k=0.8 NMIFS third pick is listed as the affine copy of X, but every
# quantity entering the objective at that step is identical to the k=0.2
# case, where the squared feature is (correctly) listed instead.
EXCLUDED_CELLS: dict[tuple[Scenario, float, MethodSpec], frozenset[int]] = {
    (Scenario.UNIFORM, 0.8, MethodSpec(Method.NMIFS)): frozenset({2}),
}


class CheckFailed(Exception):
    """A self-check's FAIL; the message is the detail of its line."""


def _passed(ok: bool, detail: str) -> str:
    """``detail``, the detail of a PASS if ``ok``, else raise it as a FAIL."""
    if not ok:
        raise CheckFailed(detail)
    return detail


def _sample_values() -> list[XValue]:
    finites = [-2.5, -2.0, -1.0, 0.0, 0.5, 0.7, 3.0]
    return finites + [math.inf, -math.inf] + list(IndetKind)


def _indet(v: XValue) -> bool:
    return isinstance(v, IndetKind)


def check_xreal_algebra() -> str:
    """The laws of the value operations that selection runs, on a value grid."""
    values = _sample_values()
    cases = 0
    for op, a, b in itertools.product((fadd, fsub, fmul, fdiv), values, values):
        cases += 1
        r1 = op(a, b)
        # absorption
        if (_indet(a) or _indet(b)) and not _indet(r1):
            raise CheckFailed(f"{op.__name__}({box(a)},{box(b)}) = {box(r1)}")
        # commutativity of add/mul up to indeterminate-ness
        if op in (fadd, fmul):
            r2 = op(b, a)
            if _indet(r1) != _indet(r2) or (not _indet(r1) and r1 != r2):
                raise CheckFailed(f"{op.__name__} not commutative on {box(a)},{box(b)}")
    for v in values:
        # negation is subtraction from zero
        if not _indet(v) and fsub(0.0, fsub(0.0, v)) != v:
            raise CheckFailed(f"negation not involutive on {box(v)}")
    return f"{cases} operator cases"


def random_table(rng: np.random.Generator, nvars: int = 3) -> Joint:
    """A random joint of ``nvars`` variables of 2 to 4 states, about a fifth of its cells empty."""
    arities = rng.integers(2, 5, size=nvars)
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


def check_discrete_identities() -> str:
    """MI by its double sum and the three forms of the interaction information agree."""
    tables, tol, worst = 1000, 1e-10, 0.0
    rng = np.random.default_rng(1847)
    for _ in range(tables):
        t = random_table(rng)
        forms = (
            infotheory.tmi(t, (0,), (1,), (2,)),
            infotheory.mi(t, (0,), (2,)) - infotheory.cond_mi(t, (0,), (2,), (1,)),
            infotheory.mi(t, (1,), (2,)) - infotheory.cond_mi(t, (1,), (2,), (0,)),
        )
        worst = max(worst, abs(mi_direct(t, 0, 1) - infotheory.mi(t, (0,), (1,))),
                    max(forms) - min(forms))
        if worst > tol:
            raise CheckFailed(f"deviation {worst:.2e} exceeds {tol:.0e}")
    return f"{tables} tables, max deviation {worst:.1e}"


def check_oracle_tables() -> str:
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
                raise CheckFailed(f"{scenario.value} k={k} {f.name}: expected exact 0")
            worst = max(worst, abs(got - want))
    return _passed(worst <= 1e-3, f"60 values, max deviation {worst:.1e}")


def check_pairwise_tables() -> str:
    """Every pairwise MI against its pair class, in both scenarios."""
    tol, entries = 2e-3, 0
    for scenario, values in PAIRWISE_TABLE.items():
        tables = oracle_provider(ScenarioSpec(scenario, 0.2))
        for i, j in itertools.combinations_with_replacement(FEATURES, 2):
            v = tables.pairwise_mi(i, j)
            want = values.get(PAIR_CLASSES.get(frozenset((i, j))), 0.0)
            ok = abs(v - want) <= tol if 0.0 < want < math.inf else v == want
            if not ok or tables.pairwise_mi(j, i) != v:
                raise CheckFailed(f"{scenario.value} {i.name},{j.name} = {v}")
            entries += 1
    dual = mi_y2_xy_gaussian()
    _passed(abs(dual - 0.1078) <= tol, f"independent evaluation {dual:.4f} vs 0.1078")
    return f"{entries} entries; independent square/diff route {dual:.4f}"


def check_zero_mi_of_square() -> str:
    cases = ((Scenario.UNIFORM, 0.5), (Scenario.UNIFORM, 1.0), (Scenario.GAUSSIAN, 0.5))
    worst = max(abs(mi_class_squared_feature(ScenarioSpec(scenario, k, delta)))
                for k in (0.2, 0.8) for scenario, delta in cases)
    return _passed(worst <= 1e-3, f"6 cases, max |MI| {worst:.1e}")


def check_ordering_tables() -> str:
    """Every ordering row, halt included, but for its ``EXCLUDED_CELLS``."""
    rows = 0
    for (scenario, k), methods in ORDERING_TABLE.items():
        tables = oracle_provider(ScenarioSpec(scenario, k))
        for mspec, want in methods.items():
            row = f"{scenario.value} k={k} {mspec.label()}"
            trace = select_all(mspec, tables)
            if len(trace.selected) != len(want):
                raise CheckFailed(f"{row}: {len(trace.selected)} picks, expected {len(want)}")
            excluded = EXCLUDED_CELLS.get((scenario, k, mspec), ())
            for pos, (got, w) in enumerate(zip(trace.selected, want)):
                if got != w and pos not in excluded:
                    raise CheckFailed(f"{row} step {pos + 1}: {got.name} != {w.name}")
            if (trace.halt is HaltReason.ALL_SELECTED) != (len(want) == len(FEATURES)):
                raise CheckFailed(f"{row}: halt reason {trace.halt.value}")
            rows += 1
    return f"{rows} rows reproduced, halts included"


# name -> check, in the order ``miselect verify`` prints them
ALL_CHECKS: dict[str, Callable[[], str]] = {
    "xreal-algebra": check_xreal_algebra,
    "discrete-identities": check_discrete_identities,
    "oracle-tables": check_oracle_tables,
    "pairwise-tables": check_pairwise_tables,
    "zero-mi-of-square": check_zero_mi_of_square,
    "ordering-tables": check_ordering_tables,
}
