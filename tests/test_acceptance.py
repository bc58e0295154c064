"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time

import numpy as np

from conftest import random_provider
from selection_reference import objective
from miselect.oracle import FeatureId, Scenario, ScenarioSpec
from miselect.estimation import estimated_provider
from miselect.reference import (
    CheckFailed,
    check_discrete_identities,
    check_ordering_tables,
    check_oracle_tables,
    check_pairwise_tables,
    check_xreal_algebra,
    check_zero_mi_of_square,
)
from miselect.relevance import RelevanceClass, duplicated_features_example
from miselect.selection import Method, MethodSpec, select_all
from miselect.simlab import ExperimentConfig, generate_sample, run_experiment

V = FeatureId
SEED = 20250808


def report(num: int, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures)


def run_check(check) -> tuple[str, list[str]]:
    """The detail of one self-check of ``miselect verify``, and its FAIL if any."""
    try:
        return check(), []
    except CheckFailed as exc:
        return str(exc), [f"{check.__name__}: {exc}"]


def report_check(num: int, check, seconds: float | None = None) -> None:
    """Run one self-check, within ``seconds`` if given."""
    start = time.perf_counter()
    detail, failures = run_check(check)
    elapsed = time.perf_counter() - start
    if seconds is not None and elapsed >= seconds:
        failures.append(f"runtime {elapsed:.2f}s >= {seconds:g}s")
    report(num, failures, f"{detail}, {elapsed:.2f}s")


def test_criterion_1_oracle_value_reproduction():
    report_check(1, check_oracle_tables, seconds=10.0)


def test_criterion_2_pairwise_mi_tables():
    report_check(2, check_pairwise_tables)


def test_criterion_3_ordering_reproduction():
    report_check(3, check_ordering_tables, seconds=1.0)


def test_criterion_4_zero_mi_of_squared_driver():
    report_check(4, check_zero_mi_of_square)


def test_criterion_5_estimator_accuracy():
    start = time.perf_counter()
    spec = ScenarioSpec(Scenario.UNIFORM, 0.2)
    reps, n = 200, 1000
    acc = {"cv1": [], "cv4": [], "v13": [], "v14": []}
    for child in np.random.SeedSequence(SEED).spawn(reps):
        p = estimated_provider(generate_sample(spec, n, np.random.default_rng(child)))
        acc["cv1"].append(p.class_mi(V.V1))
        acc["cv4"].append(p.class_mi(V.V4))
        acc["v13"].append(p.pairwise_mi(V.V1, V.V3))
        acc["v14"].append(p.pairwise_mi(V.V1, V.V4))
    means = {k: float(np.mean(v)) for k, v in acc.items()}
    targets = {
        "cv1": (0.5932, 0.02),
        "cv4": (0.1779, 0.02),
        "v13": (0.0107, 0.015),
        "v14": (0.5004, 0.02),
    }
    failures = []
    for key, (want, tol) in targets.items():
        if abs(means[key] - want) > tol:
            failures.append(f"{key}: mean {means[key]:.4f} vs {want} +- {tol}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    detail = ", ".join(f"{k}={v:.4f}" for k, v in means.items())
    report(5, failures, f"{detail} ({reps} replicates, {elapsed:.1f}s)")


def test_criterion_6_optimal_pair_frequencies():
    start = time.perf_counter()
    robust = [MethodSpec(Method.MIFS, 1.0), MethodSpec(Method.MRMR),
              MethodSpec(Method.MAX_MIFS)]
    fragile = [MethodSpec(Method.MIFS, 0.0), MethodSpec(Method.MIFS_U, 0.0),
               MethodSpec(Method.NMIFS)]
    res_i = run_experiment(ExperimentConfig(
        Scenario.UNIFORM, (0.2, 0.8), (5000,), tuple(robust + fragile),
        replicates=100, seed=SEED,
    ))
    res_ii = run_experiment(ExperimentConfig(
        Scenario.GAUSSIAN, (0.2,), (5000,), (MethodSpec(Method.MRMR),),
        replicates=100, seed=SEED,
    ))
    failures = []
    summary = []

    def check(result, m, k, low=None, high=None):
        f = next(c.frequency for c in result.cells if (c.method, c.k) == (m, k))
        summary.append(f"{m.label()}@k={k}: {f:.2f}")
        if low is not None and f < low:
            failures.append(f"{m.label()} k={k}: {f:.4f} < {low}")
        if high is not None and f > high:
            failures.append(f"{m.label()} k={k}: {f:.4f} > {high}")

    for m in robust:
        check(res_i, m, 0.8, low=0.95)
        check(res_i, m, 0.2, low=0.88)
    for m in fragile:
        for k in (0.2, 0.8):
            check(res_i, m, k, high=0.02)
    check(res_ii, MethodSpec(Method.MRMR), 0.2, low=0.96)
    elapsed = time.perf_counter() - start
    if elapsed >= 1800.0:
        failures.append(f"runtime {elapsed:.0f}s >= 1800s")
    report(6, failures, "; ".join(summary) + f" ({elapsed:.0f}s)")


def test_criterion_7_frequency_trend_with_sample_size():
    sizes = (50, 100, 500, 1000, 5000)
    res = run_experiment(ExperimentConfig(
        Scenario.UNIFORM, (0.8,), sizes, (MethodSpec(Method.MIFS, 1.0),),
        replicates=100, seed=SEED + 1,
    ))
    cells = res.cells  # one method and one k: one cell per size, in order
    freqs = [c.frequency for c in cells]
    failures = []
    for a, b in zip(cells, cells[1:]):
        slack = math.hypot(a.stderr(), b.stderr())
        if b.frequency < a.frequency - slack:
            failures.append(
                f"drop {a.frequency:.3f}->{b.frequency:.3f} at n={b.n} "
                f"(slack {slack:.3f})"
            )
    for c in cells:
        if c.n >= 500 and c.frequency < 0.95:
            failures.append(f"n={c.n}: {c.frequency:.3f} < 0.95")
    detail = " ".join(f"n={n}:{f:.2f}" for n, f in zip(sizes, freqs))
    report(7, failures, detail)


def test_criterion_8_property_suites():
    # extended-real algebra laws; discrete identities on 1000 random tables
    failures = run_check(check_xreal_algebra)[1]
    identities, failed = run_check(check_discrete_identities)
    failures += failed

    # the duplication example, exactly
    ex = duplicated_features_example()
    if [ex.classify_feature(f) for f in ex.features] != [
        RelevanceClass.SR, RelevanceClass.WR, RelevanceClass.WR,
        RelevanceClass.IRRELEVANT, RelevanceClass.IRRELEVANT,
    ]:
        failures.append("duplication example classification")
    if ex.relevance_optimal_sets() != [(0, 1), (0, 2)]:
        failures.append("duplication example optimal sets")

    # mRMR == MIFS(1/|S|) trace-for-trace on 50 random providers
    rng = np.random.default_rng(31415)
    for i in range(50):
        p = random_provider(rng)
        trace = select_all(MethodSpec(Method.MRMR), p)
        selected = []
        for step in trace.steps:
            if selected:
                for f, got in step.objectives.items():
                    want = objective(
                        MethodSpec(Method.MIFS, 1.0 / len(selected)), f, selected, p
                    )
                    if got != want:
                        failures.append(f"provider {i}: {f.name} objective differs")
            selected.append(step.winner)
    report(8, failures, f"algebra, identities ({identities}), "
                        "duplication example, mRMR/MIFS equivalence")
