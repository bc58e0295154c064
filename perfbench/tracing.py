"""Spans and counters recorded around miselect's public functions.

Nothing inside the package knows about them: for the length of one batch the
benchmark replaces module and class attributes with wrappers, then restores
them. An untraced batch installs only the two seams that mark replicate
boundaries on the simulate workloads (``simlab.generate_sample`` and the
return of ``run_experiment``); a traced batch installs a wrapper at every
layer boundary.

A span is ``[name, start, end, parent, unit]``. Unit spans are the replicate
(simulate workloads) and the ``order`` / ``relevance`` command; every span
opened inside one records it, so per-unit layer totals need no tree walk.
Leaf spans are named after the per-layer metric they feed.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import combinations
from time import perf_counter

UNIT_SELF = {"simlab.replicate": "simlab.replicate.self_ms", "cli.order": "cli.order.self_ms",
             "cli.relevance": None}
INDET_NAMES = {"0*inf": "zero_times_inf", "inf-inf": "inf_minus_inf",
               "0/0": "zero_over_zero", "inf/inf": "inf_over_inf"}
RELEVANCE_CALLS = ("classify_feature", "is_maximally_informative", "has_markov_blanket")


class Tracer:
    """In-memory spans and counters of one batch."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit = -1
        self.calls: Counter = Counter()
        self.distinct: set = set()
        self.selections: list = []  # (SelectionTrace, CountingTables)
        self.experiments: list = []  # ExperimentResult of each simulate command

    def begin(self, name: str, unit: bool = False) -> None:
        index = len(self.spans)
        if unit:
            self.unit = index
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.unit])
        self.stack.append(index)

    def end(self) -> None:
        index = self.stack.pop()
        self.spans[index][2] = perf_counter()
        if index == self.unit:
            self.unit = -1

    def end_unit(self) -> None:
        """Close the open unit span, which is innermost between replicates."""
        if self.unit >= 0:
            self.end()


class CountingTables:
    """Forwards the selection loop's three table queries and counts them."""

    def __init__(self, tables) -> None:
        self.tables = tables
        self.feature_order = tables.feature_order
        self.queries = 0

    def entropy(self, f):
        self.queries += 1
        return self.tables.entropy(f)

    def class_mi(self, f):
        self.queries += 1
        return self.tables.class_mi(f)

    def pairwise_mi(self, i, j):
        self.queries += 1
        return self.tables.pairwise_mi(i, j)


@contextmanager
def patched(replacements):
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    for owner, attr, new in replacements:
        setattr(owner, attr, new)
    try:
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _spanned(tracer: Tracer, name, fn):
    """Wrap ``fn`` in a span; ``name`` may be a function of the arguments."""

    def wrapper(*args, **kwargs):
        tracer.begin(name(*args) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def hooks(tracer: Tracer, full: bool) -> list:
    """(owner, attribute, replacement) triples for one batch."""
    from miselect import cli, estimation, relevance, simlab

    generate = simlab.generate_sample
    run = cli.run_experiment

    def generate_sample(*args, **kwargs):
        tracer.end_unit()
        tracer.begin("simlab.replicate", unit=True)
        if not full:
            return generate(*args, **kwargs)
        tracer.begin("simlab.sample.ms")
        try:
            return generate(*args, **kwargs)
        finally:
            tracer.end()

    def run_experiment(*args, **kwargs):
        tracer.begin("simlab.run_experiment")
        try:
            result = run(*args, **kwargs)
            tracer.experiments.append(result)
            return result
        finally:
            tracer.end_unit()
            tracer.end()

    out = [(simlab, "generate_sample", generate_sample), (cli, "run_experiment", run_experiment)]
    if not full:
        return out

    provider = simlab.estimated_provider

    def estimated_provider(sample):
        # Forces all 65 values inside the span. Class MIs go first, in
        # feature order, as first_feature queries them, so a bad sample
        # raises the same error at the same point as an untraced run.
        tracer.begin("estimation.tables.ms")
        try:
            p = provider(sample)
            for f in p.feature_order:
                p.class_mi(f)
            for f in p.feature_order:
                p.entropy(f)
            for i, j in combinations(p.feature_order, 2):
                p.pairwise_mi(i, j)
            return p
        finally:
            tracer.end()

    def select_all_hook(original):
        def select_all(m, p):
            tables = CountingTables(p)
            tracer.begin("selection.select_all.ms." + m.method.value)
            try:
                trace = original(m, tables)
            finally:
                tracer.end()
            tracer.selections.append((trace, tables))
            return trace

        return select_all

    def counted(name, fn):
        def wrapper(self, *args, **kwargs):
            tracer.calls[name] += 1
            if name == "classify_feature":
                tracer.distinct.add((id(self), args))
            return fn(self, *args, **kwargs)

        return wrapper

    joint = relevance.LabeledJoint
    out += [
        (simlab, "estimated_provider", estimated_provider),
        (simlab, "select_all", select_all_hook(simlab.select_all)),
        (cli, "select_all", select_all_hook(cli.select_all)),
        (cli, "oracle_provider", _spanned(
            tracer, lambda spec: "oracle.build.ms." + spec.scenario.value, cli.oracle_provider)),
        (joint, "from_json", staticmethod(_spanned(tracer, "relevance.load.ms", joint.from_json))),
    ]
    for attr, name in (("estimate_entropy_1d", "entropy"), ("estimate_mi_class", "class_mi"),
                       ("estimate_mi_features", "pairwise_mi")):
        out.append((estimation, attr,
                    _spanned(tracer, f"estimation.{name}.ms", getattr(estimation, attr))))
    for attr, name in (("markov_blanket_filter", "markov_blanket_filter"),
                       ("partition", "partition"), ("relevance_optimal_sets", "optimal_sets")):
        out.append((joint, attr, _spanned(tracer, f"relevance.{name}.ms", getattr(joint, attr))))
    for attr in RELEVANCE_CALLS:
        out.append((joint, attr, counted(attr, getattr(joint, attr))))
    return out


class LayerStats:
    """Per-layer samples and counts gathered over a run's traced batches."""

    def __init__(self) -> None:
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()

    def add(self, tracer: Tracer, output_bytes: list[int]) -> None:
        spans = tracer.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        per_unit: defaultdict[int, Counter] = defaultdict(Counter)
        for index, (name, start, end, parent, unit) in enumerate(spans):
            duration = end - start
            if unit == index:
                self.counts[name + ".units"] += 1
                own = duration - child[index]
                if UNIT_SELF[name]:
                    self.samples[UNIT_SELF[name]].append(own * 1e3)
                self.samples["trace.span_coverage"].append(1.0 - own / duration)
            elif unit >= 0:
                per_unit[unit][name] += duration
                self.counts[name + ".calls"] += 1
            elif name == "cli.simulate":
                self.samples["cli.simulate.self_ms"].append((duration - child[index]) * 1e3)
        for totals in per_unit.values():
            for name, total in totals.items():
                self.samples[name].append(total * 1e3)
        self.samples["cli.output_bytes"] += output_bytes

        for trace, tables in tracer.selections:
            self.counts["selection.calls"] += 1
            self.counts["selection.table_queries"] += tables.queries
            self.counts["selection.halts." + trace.halt.value.replace(" ", "_")] += 1
            for step in trace.steps:
                for value in step.objectives.values():
                    self.counts["selection.objective_evals"] += 1
                    if value.is_indet:
                        self.counts["selection.indet." + INDET_NAMES[value.indet_kind.value]] += 1
                    else:
                        self.counts["selection.admissible"] += 1
        for result in tracer.experiments:
            cells = {(c.k, c.n): c for c in result.cells}.values()
            self.counts["simlab.replicates"] += sum(c.replicates for c in cells)
            self.counts["simlab.degenerate"] += sum(c.degenerate for c in cells)
        for name in RELEVANCE_CALLS:
            self.counts[f"relevance.{name}.calls"] += tracer.calls[name]
        self.counts["relevance.classify_feature.distinct"] += len(tracer.distinct)

    def metrics(self) -> dict[str, float]:
        """Per-layer values: medians of per-unit span totals, counts per unit or call."""
        c = self.counts
        out = {name: statistics.median(values) for name, values in self.samples.items()}

        def ratio(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        for name in ("entropy", "class_mi", "pairwise_mi"):
            out[f"estimation.{name}.calls"] = ratio(f"estimation.{name}.ms.calls",
                                                    "simlab.replicate.units")
        out["simlab.degenerate_ratio"] = ratio("simlab.degenerate", "simlab.replicates")
        for name in ["objective_evals", "table_queries"] + [
                f"indet.{v}" for v in INDET_NAMES.values()] + [
                "halts.all_selected", "halts.no_admissible_candidate"]:
            out["selection." + name] = ratio("selection." + name, "selection.calls")
        out["selection.admissible_ratio"] = ratio("selection.admissible",
                                                  "selection.objective_evals")
        for key in [f"relevance.{name}.calls" for name in RELEVANCE_CALLS] + [
                "relevance.classify_feature.distinct"]:
            out[key] = ratio(key, "cli.relevance.units")
        return out
