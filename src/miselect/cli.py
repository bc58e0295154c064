"""Command-line front end.

Subcommands: ``oracle`` (print the analytic entropy/MI table), ``order``
(run one selection method against the oracle or a sample CSV),
``simulate`` (replicated Monte Carlo experiment, CSV output),
``relevance`` (relevance analysis of a labeled joint), and ``verify``
(self-checks, nonzero exit on failure).

Bad input ends in one ``error: ...`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .estimation import Sample, estimated_provider
from .oracle import (
    FEATURES,
    MITables,
    Scenario,
    ScenarioSpec,
    feature_label,
    oracle_provider,
)
from .relevance import LabeledJoint, RelevanceClass
from .selection import MethodSpec, SelectionTrace, select_all
from .simlab import ExperimentConfig, emit_csv, run_experiment
from .verify import run_all_checks

DEFAULT_SEED = 20250808


class CliError(Exception):
    """Bad input: main prints ``error: <message>`` and returns 2."""


def _scenario(text: str) -> Scenario:
    try:
        return Scenario(text.upper())
    except ValueError:
        raise ValueError(f"scenario must be I or II, got {text!r}") from None


def _value(key: str, text: str | None, parse, default):
    """Parse flag or config text, so a bad value is one ``error: <key>: ...`` line."""
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"{key}: {exc}")


def _build_spec(args: argparse.Namespace) -> ScenarioSpec:
    scenario = _value("scenario", args.scenario, _scenario, Scenario.UNIFORM)
    k = _value("k", args.k, float, 0.2)
    shape = [_value(key, getattr(args, key), float, getattr(ScenarioSpec, key))
             for key in ("delta", "a", "b", "d")]
    try:
        return ScenarioSpec(scenario, k, *shape)
    except ValueError as exc:
        raise CliError(exc)


def _add_spec_flags(p: argparse.ArgumentParser, need_k: bool = True) -> None:
    # plain text, parsed in _build_spec
    p.add_argument("--scenario", help="I (uniform drivers) or II (Gaussian drivers)")
    p.add_argument("--k", required=need_k, help="class slope, in (0,1)")
    p.add_argument("--delta", help="uniform half-width")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--d")


def _oracle_tables(spec: ScenarioSpec) -> MITables:
    try:
        return oracle_provider(spec)
    except (ValueError, OverflowError) as exc:  # e.g. a delta whose entropies overflow
        raise CliError(f"the oracle does not cover these parameters: {exc}")


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    tables = _oracle_tables(spec)
    for f in FEATURES:
        h = tables.entropy(f).value
        m = tables.class_mi(f).value
        print(f"{feature_label(f, spec)}\t{h:.4f}\t{m:.4f}")
    return 0


def cmd_order(args: argparse.Namespace) -> int:
    try:
        mspec = MethodSpec.parse(args.method, _value("beta", args.beta, float, None))
    except ValueError as exc:
        raise CliError(exc)
    spec = _build_spec(args)
    if args.data:
        try:
            sample = Sample.from_csv(args.data)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read sample {args.data}: {exc}")
        try:
            tables = estimated_provider(sample)
        except ValueError as exc:
            raise CliError(f"sample {args.data}: {exc}")
    else:
        tables = _oracle_tables(spec)
    trace = select_all(mspec, tables)
    labels = " ".join(feature_label(f, spec) for f in trace.selected)
    print(f"{labels} | halt: {trace.halt.value}")
    if args.trace:
        _write_trace(trace, spec, args.trace)
    return 0


def _write_trace(trace: SelectionTrace, spec: ScenarioSpec, path: str) -> None:
    lines = ["step\tcandidate\tobjective\tselected"]
    for step_no, step in enumerate(trace.steps, start=1):
        for f in FEATURES:
            v = step.objectives.get(f)
            if v is None:
                continue
            mark = "*" if f == step.winner else ""
            lines.append(f"{step_no}\t{feature_label(f, spec)}\t{v}\t{mark}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value grammar; '#' starts a comment, blank lines ignored."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in text.split("=", 1))
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            raw[key.lower()] = value
    return raw


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _methods(text: str) -> tuple[MethodSpec, ...]:
    return tuple(MethodSpec.parse(tok) for tok in text.split(","))


def cmd_simulate(args: argparse.Namespace) -> int:
    raw: dict[str, str] = {}
    if args.config:
        try:
            raw = parse_config_file(args.config)
        except (OSError, ValueError) as exc:
            raise CliError(exc)
    def pick(flag, key, parse, default):
        return _value(key, flag if flag is not None else raw.get(key), parse, default)

    try:
        config = ExperimentConfig(
            scenario=pick(args.scenario_opt, "scenario", _scenario, Scenario.UNIFORM),
            k_values=pick(args.k_values, "k", _floats, (0.2,)),
            n_values=pick(args.n_values, "n", _ints, (1000,)),
            methods=pick(args.methods, "methods", _methods,
                         (MethodSpec.parse("mifs:1"),)),
            replicates=pick(args.replicates, "replicates", int, 100),
            seed=pick(args.seed, "seed", int, DEFAULT_SEED),
            delta=pick(args.delta, "delta", float, ScenarioSpec.delta),
            a=pick(args.a, "a", float, ScenarioSpec.a),
            b=pick(args.b, "b", float, ScenarioSpec.b),
            d=pick(args.d, "d", float, ScenarioSpec.d),
        )
    except ValueError as exc:
        raise CliError(exc)
    try:
        result = run_experiment(config, keep_traces=bool(args.traces))
    except ValueError as exc:  # e.g. a feature that overflows to inf
        raise CliError(f"simulated sample: {exc}")
    out = args.out or (raw.get("out") or "experiment.csv")
    emit_csv(result, out)
    if args.traces:
        _write_traces_json(result, args.traces)
    for c in result.cells:
        print(
            f"{c.scenario.value} k={c.k:g} n={c.n} {c.method.label()}: "
            f"frequency {c.frequency:.4f} (se {c.stderr():.4f}, "
            f"{c.replicates} replicates)"
        )
    print(f"wrote {out} in {result.runtime:.1f}s")
    return 0


def _write_traces_json(result, path: str) -> None:
    import json

    cells = []
    for (mspec, k, n), traces in result.traces.items():
        cells.append(
            {
                "scenario": result.config.scenario.value,
                "k": k,
                "n": n,
                "method": mspec.method.value,
                "beta": mspec.beta,
                "replicates": [
                    {
                        "selected": [f.name for f in t.selected],
                        "halt": t.halt.value,
                    }
                    for t in traces
                ],
            }
        )
    with open(path, "w") as fh:
        json.dump({"seed": result.config.seed, "cells": cells}, fh, indent=1)


def cmd_relevance(args: argparse.Namespace) -> int:
    try:
        with open(args.joint) as fh:
            joint = LabeledJoint.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load joint {args.joint}: {exc}")
    try:
        joint.check_search_bound()
    except ValueError as exc:
        raise CliError(f"joint {args.joint}: {exc}")

    def name(f: int) -> str:
        return f"V{f + 1}"

    chosen = joint.markov_blanket_filter()
    partition = joint.partition(chosen)
    for label, cls in (("SR", RelevanceClass.SR), ("WR-NR", RelevanceClass.WR_NR),
                       ("WR-R", RelevanceClass.WR_R), ("Irrelevant", RelevanceClass.IRRELEVANT)):
        members = [name(f) for f, c in partition.items() if c is cls]
        print(f"{label}: {' '.join(members) if members else '-'}")
    sets = joint.relevance_optimal_sets()
    rendered = " ".join("{" + ",".join(name(f) for f in s) + "}" for s in sets)
    print(f"Relevance-optimal sets: {rendered}")
    print("Markov blanket filter: {" + ",".join(name(f) for f in chosen) + "}")
    return 0


def cmd_verify(_: argparse.Namespace) -> int:
    results = run_all_checks()
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miselect",
        description="Mutual-information feature selection lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="print the analytic entropy / class-MI table")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("order", help="run one selection method")
    _add_spec_flags(p, need_k=False)
    p.add_argument("--method", required=True,
                   help="mifs, mifsu, mrmr, mmifsu, micc, qmifs, nmifs, maxmifs")
    p.add_argument("--beta")
    p.add_argument("--data", default=None, help="sample CSV; estimator backend")
    p.add_argument("--trace", default=None, help="write per-step objectives as TSV")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("simulate", help="replicated Monte Carlo experiment")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--traces", default=None,
                   help="also dump every per-replicate ordering as JSON")
    # plain text, parsed in cmd_simulate like the config file's values
    p.add_argument("--scenario", dest="scenario_opt", default=None)
    p.add_argument("--k", dest="k_values", default=None,
                   help="comma-separated class slopes")
    p.add_argument("--n", dest="n_values", default=None,
                   help="comma-separated sample sizes")
    p.add_argument("--methods", default=None,
                   help="comma-separated, e.g. mifs:1,mrmr,maxmifs")
    p.add_argument("--replicates", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--d", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("relevance", help="relevance analysis of a labeled joint")
    p.add_argument("--joint", required=True, help="JSON table with class_index")
    p.set_defaults(func=cmd_relevance)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
