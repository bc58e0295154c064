"""Command-line front end.

Subcommands: ``oracle`` (print the analytic entropy/MI table), ``order``
(run one selection method against the oracle or a sample CSV),
``simulate`` (replicated Monte Carlo experiment, CSV output),
``relevance`` (relevance analysis of a labeled joint), and ``verify``
(self-checks, nonzero exit on failure).

Bad input ends in one ``error: ...`` line on stderr and exit status 2; a
closed stdout pipe ends quietly with status 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from typing import Callable, Sequence, TextIO

from .estimation import Sample, estimated_provider
from .oracle import MITables, Scenario, ScenarioSpec, feature_labels, oracle_provider
from .reference import ALL_CHECKS, CheckFailed
from .relevance import LabeledJoint, RelevanceClass
from .selection import MethodSpec, SelectionTrace, select_all
from .simlab import ExperimentConfig, emit_csv, emit_traces_json, run_experiment


class CliError(Exception):
    """Bad input: main prints ``error: <message>`` and returns 2."""


def _scenario(text: str) -> Scenario:
    try:
        return Scenario(text.upper())
    except ValueError:
        raise ValueError(f"scenario must be I or II, got {text!r}") from None


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _methods(text: str) -> tuple[MethodSpec, ...]:
    return tuple(MethodSpec.parse(tok) for tok in text.split(","))


# Each setting is a flag of the same name: name -> (parse, default, help).
# SIMULATE_SETTINGS are also the config file's keys, listed in this order.
_SCENARIO = (_scenario, Scenario.UNIFORM, "I (uniform drivers) or II (Gaussian drivers)")
_SHAPE = {"delta": (float, ScenarioSpec.delta, "uniform half-width"),
          "a": (float, ScenarioSpec.a, None), "b": (float, ScenarioSpec.b, None),
          "d": (float, ScenarioSpec.d, None)}
SPEC_SETTINGS = {"scenario": _SCENARIO, "k": (float, 0.2, "class slope, in (0,1)"), **_SHAPE}
SIMULATE_SETTINGS = {
    "scenario": _SCENARIO,
    "k": (_floats, (0.2,), "comma-separated class slopes"),
    "n": (_ints, (1000,), "comma-separated sample sizes"),
    "methods": (_methods, (MethodSpec.parse("mifs:1"),),
                "comma-separated, e.g. mifs:1,mrmr,maxmifs"),
    "replicates": (int, 100, None),
    "seed": (int, 20250808, None),
    **_SHAPE,
    "out": (str, "experiment.csv", "output CSV path"),
}


def _value(key: str, text: str | None, parse, default):
    """Parse flag or config text, so a bad value is one ``error: <key>: ...`` line."""
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"{key}: {exc}")


def _settings(table: dict, args: argparse.Namespace, config: dict[str, str]) -> dict:
    """Each setting of ``table``: its flag, else its ``config`` line, else its default."""
    values = {}
    for key, (parse, default, _) in table.items():
        flag = getattr(args, key)
        values[key] = _value(key, config.get(key) if flag is None else flag, parse, default)
    return values


def _add_flags(p: argparse.ArgumentParser, table: dict) -> None:
    # plain text, parsed in _settings like the config file's values
    for key, (_, _, help_text) in table.items():
        p.add_argument(f"--{key}", help=help_text)


def _build_spec(args: argparse.Namespace) -> ScenarioSpec:
    try:
        return ScenarioSpec(**_settings(SPEC_SETTINGS, args, {}))
    except ValueError as exc:
        raise CliError(exc)


def _oracle_tables(spec: ScenarioSpec) -> MITables:
    try:
        return oracle_provider(spec)
    except ValueError as exc:
        raise CliError(f"the oracle does not cover these parameters: {exc}")


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    tables = _oracle_tables(spec)
    for label, h, m in zip(feature_labels(spec), tables.entropies, tables.class_mis):
        print(f"{label}\t{h:.4f}\t{m:.4f}")
    return 0


def cmd_order(args: argparse.Namespace) -> int:
    try:
        mspec = MethodSpec.parse(args.method, _value("beta", args.beta, float, None))
    except ValueError as exc:
        raise CliError(exc)
    spec = _build_spec(args)
    outputs = [] if args.trace is None else [(args.trace, _write_trace)]
    _check_outputs(outputs)
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
    _write(outputs, trace, spec)
    labels = feature_labels(spec)
    print(f"{' '.join(labels[f - 1] for f in trace.selected)} | halt: {trace.halt.value}")
    return 0


def _check_outputs(outputs: list[tuple[str, Callable]]) -> None:
    """Refuse, before any work, an empty path, a directory, a missing directory, a file
    twice, or a file whose ``<file>.part`` (see ``_write``) is another output."""
    for path, _ in outputs:
        if os.path.isdir(path):
            raise CliError(f"cannot write {path}: Is a directory")
        if not path or not os.path.isdir(os.path.dirname(path) or "."):
            raise CliError(f"cannot write {path}: No such file or directory")
    files = [os.path.realpath(path) for path, _ in outputs] if len(outputs) > 1 else []
    if len(set(files)) < len(files):
        raise CliError(f"cannot write {outputs[-1][0]}: given twice")
    for (path, _), file in zip(outputs, files):
        if os.path.realpath(file + ".part") in files:
            raise CliError(f"cannot write {path}: its part file {path}.part is another output")


def _write(outputs: list[tuple[str, Callable]], *args) -> None:
    """Write every output ``(path, write)`` as ``write(*args, fh)``, then rename the parts.

    A path that is a regular file or not there yet is written to ``<file>.part``, its
    links resolved, and every part replaces its file only once all outputs are written.
    Any other path, such as a device or a FIFO, is opened and written directly.
    """
    parts = []  # (path, file) of each part written
    try:
        for path, write in outputs:
            if os.path.exists(path) and not os.path.isfile(path):
                with open(path, "w") as fh:
                    write(*args, fh)
                continue
            target = os.path.realpath(path) if os.path.islink(path) else path
            with open(target + ".part", "w") as fh:
                parts.append((path, target))
                write(*args, fh)
            if os.path.isfile(target):
                shutil.copymode(target, target + ".part")
        for path, target in parts:
            os.replace(target + ".part", target)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}")
    finally:
        for _, target in parts:
            if os.path.lexists(target + ".part"):
                os.remove(target + ".part")


def _write_trace(trace: SelectionTrace, spec: ScenarioSpec, fh: TextIO) -> None:
    labels, lines = feature_labels(spec), ["step\tcandidate\tobjective\tselected"]
    for step_no, step in enumerate(trace.steps, start=1):
        for f, v in step.objectives.items():  # feature order
            mark = "*" if f == step.winner else ""
            lines.append(f"{step_no}\t{labels[f - 1]}\t{v}\t{mark}")
    fh.write("\n".join(lines) + "\n")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value grammar over SIMULATE_SETTINGS, each once; '#' starts a comment line.

    Every failure is a ValueError naming the file, read whole before any line is parsed.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in text.split("=", 1))
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value")
        key = key.lower()
        if key not in SIMULATE_SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                             f"expected one of {', '.join(SIMULATE_SETTINGS)}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        raw[key] = value
    return raw


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        raw = parse_config_file(args.config) if args.config else {}
    except ValueError as exc:
        raise CliError(exc)
    values = _settings(SIMULATE_SETTINGS, args, raw)
    out = values.pop("out")
    try:
        config = ExperimentConfig(k_values=values.pop("k"), n_values=values.pop("n"), **values)
    except ValueError as exc:
        raise CliError(exc)
    traces = [] if args.traces is None else [(args.traces, emit_traces_json)]
    outputs = [(out, emit_csv)] + traces
    _check_outputs(outputs)
    try:
        result = run_experiment(config, keep_traces=bool(args.traces))
    except (ValueError, MemoryError) as exc:  # e.g. a feature that overflows to inf
        raise CliError(f"simulated sample: {exc}")
    _write(outputs, result)
    for c in result.cells:
        degenerate = f", {c.degenerate} degenerate" if c.degenerate else ""
        print(
            f"{config.scenario.value} k={c.k:g} n={c.n} {c.method.label()}: "
            f"frequency {c.frequency:.4f} (se {c.stderr():.4f}, "
            f"{c.replicates} replicates{degenerate})"
        )
    print(f"wrote {out} in {result.runtime:.1f}s")
    return 0


def cmd_relevance(args: argparse.Namespace) -> int:
    try:
        with open(args.joint, "rb") as fh:
            joint = LabeledJoint.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load joint {args.joint}: {exc}")

    def name(f: int) -> str:
        return f"V{f + 1}"

    try:  # the first analysis: a joint past the search bound is refused before any other
        chosen = joint.markov_blanket_filter()
    except ValueError as exc:
        raise CliError(f"joint {args.joint}: {exc}")
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
    status = 0
    for name, check in ALL_CHECKS.items():
        try:
            print(f"PASS {name}: {check()}")
        except CheckFailed as exc:
            print(f"FAIL {name}: {exc}")
            status = 1
    return status


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miselect",
        description="Mutual-information feature selection lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="print the analytic entropy / class-MI table")
    _add_flags(p, SPEC_SETTINGS)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("order", help="run one selection method")
    _add_flags(p, SPEC_SETTINGS)
    p.add_argument("--method", required=True,
                   help="mifs, mifsu, mrmr, mmifsu, micc, qmifs, nmifs, maxmifs")
    p.add_argument("--beta")
    p.add_argument("--data", default=None, help="sample CSV; estimator backend")
    p.add_argument("--trace", default=None, help="write per-step objectives as TSV")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("simulate", help="replicated Monte Carlo experiment")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--traces", default=None,
                   help="also dump every per-replicate ordering as JSON")
    _add_flags(p, SIMULATE_SETTINGS)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe is met here, not at interpreter exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader left: end quietly, flushing into devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1

