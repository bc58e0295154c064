import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import miselect
from miselect import simlab
from miselect.cli import main, parse_config_file
from miselect.estimation import Sample
from miselect.oracle import Scenario, ScenarioSpec
from miselect.relevance import LabeledJoint, duplicated_features_example
from miselect.simlab import generate_sample


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_error(capsys, *argv):
    """Run a command that must fail on bad input; return its error line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


def test_oracle_table_uniform(capsys):
    code, out = run(capsys, "oracle", "--scenario", "I", "--k", "0.2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert "X-Y\t0.5000\t0.1785" in lines
    assert lines[0] == "X\t0.0000\t0.5931"


def test_oracle_table_gaussian(capsys):
    code, out = run(capsys, "oracle", "--scenario", "II", "--k", "0.8")
    assert code == 0
    row = [l for l in out.splitlines() if l.startswith("Y\t")][0]
    assert row == "Y\t1.4189\t0.1434"


# The whole stdout of `oracle`, byte for byte: a changed digit or a -0.0000 fails
ORACLE_OUTPUTS = [
    pytest.param(("--scenario", "I", "--k", "0.2"), (
        "X\t0.0000\t0.5931\n"
        "3X+1\t1.0986\t0.5931\n"
        "Y2\t-1.6931\t0.0000\n"
        "X-Y\t0.5000\t0.1785\n"
        "Z\t0.0000\t0.0000\n"
        "Z2\t-1.6931\t0.0000\n"
        "Y\t0.0000\t0.0067\n"
        "X2\t-1.6931\t0.0000\n"
        "W+2\t0.0000\t0.0000\n"
        "Z+W\t0.5000\t0.0000\n"
    ), id="I-0.2"),
    pytest.param(("--scenario", "I", "--k", "0.8"), (
        "X\t0.0000\t0.2931\n"
        "3X+1\t1.0986\t0.2931\n"
        "Y2\t-1.6931\t0.0000\n"
        "X-Y\t0.5000\t0.0201\n"
        "Z\t0.0000\t0.0000\n"
        "Z2\t-1.6931\t0.0000\n"
        "Y\t0.0000\t0.1153\n"
        "X2\t-1.6931\t0.0000\n"
        "W+2\t0.0000\t0.0000\n"
        "Z+W\t0.5000\t0.0000\n"
    ), id="I-0.8"),
    pytest.param(("--scenario", "II", "--k", "0.2"), (
        "X\t1.4189\t0.5520\n"
        "3X+1\t2.5176\t0.5520\n"
        "Y2\t0.7838\t0.0000\n"
        "X-Y\t1.7655\t0.0947\n"
        "Z\t1.4189\t0.0000\n"
        "Z2\t0.7838\t0.0000\n"
        "Y\t1.4189\t0.0124\n"
        "X2\t0.7838\t0.0000\n"
        "W+2\t1.4189\t0.0000\n"
        "Z+W\t1.7655\t0.0000\n"
    ), id="II-0.2"),
    pytest.param(("--scenario", "II", "--k", "0.8"), (
        "X\t1.4189\t0.2495\n"
        "3X+1\t2.5176\t0.2495\n"
        "Y2\t0.7838\t0.0000\n"
        "X-Y\t1.7655\t0.0032\n"
        "Z\t1.4189\t0.0000\n"
        "Z2\t0.7838\t0.0000\n"
        "Y\t1.4189\t0.1434\n"
        "X2\t0.7838\t0.0000\n"
        "W+2\t1.4189\t0.0000\n"
        "Z+W\t1.7655\t0.0000\n"
    ), id="II-0.8"),
    pytest.param(("--k", "0.2", "--a", "1e200"), (
        "X\t0.0000\t0.5931\n"
        "1e+200X+1\t460.5170\t0.5931\n"
        "Y2\t-1.6931\t0.0000\n"
        "X-Y\t0.5000\t0.1785\n"
        "Z\t0.0000\t0.0000\n"
        "Z2\t-1.6931\t0.0000\n"
        "Y\t0.0000\t0.0067\n"
        "X2\t-1.6931\t0.0000\n"
        "W+2\t0.0000\t0.0000\n"
        "Z+W\t0.5000\t0.0000\n"
    ), id="I-0.2-a-1e200"),
]


@pytest.mark.parametrize("argv, expected", ORACLE_OUTPUTS)
def test_oracle_output_is_pinned(capsys, argv, expected):
    assert run(capsys, "oracle", *argv) == (0, expected)


def test_oracle_rejects_endpoint_k(capsys):
    line = run_error(capsys, "oracle", "--scenario", "I", "--k", "1.0")
    assert line == "error: class slope k must lie in (0,1), got 1.0"


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--k", "1.5"), "class slope k must lie in (0,1), got 1.5"),
    (("simulate", "--a", "0"), "affine coefficient a must be nonzero"),
    (("simulate", "--delta", "-1"), "delta must be positive"),
    (("order", "--method", "mifs:abc"), "beta must be a number, got 'abc'"),
    (("order", "--method", "mifs:0.4", "--beta", "0.7"),
     "beta given twice: in 'mifs:0.4' and as 0.7"),
    pytest.param(("simulate", "--k", "0.2,abc"),
                 "k: could not convert string to float: 'abc'", id="simulate-k-text"),
    pytest.param(("simulate", "--n", "50,x"),
                 "n: invalid literal for int() with base 10: 'x'", id="simulate-n-text"),
    pytest.param(("simulate", "--methods", "mifs:abc"),
                 "methods: beta must be a number, got 'abc'", id="simulate-methods-beta"),
    pytest.param(("oracle", "--k", "0.2", "--delta", "1e-200"),
                 "the oracle does not cover these parameters: delta 1e-200 is outside "
                 "[1e-150, 1e+150], the range the uniform closed forms cover",
                 id="oracle-delta-underflow"),
    pytest.param(("oracle", "--scenario", "II", "--k", "0.2", "--a", "1e200"),
                 "the oracle does not cover these parameters: |a| 1e+200 is outside "
                 "[1e-150, 1e+150], the range the Gaussian closed forms cover",
                 id="oracle-a-overflow"),
    pytest.param(("oracle", "--scenario", "II", "--k", "0.2", "--a", "1e-200"),
                 "the oracle does not cover these parameters: |a| 1e-200 is outside "
                 "[1e-150, 1e+150], the range the Gaussian closed forms cover",
                 id="oracle-a-underflow"),
    pytest.param(("oracle", "--k", "0.2", "--a", "1e308", "--delta", "1e10"),
                 "the oracle does not cover these parameters: |a| 1e+308 and delta 1e+10: "
                 "2|a|delta, computed in floats, falls outside (0, 1.79769e+308]",
                 id="oracle-a-width-overflow"),
    pytest.param(("oracle", "--k", "0.2", "--a", "1e-300", "--delta", "1e-150"),
                 "the oracle does not cover these parameters: |a| 1e-300 and delta 1e-150: "
                 "2|a|delta, computed in floats, falls outside (0, 1.79769e+308]",
                 id="oracle-a-width-underflow"),
    pytest.param(("order", "--method", "mrmr", "--k", "abc"),
                 "k: could not convert string to float: 'abc'", id="order-k-text"),
    pytest.param(("order", "--method", "mrmr", "--scenario", "III"),
                 "scenario: scenario must be I or II, got 'III'", id="order-scenario-text"),
    pytest.param(("order", "--method", "mifs", "--beta", "x"),
                 "beta: could not convert string to float: 'x'", id="order-beta-text"),
    pytest.param(("oracle", "--k", "abc"),
                 "k: could not convert string to float: 'abc'", id="oracle-k-text"),
    pytest.param(("simulate", "--delta", "nan"), "delta must be finite, got nan",
                 id="simulate-delta-nan"),
    pytest.param(("simulate", "--a", "inf"), "a must be finite, got inf",
                 id="simulate-a-inf"),
    pytest.param(("simulate", "--b", "inf"), "b must be finite, got inf",
                 id="simulate-b-inf"),
    pytest.param(("simulate", "--d", "nan"), "d must be finite, got nan",
                 id="simulate-d-nan"),
    pytest.param(("order", "--method", "mrmr", "--b", "nan"), "b must be finite, got nan",
                 id="order-b-nan"),
    pytest.param(("oracle", "--k", "0.2", "--b", "inf"), "b must be finite, got inf",
                 id="oracle-b-inf"),
    pytest.param(("simulate", "--delta", "1e200", "--n", "50", "--replicates", "2"),
                 "simulated sample: non-finite value inf in row 1, column v3",
                 id="simulate-delta-overflow"),
    pytest.param(("simulate", "--seed", "-1"), "seed must be a non-negative integer, got -1",
                 id="simulate-negative-seed"),
])
@pytest.mark.filterwarnings("error")  # the error line is the only report
def test_bad_parameters_end_in_one_error_line(tmp_path, monkeypatch, capsys, argv,
                                             message):
    monkeypatch.chdir(tmp_path)  # simulate would write experiment.csv here
    assert run_error(capsys, *argv) == "error: " + message
    assert list(tmp_path.iterdir()) == []


def test_oracle_answers_any_delta_in_scenario_i(capsys):
    tables = {}
    for delta in ("0.5", "0.4"):
        code, out = run(capsys, "oracle", "--k", "0.2", "--delta", delta)
        assert code == 0
        tables[delta] = out.splitlines()
    assert [l.split("\t")[2] for l in tables["0.4"]] == [
        l.split("\t")[2] for l in tables["0.5"]]
    assert tables["0.4"] != tables["0.5"]  # the entropies do move


def test_order_answers_any_delta_in_scenario_i(capsys):
    orders = {}
    for delta in ("0.5", "0.4"):
        # mRMR reads no entropy, and the class and pairwise MIs are delta-free
        code, orders[delta] = run(capsys, "order", "--method", "mrmr", "--delta", delta)
        assert code == 0
    assert orders["0.4"] == orders["0.5"]


def test_oracle_overflow_is_one_error_line(capsys):
    # delta**2 in the square's entropy would overflow or underflow
    for delta in ("1e200", "1e-200"):
        line = run_error(capsys, "order", "--method", "mrmr", "--delta", delta)
        assert line == (
            f"error: the oracle does not cover these parameters: delta {float(delta):g} "
            "is outside [1e-150, 1e+150], the range the uniform closed forms cover")
    # a**2 in scenario II's entropy of aX + b would overflow or underflow
    for a in ("1e200", "1e-200"):
        line = run_error(capsys, "oracle", "--scenario", "II", "--k", "0.2", "--a", a)
        assert line == (
            f"error: the oracle does not cover these parameters: |a| {float(a):g} "
            "is outside [1e-150, 1e+150], the range the Gaussian closed forms cover")


def test_oracle_commands_leave_scipy_unimported(tmp_path):
    script = (
        "import sys\n"
        "from miselect.cli import main\n"
        "for argv in (['order', '--scenario', 'II', '--k', '0.2', '--method', 'mrmr'],\n"
        "             ['oracle', '--scenario', 'II', '--k', '0.8'], ['verify']):\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(miselect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_order_nmifs(capsys):
    code, out = run(capsys, "order", "--scenario", "I", "--k", "0.2",
                    "--method", "nmifs")
    assert code == 0
    assert out.strip() == "X X2 Y2 Z2 X-Y | halt: no admissible candidate"


def test_order_maxmifs_full(capsys):
    code, out = run(capsys, "order", "--scenario", "II", "--k", "0.8",
                    "--method", "maxmifs")
    assert code == 0
    assert out.strip() == (
        "X Y Z W+2 X-Y Z+W 3X+1 Y2 Z2 X2 | halt: all selected"
    )


def test_order_unknown_method_lists_valid_names(capsys):
    line = run_error(capsys, "order", "--method", "bogus")
    assert "mifs" in line and "maxmifs" in line


def test_order_trace_file(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    code, _ = run(capsys, "order", "--scenario", "I", "--k", "0.2",
                  "--method", "mifs", "--beta", "0", "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step\tcandidate\tobjective\tselected"
    assert any("indet(0*inf)" in line for line in lines)
    assert any(line.endswith("*") for line in lines)


def test_order_from_sample_csv_is_deterministic(tmp_path, capsys):
    sample = generate_sample(ScenarioSpec(Scenario.UNIFORM, 0.2), 400,
                             np.random.default_rng(21))
    path = tmp_path / "sample.csv"
    sample.to_csv(str(path))
    _, out1 = run(capsys, "order", "--method", "mifs", "--beta", "1",
                  "--data", str(path))
    _, out2 = run(capsys, "order", "--method", "mifs", "--beta", "1",
                  "--data", str(path))
    assert out1 == out2
    assert out1.strip().endswith("halt: all selected")


@pytest.mark.filterwarnings("error")  # the error line is the only report
@pytest.mark.parametrize("name, rows, col, value, message", [
    ("nan-cell", 6, 2, np.nan,
     "cannot read sample {path}: non-finite value nan in row 7, column v3"),
    ("inf-cell", 0, 9, -np.inf,
     "cannot read sample {path}: non-finite value -inf in row 1, column v10"),
    ("single-class", slice(None), 10, 1,
     "sample {path}: need both class labels in the sample"),
    ("constant-column", slice(None), 4, 0.25,
     "sample {path}: column v5: all observations are equal"),
    ("header-only", None, None, None,
     "cannot read sample {path}: the sample has no observations"),
])
def test_order_rejects_bad_sample_csv(tmp_path, capsys, name, rows, col, value,
                                      message):
    sample = generate_sample(ScenarioSpec(Scenario.UNIFORM, 0.2), 100,
                             np.random.default_rng(22))
    data = np.column_stack([sample.features, sample.labels])
    if value is None:  # no rows at all, only the header
        data = data[:0]
    else:
        data[rows, col] = value
    path = tmp_path / f"{name}.csv"
    np.savetxt(path, data, delimiter=",", comments="", fmt="%.17g",
               header="v1,v2,v3,v4,v5,v6,v7,v8,v9,v10,class")
    line = run_error(capsys, "order", "--method", "mrmr", "--data", str(path))
    assert line == "error: " + message.format(path=path)


def test_simulate_rejects_duplicate_methods(tmp_path, capsys):
    out_csv = tmp_path / "dup.csv"
    line = run_error(capsys, "simulate", "--methods", "mifs:1,mifs:1",
                     "--replicates", "5", "--n", "50", "--out", str(out_csv))
    assert line == "error: method grid lists mifs(beta=1) more than once"
    assert not out_csv.exists()


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# comment\nscenario = I\nk = 0.2, 0.8\nn= 50\n"
        "methods = mifs:1, mrmr\nreplicates = 3\nseed = 9\n"
    )
    raw = parse_config_file(str(cfg))
    assert raw["k"] == "0.2, 0.8"
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario I\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_config_file(str(bad))


def test_simulate_with_config_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scenario = I\nk = 0.8\nn = 50\nmethods = mifs:1\n"
        "replicates = 4\nseed = 11\n"
    )
    out_csv = tmp_path / "res.csv"
    code, out = run(capsys, "simulate", "--config", str(cfg),
                    "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "scenario,k,n,method,beta,frequency,replicates,seed"
    assert lines[1].startswith("I,0.8,50,mifs,1,")
    assert "frequency" in out

    # same seed, same bytes
    out_csv2 = tmp_path / "res2.csv"
    run(capsys, "simulate", "--config", str(cfg), "--out", str(out_csv2))
    assert out_csv.read_bytes() == out_csv2.read_bytes()

    # flag overrides the file value
    out_csv3 = tmp_path / "res3.csv"
    code, _ = run(capsys, "simulate", "--config", str(cfg), "--out",
                  str(out_csv3), "--replicates", "2")
    assert ",2," in out_csv3.read_text().splitlines()[1]


def test_simulate_traces_json(tmp_path, capsys):
    import json

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scenario = I\nk = 0.8\nn = 50\nmethods = mrmr\nreplicates = 3\nseed = 2\n"
    )
    traces = tmp_path / "traces.json"
    code, _ = run(capsys, "simulate", "--config", str(cfg),
                  "--out", str(tmp_path / "r.csv"), "--traces", str(traces))
    assert code == 0
    doc = json.loads(traces.read_text())
    assert doc["seed"] == 2
    cell = doc["cells"][0]
    assert cell["method"] == "mrmr" and len(cell["replicates"]) == 3
    assert all(r["selected"][0] for r in cell["replicates"])


def test_simulate_summary_counts_degenerate_replicates(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ("simulate", "--k", "0.2", "--n", "50", "--replicates", "4",
            "--methods", "mifs:1,mrmr")
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0].endswith(" 4 replicates)")

    def every_other_constant(spec, n, rng):
        sample = generate_sample(spec, n, rng)
        every_other_constant.calls += 1
        if every_other_constant.calls % 2:
            features = sample.features.copy()
            features[:, 2] = 1.0
            return Sample(features, sample.labels)
        return sample

    every_other_constant.calls = 0
    monkeypatch.setattr(simlab, "generate_sample", every_other_constant)
    code, out = run(capsys, *argv)
    assert code == 0
    summary = out.splitlines()[:2]
    assert all(line.endswith(" 4 replicates, 2 degenerate)") for line in summary), summary


def test_relevance_report(tmp_path, capsys):
    joint = duplicated_features_example()
    path = tmp_path / "joint.json"
    path.write_text(joint.to_json())
    code, out = run(capsys, "relevance", "--joint", str(path))
    assert code == 0
    assert "SR: V1" in out
    assert "Relevance-optimal sets: {V1,V2} {V1,V3}" in out
    assert "Markov blanket filter: {V1,V2}" in out


def test_relevance_bad_file(tmp_path, capsys):
    cases = {
        "missing": None,
        "nan-mass": '{"arities":[2,2],"probs":[0.5,NaN,0.25,0.25],"class_index":1}',
        "text-class-index": '{"arities":[2,2],"probs":[0.25,0.25,0.25,0.25],"class_index":"x"}',
        "float-class-index": '{"arities":[2,2],"probs":[0.25,0.25,0.25,0.25],"class_index":1.0}',
        "bool-class-index": '{"arities":[2,2],"probs":[0.25,0.25,0.25,0.25],"class_index":true}',
        "top-level-list": "[1, 2]",
        "top-level-probs-list": "[0.5, 0.5]",
        "top-level-string": '"table"',
        "malformed-arities": '{"arities":2,"probs":[0.5,0.5]}',
        "negative-arity": '{"arities":[-1,2],"probs":[0.25,0.25,0.25,0.25]}',
        "float-arity": '{"arities":[2.5,2],"probs":[0.25,0.25,0.25,0.25]}',
        "bool-arity": '{"arities":[true,2,2],"probs":[0.25,0.25,0.25,0.25]}',
        "text-arity": '{"arities":["2",2],"probs":[0.25,0.25,0.25,0.25]}',
        "empty-arities": '{"arities":[],"probs":[1.0]}',
        "missing-probs": '{"arities":[2,2]}',
        "nested-probs": '{"arities":[2,2],"probs":[[0.25,0.25],[0.25,0.25]]}',
        "ragged-probs": '{"arities":[2,2],"probs":[[0.25,0.25],[0.5]]}',
        "text-prob": '{"arities":[2,2],"probs":[0.25,"0.25",0.25,0.25]}',
        "null-prob": '{"arities":[2,2],"probs":[0.25,null,0.25,0.25]}',
        "bool-probs": '{"arities":[2,2],"probs":[true,false,false,true]}',
        "bool-mixed-probs": '{"arities":[2,2],"probs":[0.5,false,false,0.5]}',
        "short-probs": '{"arities":[2,2],"probs":[0.5,0.5]}',
        "long-probs": '{"arities":[2,2],"probs":[0.2,0.2,0.2,0.2,0.2]}',
        "overflowing-mass": '{"arities":[2,2],"probs":[1e308,1e308,0,0]}',
    }
    for label, text in cases.items():
        path = tmp_path / f"{label}.json"
        if text is not None:
            path.write_text(text)
        line = run_error(capsys, "relevance", "--joint", str(path))
        assert line.startswith(f"error: cannot load joint {path}: "), label


def test_relevance_rejects_too_many_features_before_analysis(tmp_path, monkeypatch,
                                                            capsys):
    def analysis(*args, **kwargs):
        raise AssertionError("analysis ran before the feature bound was checked")

    for name in ("markov_blanket_filter", "partition", "relevance_optimal_sets"):
        monkeypatch.setattr(LabeledJoint, name, analysis)
    path = tmp_path / "wide.json"
    path.write_text(LabeledJoint.from_dense(np.full((2,) * 14, 2.0**-14)).to_json())
    line = run_error(capsys, "relevance", "--joint", str(path))
    assert line == (
        f"error: joint {path}: 13 features exceed the exhaustive-search bound of 12"
    )


def test_verify_passes(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 6
    assert all(l.startswith("PASS") for l in lines)
