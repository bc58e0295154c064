import errno
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import miselect
from miselect import cli, reference, simlab
from miselect.cli import main, parse_config_file
from miselect.estimation import Sample
from miselect.oracle import FeatureId as V, Scenario, ScenarioSpec
from miselect.relevance import LabeledJoint, duplicated_features_example
from miselect.selection import Method, MethodSpec
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


def test_oracle_k_defaults_to_0_2(capsys):
    assert run(capsys, "oracle") == run(capsys, "oracle", "--k", "0.2")


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
    # exabytes, beyond any address space, so the allocation fails at once
    pytest.param(("simulate", "--n", str(10**17), "--replicates", "1"),
                 "simulated sample: Unable to allocate 2.78 EiB for an array with shape "
                 "(4, 100000000000000000) and data type float64", id="simulate-n-unallocatable"),
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
    misspelt = tmp_path / "misspelt.cfg"
    misspelt.write_text("k = 0.2\nreplicate = 3\n")
    with pytest.raises(ValueError, match="misspelt.cfg:2: unknown key 'replicate'"):
        parse_config_file(str(misspelt))
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("k = 0.2\nn = 50\nK = 0.8\n")
    with pytest.raises(ValueError, match="repeated.cfg:3: key 'k' given twice"):
        parse_config_file(str(repeated))
    hashes = tmp_path / "hashes.cfg"  # only a line starting with '#' is a comment
    hashes.write_text("  # indented comment\nout = run#1.csv\nk = 0.2 # x\n")
    assert parse_config_file(str(hashes)) == {"out": "run#1.csv", "k": "0.2 # x"}


def test_simulate_keeps_a_hash_inside_a_config_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# whole-line comment\nn = 50\nreplicates = 2\nout = run#1.csv\n")
    code, out = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0 and out.splitlines()[-1].startswith("wrote run#1.csv in ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "run#1.csv"]
    cfg.write_text("n = 50\nreplicates = 2\nk = 0.2 # x\n")
    line = run_error(capsys, "simulate", "--config", str(cfg))
    assert line == "error: k: could not convert string to float: '0.2 # x'"


def test_simulate_refuses_an_unknown_config_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a run would write experiment.csv here
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 50\nreplicate = 3\n")
    line = run_error(capsys, "simulate", "--config", str(cfg))
    assert line == (f"error: {cfg}:2: unknown key 'replicate'; expected one of "
                    "scenario, k, n, methods, replicates, seed, delta, a, b, d, out")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("make, reason", [
    pytest.param(lambda path: path.mkdir(), "Is a directory", id="directory"),
    pytest.param(lambda path: None, "No such file or directory", id="missing"),
    pytest.param(lambda path: path.write_bytes(b"n = 50\nreplicates = 2\xff\n"),
                 "'utf-8' codec can't decode byte 0xff in position 21: invalid start byte",
                 id="non-utf8"),
])
def test_unreadable_config_is_named_in_one_error_line(tmp_path, monkeypatch, capsys,
                                                      make, reason):
    monkeypatch.chdir(tmp_path)  # a run would write experiment.csv here
    cfg = tmp_path / "exp.cfg"
    make(cfg)
    before = sorted(tmp_path.iterdir())
    line = run_error(capsys, "simulate", "--config", str(cfg))
    assert line == f"error: cannot read config {cfg}: {reason}"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, name", [
    pytest.param(("order", "--k", "0.2", "--method", "mrmr", "--trace"), "x.tsv",
                 id="order-trace"),
    pytest.param(("simulate", "--n", "50", "--replicates", "2", "--out"), "o.csv",
                 id="simulate-out"),
    pytest.param(("simulate", "--n", "50", "--replicates", "2", "--out", "o.csv",
                  "--traces"), "t.json", id="simulate-traces"),
])
def test_unwritable_output_path_ends_in_one_error_line(tmp_path, monkeypatch, capsys,
                                                       argv, name):
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / "missing" / name)
    line = run_error(capsys, *argv, path)
    assert line == f"error: cannot write {path}: No such file or directory"
    assert list(tmp_path.iterdir()) == []  # simulate wrote no o.csv


def test_simulate_checks_outputs_before_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def run_experiment(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_experiment", run_experiment)
        traces = str(tmp_path / "nonexistent" / "t.json")
        line = run_error(capsys, "simulate", "--n", "2000", "--replicates", "50",
                         "--out", "o.csv", "--traces", traces)
        assert line == f"error: cannot write {traces}: No such file or directory"
    (tmp_path / "t.json").mkdir()  # its directory exists, but it cannot be opened
    line = run_error(capsys, "simulate", "--n", "50", "--replicates", "2",
                     "--out", "o.csv", "--traces", "t.json")
    assert line == "error: cannot write t.json: Is a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


@pytest.mark.parametrize("argv, line", [
    pytest.param(("simulate", "--n", "50", "--replicates", "2", "--out", "d"),
                 "error: cannot write d: Is a directory", id="simulate-out-directory"),
    pytest.param(("simulate", "--n", "50", "--replicates", "2", "--out", ""),
                 "error: cannot write : No such file or directory", id="simulate-out-empty"),
    pytest.param(("order", "--k", "0.2", "--method", "mrmr", "--trace", "d"),
                 "error: cannot write d: Is a directory", id="order-trace-directory"),
    pytest.param(("order", "--k", "0.2", "--method", "mrmr", "--trace", ""),
                 "error: cannot write : No such file or directory", id="order-trace-empty"),
    pytest.param(("simulate", "--n", "50", "--replicates", "2", "--traces", ""),
                 "error: cannot write : No such file or directory", id="simulate-traces-empty"),
    pytest.param(("simulate", "--n", "50", "--replicates", "2", "--out", "x",
                  "--traces", "./x"),
                 "error: cannot write ./x: given twice", id="simulate-same-file-twice"),
    pytest.param(("simulate", "--n", "50", "--replicates", "2", "--out", "x.part",
                  "--traces", "x"),
                 "error: cannot write x: its part file x.part is another output",
                 id="simulate-traces-part-is-out"),
    pytest.param(("simulate", "--n", "50", "--replicates", "2", "--out", "x",
                  "--traces", "./x.part"),
                 "error: cannot write x: its part file x.part is another output",
                 id="simulate-out-part-is-traces"),
])
def test_bad_output_path_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                    argv, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "kept.txt").write_text("kept\n")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(cli, "select_all", no_work)
    before = sorted(tmp_path.rglob("*"))
    assert run_error(capsys, *argv) == line
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "d" / "kept.txt").read_text() == "kept\n"


@pytest.mark.parametrize("writer, path", [("emit_csv", "o.csv"),
                                          ("_write_traces_json", "t.json")])
def test_a_failed_output_leaves_every_output_as_it_was(tmp_path, monkeypatch, capsys,
                                                       experiment_configs, writer, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.csv").write_text("old csv\n")
    (tmp_path / "t.json").write_text('{"old": 1}\n')

    def fail(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, writer, fail)
    line = run_error(capsys, "simulate", "--out", "o.csv", "--traces", "t.json")
    assert line == f"error: cannot write {path}: {os.strerror(errno.ENOSPC)}"
    assert (tmp_path / "o.csv").read_text() == "old csv\n"
    assert (tmp_path / "t.json").read_text() == '{"old": 1}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "t.json"]


def test_an_output_that_raises_leaves_no_part_behind(tmp_path, monkeypatch,
                                                      experiment_configs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.json").write_text('{"old": 1}\n')

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_write_traces_json", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--out", "o.csv", "--traces", "t.json"])
    assert (tmp_path / "t.json").read_text() == '{"old": 1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


def test_an_output_that_is_a_device_is_written_directly(tmp_path, monkeypatch, capsys,
                                                         experiment_configs):
    monkeypatch.chdir(tmp_path)
    replace = os.replace

    def replace_no_device(src, dst):  # so that a fault cannot replace the null device
        assert os.path.realpath(dst) != os.path.realpath(os.devnull), (src, dst)
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace_no_device)
    code, _ = run(capsys, "simulate", "--out", os.devnull, "--traces", "t.json")
    assert code == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert not os.path.lexists(os.devnull + ".part")
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


def test_outputs_keep_the_mode_and_the_link_open_gives_them(tmp_path, monkeypatch, capsys,
                                                             experiment_configs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.csv").write_text("old csv\n")
    os.chmod(tmp_path / "o.csv", 0o640)
    (tmp_path / "runs").mkdir()
    (tmp_path / "t.json").symlink_to(tmp_path / "runs" / "t1.json")  # not there yet
    code, _ = run(capsys, "simulate", "--out", "o.csv", "--traces", "t.json")
    assert code == 0
    assert (tmp_path / "o.csv").read_text().startswith("scenario,")
    assert stat.S_IMODE(os.stat(tmp_path / "o.csv").st_mode) == 0o640
    assert (tmp_path / "t.json").is_symlink()
    assert (tmp_path / "runs" / "t1.json").read_text().startswith("{")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(os.stat(tmp_path / "t.json").st_mode) == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "runs", "t.json"]
    assert [p.name for p in (tmp_path / "runs").iterdir()] == ["t1.json"]


@pytest.fixture
def experiment_configs(monkeypatch):
    """The ExperimentConfig of each simulate run; the run itself yields no cells."""
    configs = []

    def run_experiment(config, keep_traces=False):
        configs.append(config)
        return simlab.ExperimentResult(config, [])

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    return configs


# a value other than its default for each simulate setting
SIMULATE_VALUES = {"scenario": "II", "k": "0.3,0.6", "n": "60,70", "methods": "mrmr,nmifs",
                   "replicates": "7", "seed": "5", "delta": "0.25", "a": "2", "b": "0.5",
                   "d": "3", "out": "custom.csv"}


def test_simulate_reads_each_setting_from_its_flag_or_its_config_line(
        tmp_path, monkeypatch, capsys, experiment_configs):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"

    def simulate(*argv):
        code, out = run(capsys, "simulate", *argv)
        assert code == 0
        path = out.splitlines()[-1].split()[1]  # wrote <path> in ...
        assert (tmp_path / path).read_text().startswith("scenario,")
        return experiment_configs[-1], path

    assert list(SIMULATE_VALUES) == list(cli.SIMULATE_SETTINGS)
    default = simulate()
    for key, value in SIMULATE_VALUES.items():
        cfg.write_text(f"{key} = {value}\n")
        from_flag = simulate(f"--{key}", value)
        assert simulate("--config", str(cfg)) == from_flag != default, key
    cfg.write_text("replicates = 7\nseed = 5\nout = file.csv\n")
    config, path = simulate("--config", str(cfg), "--replicates", "3", "--out", "flag.csv")
    assert (config.replicates, config.seed, path) == (3, 5, "flag.csv")


def test_acceptance_config_is_the_north_star_run(tmp_path, monkeypatch, capsys,
                                                 experiment_configs):
    monkeypatch.chdir(tmp_path)
    cfg = Path(__file__).resolve().parent.parent / "configs" / "acceptance.cfg"
    code, out = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0 and out.startswith("wrote acceptance_frequencies.csv in ")
    (config,) = experiment_configs
    assert (config.scenario, config.k_values, config.n_values) == (
        Scenario.UNIFORM, (0.2, 0.8), (5000,))
    assert [m.label() for m in config.methods] == [
        "mifs(beta=1)", "mrmr", "maxmifs", "mifs(beta=0)", "mifsu(beta=0)", "nmifs"]
    assert (config.replicates, config.seed) == (100, 20250808)


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


FLAT_4 = "probs must be a flat list of 4 numbers"
CLASS_INDEX = "class index must be an integer in [0, 2), got "
ARITIES = "arities must be one or more positive integers, got "

# label: (file text, the reason after "error: cannot load joint <path>: "),
# each line as the whole-document parser worded it before the list scan
BAD_JOINT_FILES = {
    "missing": (None, "[Errno 2] No such file or directory: '{path}'"),
    "nan-mass": ('{"arities":[2,2],"probs":[0.5,NaN,0.25,0.25],"class_index":1}',
                 "total mass nan is not finite"),
    "text-class-index": ('{"arities":[2,2],"probs":[0.25,0.25,0.25,0.25],"class_index":"x"}',
                         CLASS_INDEX + "'x'"),
    "float-class-index": ('{"arities":[2,2],"probs":[0.25,0.25,0.25,0.25],"class_index":1.0}',
                          CLASS_INDEX + "1.0"),
    "bool-class-index": ('{"arities":[2,2],"probs":[0.25,0.25,0.25,0.25],"class_index":true}',
                         CLASS_INDEX + "True"),
    "top-level-list": ("[1, 2]", "expected a JSON object, got list"),
    "top-level-probs-list": ("[0.5, 0.5]", "expected a JSON object, got list"),
    "top-level-string": ('"table"', "expected a JSON object, got str"),
    "malformed-arities": ('{"arities":2,"probs":[0.5,0.5]}', ARITIES + "2"),
    "negative-arity": ('{"arities":[-1,2],"probs":[0.25,0.25,0.25,0.25]}', ARITIES + "[-1, 2]"),
    "float-arity": ('{"arities":[2.5,2],"probs":[0.25,0.25,0.25,0.25]}', ARITIES + "[2.5, 2]"),
    "bool-arity": ('{"arities":[true,2,2],"probs":[0.25,0.25,0.25,0.25]}',
                   ARITIES + "[True, 2, 2]"),
    "text-arity": ('{"arities":["2",2],"probs":[0.25,0.25,0.25,0.25]}', ARITIES + "['2', 2]"),
    "empty-arities": ('{"arities":[],"probs":[1.0]}', ARITIES + "[]"),
    "missing-probs": ('{"arities":[2,2]}', FLAT_4),
    "nested-probs": ('{"arities":[2,2],"probs":[[0.25,0.25],[0.25,0.25]]}', FLAT_4),
    "ragged-probs": ('{"arities":[2,2],"probs":[[0.25,0.25],[0.5]]}',
                     "setting an array element with a sequence. The requested array has an "
                     "inhomogeneous shape after 1 dimensions. The detected shape was (2,) + "
                     "inhomogeneous part."),
    "text-prob": ('{"arities":[2,2],"probs":[0.25,"0.25",0.25,0.25]}', FLAT_4),
    "null-prob": ('{"arities":[2,2],"probs":[0.25,null,0.25,0.25]}', FLAT_4),
    "bool-probs": ('{"arities":[2,2],"probs":[true,false,false,true]}', FLAT_4),
    "bool-mixed-probs": ('{"arities":[2,2],"probs":[0.5,false,false,0.5]}', FLAT_4),
    "short-probs": ('{"arities":[2,2],"probs":[0.5,0.5]}', FLAT_4),
    "long-probs": ('{"arities":[2,2],"probs":[0.2,0.2,0.2,0.2,0.2]}', FLAT_4),
    "empty-probs": ('{"arities":[1,1],"probs":[]}', "probs must be a flat list of 1 numbers"),
    "overflowing-mass": ('{"arities":[2,2],"probs":[1e308,1e308,0,0]}',
                         "total mass inf is not finite"),
    "trailing-comma": ('{"arities":[2,2],"probs":[0.5, 0.0, 0.0, 0.5,],"class_index":1}',
                       "Expecting value: line 1 column 46 (char 45)"),
    "missing-comma": ('{"arities":[2,2],"probs":[0.5, 0.5, 0.0 0.0],"class_index":1}',
                      "Expecting ',' delimiter: line 1 column 41 (char 40)"),
    "nan-prob": ('{"arities":[2,2],"probs":[0.5, 0.0, NaN, 0.5],"class_index":1}',
                 "total mass nan is not finite"),
    "infinite-prob": ('{"arities":[2,2],"probs":[0.5, 0.0, Infinity, 0.5],"class_index":1}',
                      "total mass inf is not finite"),
    "int-past-uint64": (  # numpy reads 2**64 as an object
        '{"arities":[2,2],"probs":[0.5, 0.0, 18446744073709551616, 0.5],"class_index":1}',
        FLAT_4),
    "duplicate-key": (
        '{"arities":[2,2],"probs":[0.25,0.25,0.25,0.25],"class_index":1,"class_index":0}',
        "duplicate key 'class_index' in a JSON object"),
    "deep-nesting": ("[" * 100000 + "]" * 100000, "JSON nested too deeply"),
}


def test_relevance_bad_file(tmp_path, capsys):
    for label, (text, reason) in BAD_JOINT_FILES.items():
        path = tmp_path / f"{label}.json"
        if text is not None:
            path.write_text(text)
        line = run_error(capsys, "relevance", "--joint", str(path))
        assert line == f"error: cannot load joint {path}: {reason.format(path=path)}", label


def test_python_m_miselect_runs_the_cli(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"arities":[2,2]}')
    src = str(Path(miselect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "miselect", "relevance", "--joint", str(path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot load joint {path}: {FLAT_4}\n"


def test_relevance_reads_the_joint_as_utf8_in_any_locale(tmp_path):
    path = tmp_path / "joint.json"
    path.write_bytes('{"source":"été","arities":[2,2],"probs":[0.5,0,0,0.5],'
                     '"class_index":1}'.encode("utf-8"))
    src = str(Path(miselect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
               PYTHONPATH=os.pathsep.join(
                   [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "miselect", "relevance", "--joint", str(path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "SR: V1"


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


I_02 = (Scenario.UNIFORM, 0.2)


@pytest.mark.parametrize("table, key, value, line", [
    pytest.param(reference.ORDERING_TABLE[I_02], MethodSpec(Method.MRMR),
                 (V.V1, V.V4) + reference.FULL_ORDER[2:],
                 "FAIL ordering-tables: I k=0.2 mrmr step 2: V7 != V4", id="ordering-pick"),
    pytest.param(reference.ORDERING_TABLE[I_02], MethodSpec(Method.QMIFS), (V.V1, V.V2, V.V3),
                 "FAIL ordering-tables: I k=0.2 qmifs: 2 picks, expected 3", id="ordering-length"),
    pytest.param(reference.CLASS_MI_TABLE[I_02], V.V4, 0.0,
                 "FAIL oracle-tables: I k=0.2 V4: expected exact 0", id="oracle-exact-zero"),
])
def test_verify_fails_on_an_edited_reference(monkeypatch, capsys, table, key, value, line):
    monkeypatch.setitem(table, key, value)
    code, out = run(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 6 and line in lines
    assert all(l.startswith("PASS") for l in lines if l != line)
