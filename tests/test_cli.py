"""Command-line interface: subcommand behavior, exit codes and the
round-trip of the echoed configuration."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gumbeltail.cli import DEFAULT_SEED, build_parser, dispatch

GRID_T = 1.0092454329104992
GRID_H = 0.9466319172089102


@pytest.fixture
def grid_file(tmp_path):
    n = 1000
    values = np.log((n + 1) / np.arange(1, n + 1))
    path = tmp_path / "grid.txt"
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_grid_oracles(capsys, grid_file):
    code, out, err = run(capsys, ["estimate", "--k", "31", grid_file])
    assert code == 0 and not err
    fields = dict(line.split() for line in out.splitlines() if " " in line and not line.startswith("#"))
    assert abs(float(fields["T_n"]) - GRID_T) <= 1e-9
    assert abs(float(fields["H_n"]) - GRID_H) <= 1e-6


def test_estimate_json_config_round_trip(capsys, grid_file):
    code, out, _ = run(capsys, ["estimate", "--k", "31", "--format", "json", grid_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    config = doc["config"]
    rebuilt = ["estimate", "--k-policy", config["k_policy"], "--format", config["format"],
               config["path"]]
    code2, out2, _ = run(capsys, rebuilt)
    assert code2 == 0
    assert json.loads(out2)["config"] == config  # flags round-trip


def test_table_columns_identical(capsys):
    code, out, err = run(capsys, ["table", "--seed", "42"])
    assert code == 0 and not err
    rows = [line.split() for line in out.splitlines()[2:]]
    assert len(rows) == 10
    for row in rows:
        assert row[1] == row[2]


def test_table_json_rows(capsys):
    code, out, _ = run(capsys, ["table", "--seed", "42", "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and len(doc["rows"]) == 10
    for row in doc["rows"]:
        assert abs(row["log_n_t2"] - row["half_log_n_t1"]) <= 1e-12


def test_simulate_unknown_model_is_usage_error(capsys):
    code, out, err = run(capsys, ["simulate", "--model", "nosuch", "--n", "1000"])
    assert code == 1
    assert "nosuch" in err


def test_simulate_csv_output(capsys, tmp_path):
    out_path = tmp_path / "reps.csv"
    code, _, _ = run(capsys, [
        "simulate", "--model", "exp-of-log", "--n", "1000", "--reps", "5",
        "--seed", "3", "--format", "csv", "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "replicate,t_n,normalized"
    assert len(lines) == 7
    config = json.loads(lines[0].split("config:", 1)[1])
    assert config["seed"] == 3 and config["reps"] == 5


def test_simulate_json_summary(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--model", "pareto", "--log-scale", "--n", "4000",
        "--reps", "20", "--seed", "1", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["model"] == "log(pareto)"
    assert doc["summary"]["reps"] == 20
    assert 0.5 < doc["summary"]["mean_t"] < 2.0


def test_ks_command(capsys):
    code, out, _ = run(capsys, [
        "ks", "--model", "exp-of-log", "--n", "2000", "--k-policy", "logpow:2",
        "--reps", "200", "--seed", "5", "--format", "json",
    ])
    assert code == 0
    summary = json.loads(out)["summary"]
    assert 0.0 <= summary["ks"] <= 1.0
    assert summary["ks_threshold"] == pytest.approx(1.36 / math.sqrt(200), rel=1e-9)


def test_norming_command(capsys):
    code, out, _ = run(capsys, [
        "norming", "--model", "exp-of-log", "--n", "1000000", "--k", "1000",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["a_n"] == pytest.approx(1.0 / math.log(1000.0), rel=1e-12)
    assert doc["a_n"] * doc["b_n"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert doc["lambda"] == pytest.approx(0.5, abs=1e-12)
    assert doc["lambda_probe"]  # grid of finite-n ratios


def test_test_command(capsys, tmp_path):
    n = 4000
    u = np.arange(1, n + 1) / (n + 1.0)
    path = tmp_path / "exp.txt"
    path.write_text("\n".join(repr(float(v)) for v in -np.log(1.0 - u)), encoding="utf-8")
    code, out, _ = run(capsys, ["test", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"]["chosen"] == "exponential"


def test_usage_errors(capsys, grid_file):
    code, _, err = run(capsys, ["estimate", "--k", "31", "--k-policy", "sqrt", grid_file])
    assert code == 1 and "either" in err
    code, _, err = run(capsys, ["estimate", "--k-policy", "what:1", grid_file])
    assert code == 1
    code, _, err = run(capsys, ["simulate", "--model", "pareto"])  # missing --n
    assert code == 1


def test_domain_error_exit_code(capsys, grid_file):
    # k too deep for the file's thousand values
    code, _, err = run(capsys, ["estimate", "--k", "5000", grid_file])
    assert code == 2 and err


NORMING = ["norming", "--model", "normal", "--n", "10000"]
SIMULATE = ["simulate", "--model", "normal", "--n", "1000", "--reps", "2"]


# "<x>" stands for a file of 200 valid values followed by the line x
@pytest.mark.parametrize("argv", [
    ["norming", "--model", "iterlog(0)", "--n", "10000"],
    ["norming", "--model", "iterlog(-1)", "--n", "10000"],
    ["norming", "--model", "iterlog(4)", "--n", "10000"],
    ["norming", "--model", "iterlog(5)", "--n", "10000"],
    NORMING + ["--k-policy", "logpow:nan"],
    NORMING + ["--k-policy", "logpow:inf"],
    NORMING + ["--k-policy", "logpow:1e400"],
    NORMING + ["--k-policy", "logpow:1000"],
    SIMULATE + ["--seed", "-1"],
    SIMULATE + ["--stream", "-5"],
    ["estimate", "<nan>"],
    ["estimate", "<inf>"],
    ["test", "<nan>"],
    ["test", "<inf>"],
])
def test_malformed_input_exits_with_message(capsys, tmp_path, argv):
    for i, arg in enumerate(argv):
        if arg.startswith("<"):
            path = tmp_path / "sample.txt"
            path.write_text("\n".join([str(v) for v in range(1, 201)] + [arg[1:-1]]))
            argv = argv[:i] + [str(path)] + argv[i + 1:]
    code, _, err = run(capsys, argv)
    assert code in (1, 2)
    assert "error" in err


@settings(max_examples=100, deadline=None)
@given(
    ell=st.floats(allow_nan=True, allow_infinity=True),
    depth=st.integers(),
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    stream=st.integers(min_value=-(2**70), max_value=2**70),
)
def test_dispatch_exits_with_a_code_on_random_input(ell, depth, seed, stream):
    argvs = [
        NORMING + ["--k-policy", f"logpow:{ell!r}"],
        ["norming", "--model", f"iterlog({depth})", "--n", "10000"],
        ["simulate", "--model", "normal", "--n", "50", "--reps", "2",
         "--seed", str(seed), "--stream", str(stream)],
    ]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert dispatch(argv) in (0, 1, 2)


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in JSON output")


EDGE_VALUES = [1.7e308, -1.7e308, 5e-324, -5e-324, 2.2e-308, 0.0, -0.0]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES))
POSITIVE = st.one_of(st.floats(min_value=5e-324, max_value=1.7e308),
                     st.sampled_from([v for v in EDGE_VALUES if v > 0.0]))
# positive files of 100+ lines reach the end of `test`; the rest exercise
# the rejections
VALUE_LINES = st.one_of(
    st.lists(FINITE, max_size=300),
    st.lists(POSITIVE, min_size=100, max_size=300),
).map(lambda xs: [repr(x) for x in xs])
BAD_LINES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "", "   ", "1e400", "abc", "1,5"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@settings(max_examples=60, deadline=None)
@given(values=VALUE_LINES, extra=st.lists(BAD_LINES, max_size=2))
@example(values=["1.7e308"] * 3 + ["-1.7e308"] * 200, extra=[])
def test_file_commands_exit_with_a_code_on_random_content(values, extra):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(values + extra))
        for command in ("estimate", "test"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = dispatch([command, "--format", "json", path])
            assert code in (0, 1, 2)
            if code == 0:
                json.loads(out.getvalue(), parse_constant=_reject_constant)
    finally:
        os.remove(path)


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_default_seed_echoed(capsys):
    code, out, _ = run(capsys, ["table"])
    assert code == 0
    header = json.loads(out.splitlines()[0].split("config:", 1)[1])
    assert header["seed"] == DEFAULT_SEED


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("estimate", "norming", "simulate", "ks", "table", "test"):
        assert name in text
