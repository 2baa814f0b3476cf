"""Command-line interface: subcommand behavior, exit codes and the
round-trip of the echoed configuration."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gumbeltail import cli, engine
from gumbeltail.cli import DEFAULT_SEED, build_parser, dispatch
from gumbeltail.errors import GumbelTailError
from gumbeltail.estimators import SortedSample

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
    for spec in ("logpow:abc", "fixed:2.5"):
        code, out, err = run(capsys, ["estimate", "--k-policy", spec, grid_file])
        assert (code, out, err) == (1, "", f"error: cannot parse k-policy spec: '{spec}'\n")
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
    ["ks", "--model", "normal", "--n", "4", "--log-scale"],
    ["simulate", "--model", "normal", "--n", "10", "--k", "5", "--log-scale"],
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


@pytest.mark.parametrize("argv", [
    # k/n = 1/2 puts the log-scale aux at Q(1/2) = 0, a division by zero
    ["ks", "--model", "normal", "--n", "4", "--log-scale"],
    ["simulate", "--model", "normal", "--n", "10", "--k", "5", "--log-scale"],
    # m / n underflows to 0, so Q(1 - 1/n) is inf and b_n inf or nan
    ["norming", "--model", "iterlog(3)", "--n", str(10**280)],
    ["norming", "--model", "iterlog(3)", "--n", str(10**300), "--k-policy", "logpow:1",
     "--format", "json"],
])
def test_degenerate_norming_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(
    ell=st.floats(allow_nan=True, allow_infinity=True),
    depth=st.integers(),
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    stream=st.integers(min_value=-(2**70), max_value=2**70),
    # norming only: it allocates nothing, whatever the size
    n=st.integers(max_value=2**1100),
)
def test_dispatch_exits_with_a_code_on_random_input(ell, depth, seed, stream, n):
    argvs = [
        NORMING + ["--k-policy", f"logpow:{ell!r}"],
        ["norming", "--model", f"iterlog({depth})", "--n", "10000"],
        ["norming", "--model", "normal", "--n", str(n)],
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
BAD_WORDS = st.sampled_from(["nan", "inf", "-inf", "", "   ", "1e400", "abc", "1,5"])
BAD_LINES = st.one_of(BAD_WORDS, st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
ASCII_BAD_LINES = st.one_of(BAD_WORDS, st.text(st.characters(max_codepoint=127), max_size=6))


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


def _reference_read(path):
    """The per-line float() reader that numpy's C parser replaced, with the
    two documented differences: numpy rejects Python-literal underscores
    ("1_000"), and it strips the ASCII separators \\x1c-\\x1f around a number
    as str.strip() does, where float() rejects them."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            if "_" in line:
                raise GumbelTailError("non-numeric line")
            try:
                values.append(float(line.strip()))
            except ValueError:
                raise GumbelTailError("non-numeric line") from None
    if len(values) < 2:
        raise GumbelTailError("fewer than two values")
    return SortedSample.from_values(values)


def _read_outcome(reader, path):
    """("ok", the sorted values' bits) or ("non-numeric" | "other", None)."""
    try:
        sample = reader(path)
    except GumbelTailError as exc:
        return ("non-numeric" if "non-numeric line" in str(exc) else "other"), None
    return "ok", sample.values.view(np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(values=VALUE_LINES, extra=st.lists(ASCII_BAD_LINES, max_size=2),
       at=st.integers(min_value=0, max_value=300), newline=st.sampled_from(["\n", "\r\n", "\r"]),
       trailing=st.booleans())
@example(values=["1.5", "-0.0", "0.0", "2.5"], extra=["1_000"], at=2, newline="\n", trailing=True)
@example(values=["1.5", "2.5"], extra=["\x1c3\x1f", " "], at=1, newline="\r", trailing=False)
@example(values=["1.5", "2.5"], extra=["3 4"], at=0, newline="\r\n", trailing=True)
@example(values=[], extra=["1 2", "3 4"], at=0, newline="\n", trailing=True)
@example(values=["1.5"], extra=["\v", "\t"], at=1, newline="\n", trailing=False)
def test_sample_reader_agrees_with_per_line_float(values, extra, at, newline, trailing):
    """The reader and float() of each line accept and reject the same ASCII
    files, and the accepted samples agree bit for bit."""
    lines = values[:at] + extra + values[at:]
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(newline.join(lines) + (newline if trailing else ""))
        assert _read_outcome(cli._read_sample, path) == _read_outcome(_reference_read, path)
    finally:
        os.remove(path)


# each file exits 2 from both file commands with one error line and no warning
@pytest.mark.parametrize("content,message", [
    ("1\n2\n1_000\n", "non-numeric line"),
    ("1\n2\n\u0661\u0662\n", "non-numeric line"),
    ("1 2\n", "non-numeric line"),
    ("1\v2\n", "non-numeric line"),
    ("", "fewer than two values"),
    (" \n\t\n  \r\n", "fewer than two values"),
], ids=["underscore", "arabic-indic-digits", "two-fields", "vertical-tab", "empty",
        "whitespace-only"])
@pytest.mark.parametrize("command", ["estimate", "test"])
def test_sample_file_edges_exit_2(capsys, tmp_path, command, content, message):
    path = tmp_path / "sample.txt"
    path.write_bytes(content.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [command, str(path)])
    assert (code, out, caught) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert message in err


def test_non_numeric_message_names_the_row(capsys, tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("\n".join([str(v) for v in range(1, 201)] + ["twelve"]))
    code, out, err = run(capsys, ["estimate", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: non-numeric line 201 in {path}: 'twelve'\n"


# blank lines count toward the line number; the text is the stripped line
@pytest.mark.parametrize("content,line", [
    ("1\n2\n\n\n3\nabc\n4", "6: 'abc'"),
    ("1\n2 3\n4\n5", "2: '2 3'"),
    ("1 2\n3 4\n", "1: '1 2'"),
    ("1\r2\r\r x \r", "4: 'x'"),
], ids=["after-blank-lines", "two-fields-once", "two-fields-throughout", "cr-newlines"])
def test_non_numeric_message_names_the_file_line(capsys, tmp_path, content, line):
    path = tmp_path / "sample.txt"
    path.write_bytes(content.encode("ascii"))
    number, text = line.split(": ")
    code, out, err = run(capsys, ["estimate", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: non-numeric line {number} in {path}: {text}\n"


def test_unseekable_sample_keeps_numpy_message(capsys, tmp_path):
    # a pipe cannot be read a second time to find the bad line
    fifo = tmp_path / "sample.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("1\n2\nabc\n",), daemon=True)
    writer.start()
    code, out, err = run(capsys, ["estimate", str(fifo)])
    writer.join(timeout=10)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: non-numeric line in {fifo}: could not convert string 'abc'")


def test_invalid_utf8_keeps_the_decoder_message(capsys, tmp_path):
    path = tmp_path / "sample.txt"
    path.write_bytes(b"1\n2\n\xff\n")
    code, out, err = run(capsys, ["estimate", str(path)])
    assert (code, out) == (2, "")
    assert err == (f"error: non-numeric line in {path}: 'utf-8' codec can't decode byte 0xff "
                   "in position 4: invalid start byte\n")


def test_sample_file_is_opened_as_text_by_the_cli(capsys, monkeypatch, grid_file, tmp_path):
    """numpy never opens the path: a file named *.gz is read as plain text,
    and the open the CLI module looks up sees the call."""
    gz = tmp_path / "sample.gz"
    shutil.copyfile(grid_file, gz)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, out, err = run(capsys, ["estimate", "--k", "31", str(gz)])
    assert (code, err, opened) == (0, "", [str(gz)])
    code, expected, _ = run(capsys, ["estimate", "--k", "31", grid_file])
    assert out.splitlines()[1:] == expected.splitlines()[1:]


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


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state_between_calls(capsys, tmp_path):
    code, _, _ = run(capsys, [
        "ks", "--model", "pareto", "--log-scale", "--n", "1000", "--reps", "20",
        "--seed", "9", "--threshold", "0.5", "--out", str(tmp_path / "ks.json"),
        "--format", "json",
    ])
    assert code == 0
    assert run(capsys, ["simulate", "--bogus"])[0] == 1
    assert run(capsys, ["--help"])[0] == 0
    for argv in (["ks", "--model", "exp-of-log", "--n", "1000"],
                 ["simulate", "--model", "normal", "--n", "1000"]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        config = json.loads(out.splitlines()[0].split("config:", 1)[1])
        assert config["reps"] == 200
        assert config["seed"] == DEFAULT_SEED == 42
        assert config["log_scale"] is False
        assert "threshold" not in config and "out" not in config


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "normal", "--n", "1000", "--reps", "3", "--format", "csv"],
    ["norming", "--model", "normal", "--n", "10000"],
    ["table", "--n-total", "200"],
], ids=["simulate-csv", "norming", "table"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, target):
    out = tmp_path / "missing" / "x" if target == "missing-dir" else tmp_path
    code, _, err = run(capsys, argv + ["--out", str(out)])
    assert code == 1
    assert "error" in err and "cannot write" in err


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0", "-1"])
def test_ks_rejects_bad_threshold(capsys, threshold):
    code, out, err = run(capsys, [
        "ks", "--model", "exp-of-log", "--n", "1000", "--reps", "20",
        f"--threshold={threshold}", "--format", "json",
    ])
    assert code == 2
    assert "error" in err and not out


@pytest.fixture
def exp_file(tmp_path):
    u = np.arange(1, 401) / 401.0
    path = tmp_path / "exp.txt"
    path.write_text("\n".join(repr(float(v)) for v in -np.log(1.0 - u)), encoding="utf-8")
    return str(path)


def _echo(out: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(out)["config"]
    first = out.splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


# the exact echoed config, key order included; "<grid>" and "<exp>" stand
# for the input paths
GOLDEN_ECHOES = [
    (["estimate", "--k", "31", "<grid>"],
     {"command": "estimate", "k_policy": "fixed:31", "log_scale": False, "format": "text",
      "path": "<grid>"}),
    (["test", "--k-policy", "logpow:2.0", "--format", "json", "<exp>"],
     {"command": "test", "k_policy": "logpow:2", "log_scale": False, "format": "json",
      "path": "<exp>"}),
    (["norming", "--model", "normal", "--n", "10000"],
     {"command": "norming", "model": "normal", "n": 10000, "k_policy": "sqrt",
      "log_scale": False, "format": "text"}),
    (["simulate", "--model", "pareto", "--log-scale", "--n", "1000", "--reps", "3",
      "--seed", "9", "--stream", "2", "--k", "20", "--format", "json"],
     {"command": "simulate", "model": "pareto", "n": 1000, "k_policy": "fixed:20", "reps": 3,
      "seed": 9, "stream": 2, "log_scale": True, "format": "json"}),
    (["simulate", "--model", "normal", "--n", "1000", "--reps", "3", "--format", "csv"],
     {"command": "simulate", "model": "normal", "n": 1000, "k_policy": "sqrt", "reps": 3,
      "seed": 42, "stream": 0, "log_scale": False, "format": "csv"}),
    (["ks", "--model", "exp-of-log", "--n", "1000", "--reps", "20", "--threshold", "0.5"],
     {"command": "ks", "model": "exp-of-log", "n": 1000, "k_policy": "sqrt", "reps": 20,
      "seed": 42, "stream": 0, "log_scale": False, "format": "text", "threshold": 0.5}),
    (["table", "--n-total", "200", "--format", "json"],
     {"command": "table", "seed": 42, "stream": 0, "log_scale": False, "format": "json",
      "n_total": 200}),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_ECHOES,
                         ids=["estimate", "test", "norming", "simulate", "simulate-csv", "ks",
                              "table"])
def test_config_echo_is_pinned(capsys, grid_file, exp_file, argv, expected):
    paths = {"<grid>": grid_file, "<exp>": exp_file}
    argv = [paths.get(arg, arg) for arg in argv]
    expected = {key: paths.get(value, value) for key, value in expected.items()}
    code, out, err = run(capsys, argv)
    assert code == 0 and not err
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    assert list(_echo(out, fmt).items()) == list(expected.items())


def test_config_echo_names_the_out_file(capsys, tmp_path):
    out_path = tmp_path / "reps.csv"
    code, out, _ = run(capsys, ["simulate", "--model", "normal", "--n", "1000", "--reps", "2",
                                "--format", "csv", "--out", str(out_path)])
    assert code == 0 and not out
    text = out_path.read_bytes().decode("utf-8")
    assert list(_echo(text, "csv").items())[-2:] == [("format", "csv"), ("out", str(out_path))]
    # csv rows keep their \r\n endings and nothing follows the last one
    assert text.split("\n", 1)[1].startswith("replicate,t_n,normalized\r\n")
    assert text.endswith("\r\n") and not text.endswith("\r\n\n")


def test_ks_rejects_bad_threshold_before_drawing(capsys, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("replicates drawn before the threshold was checked")

    monkeypatch.setattr(engine, "run_replicates", no_draws)
    code, out, err = run(capsys, [
        "ks", "--model", "exp-of-log", "--n", "1000000", "--reps", "50", "--threshold=nan",
    ])
    assert code == 2
    assert "threshold" in err and not out


# numpy refuses n = 1e20 before allocating anything; n = 1e15 (7 PiB) passes
# numpy's size check and fails in malloc at once, as a MemoryError
@pytest.mark.parametrize("argv,n", [
    (["simulate", "--model", "normal", "--n", "<n>", "--reps", "1"], 10**20),
    (["table", "--n-total", "<n>"], 10**20),
    (["simulate", "--model", "normal", "--n", "<n>", "--reps", "1"], 10**15),
    (["ks", "--model", "normal", "--n", "<n>", "--reps", "1"], 10**15),
    (["table", "--n-total", "<n>"], 10**15),
], ids=["simulate", "table", "simulate-malloc", "ks-malloc", "table-malloc"])
def test_too_large_n_is_domain_error(capsys, argv, n):
    code, out, err = run(capsys, [str(n) if arg == "<n>" else arg for arg in argv])
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"n={n}" in err


# the raw draw of n = 2e7 (153 MiB) fits under an address-space cap of 400 MiB
# above the interpreter's size at import; the table's transforms of it do not
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_out_of_memory_past_the_raw_draw_is_domain_error():
    proc = _fresh_python(
        "import resource, sys\n"
        "from gumbeltail import cli\n"
        "with open('/proc/self/status') as fh:\n"
        "    size = next(int(line.split()[1]) << 10 for line in fh if line.startswith('VmSize:'))\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (400 << 20), hard))\n"
        "sys.exit(cli.dispatch(['table', '--n-total', '20000000']))\n",
        returncode=2,
    )
    assert not proc.stdout
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1


# an n above the largest float cannot enter the float arithmetic of norming
@pytest.mark.parametrize("argv", [
    ["norming", "--model", "normal", "--n", str(10**400)],
    ["norming", "--model", "normal", "--n", str(10**400), "--k-policy", "logpow:2"],
    ["norming", "--model", "normal", "--n", str(10**400), "--k", "5"],
    ["simulate", "--model", "normal", "--n", str(10**400), "--reps", "1"],
    ["ks", "--model", "normal", "--n", str(10**400), "--reps", "1"],
], ids=["norming-sqrt", "norming-logpow", "norming-fixed-k", "simulate", "ks"])
def test_n_beyond_float_range_is_domain_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "beyond the float range" in err


def test_lambda_probe_beyond_float_range_is_none(capsys):
    code, out, _ = run(capsys, ["norming", "--model", "normal", "--n", str(10**306),
                                "--format", "json"])
    assert code == 0
    probe = json.loads(out)["lambda_probe"]
    assert list(probe) == [str(10**e) for e in (306, 307, 308, 309)]
    assert probe[str(10**309)] is None
    assert all(value is not None for key, value in probe.items() if key != str(10**309))


def test_norming_sqrt_k_is_exact_above_2_to_52(capsys):
    code, out, _ = run(capsys, ["norming", "--model", "normal", "--n", str(10**306),
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["k"] == 10**153


# ---------------------------------------------------------------------------
# cold start: scipy is imported by the code that uses it, not by the CLI

def _fresh_python(code, returncode=0):
    """Run code in a new interpreter that imports this gumbeltail."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_estimate_and_table_do_not_import_scipy(grid_file):
    proc = _fresh_python(
        "import contextlib, io, sys\n"
        "from gumbeltail import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.dispatch(['estimate', {grid_file!r}]),\n"
        "             cli.dispatch(['table', '--n-total', '200'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert proc.stdout == "[0, 0] []\n"


def test_quadrature_route_imports_scipy_integrate_on_first_use(capsys):
    argv = ["norming", "--model", "log-normal", "--n", "10000", "--format", "json"]
    proc = _fresh_python(
        "import sys\n"
        "from gumbeltail import cli\n"
        "before = 'scipy.integrate' in sys.modules\n"
        f"code = cli.dispatch({argv!r})\n"
        "print(code, before, 'scipy.integrate' in sys.modules, file=sys.stderr)\n"
    )
    assert proc.stderr == "0 False True\n"
    code, out, _ = run(capsys, argv)
    assert code == 0 and proc.stdout == out


# full stdout of two log-scale runs; the log transform is applied by the
# CLI, and these bytes must not depend on where
PINNED_LOG_SCALE = [
    (["simulate", "--model", "pareto", "--log-scale", "--n", "1000", "--reps", "5", "--seed", "9",
      "--format", "csv"],
     '# config: {"command": "simulate", "model": "pareto", "n": 1000, "k_policy": "sqrt", '
     '"reps": 5, "seed": 9, "stream": 0, "log_scale": true, "format": "csv"}\n'
     "replicate,t_n,normalized\r\n"
     "0,1.3525996749996108,1.2108227722194673\r\n"
     "1,1.1758869596520853,0.6039935688636883\r\n"
     "2,1.3118458328275027,1.0708745996708646\r\n"
     "3,1.3379876689707297,1.1606453304858726\r\n"
     "4,0.9673258287006542,-0.11220268615588254\r\n"),
    (["ks", "--model", "normal", "--log-scale", "--n", "1000", "--reps", "50", "--seed", "1",
      "--format", "json"],
     json.dumps({
         "schema": 1,
         "config": {"command": "ks", "model": "normal", "n": 1000, "k_policy": "sqrt",
                    "reps": 50, "seed": 1, "stream": 0, "log_scale": True, "format": "json"},
         "summary": {"schema": 1, "model": "log(normal)", "n": 1000, "k": 31, "reps": 50,
                     "a_n": 0.2084566623234567, "b_n": 2.025819539077026,
                     "lambda": 0.42978357055645217, "mean_t": 0.12993888150630192,
                     "median_t": 0.12825965328517835, "mean_normalized": 0.11471390074838242,
                     "ks": 0.17753667098045312, "ks_threshold": 0.19233304448274094,
                     "pass": True, "scale_lambda": 0.42978357055645217},
     }, indent=2) + "\n"),
]


@pytest.mark.parametrize("argv,expected", PINNED_LOG_SCALE, ids=["simulate-csv", "ks-json"])
def test_log_scale_output_is_pinned(capsys, argv, expected):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == expected
