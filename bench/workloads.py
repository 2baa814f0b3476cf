"""Workload definitions, generated inputs and output checks.

A workload is an endless sequence of cycles; cycle c is a fixed list of
operations, each a ``gumbeltail`` argv run in process through
``gumbeltail.cli.dispatch``. Every input comes from the workload seed: the
CLI gets it as ``--seed`` and the data files are drawn from it. Replicate
operations get distinct ``--stream`` ranges, so no two operations of a run
share a uniform stream. Why each workload exists, which layers it loads and
which it bypasses is written down in WORKLOADS.md next to this file.

Every well-formed operation has an output check. A check that fails, an
unexpected exit code, a NaN or inf where a number is due, or an exception
out of ``dispatch`` makes the operation fail. The malformed-input slice of
``analysis`` expects exit 1 or 2 with a message; it is kept out of the
latency and throughput figures.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gumbeltail import (
    GumbelTailError,
    KPolicy,
    SortedSample,
    classify,
    get_model,
    lambda_ratio,
    norming,
    select_k,
    transform_log,
)

DEFAULT_SEED = 1
MALFORMED = "malformed"


class CheckFailed(Exception):
    """An operation's output disagrees with what the benchmark expects."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _require_finite(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and math.isfinite(value), f"{what} is not a finite number: {value!r}")
    return float(value)


def _close(got: float, want: float, rel: float, what: str) -> None:
    _require(abs(got - want) <= rel * max(abs(want), 1.0), f"{what} = {got!r}, expected {want!r}")


def _all_finite(doc, where: str = "output") -> None:
    """Every float in a parsed JSON document is finite."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            _all_finite(value, f"{where}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _all_finite(value, f"{where}[{i}]")
    elif isinstance(doc, float):
        _require_finite(doc, where)


def _text_summary(out: str) -> tuple[dict, dict]:
    lines = out.splitlines()
    _require(bool(lines) and lines[0].startswith("# config: "), "missing config header")
    body = {}
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        body[key] = value
    return json.loads(lines[0][len("# config: "):]), body


def _echo_matches(config: dict, argv_fields: dict) -> None:
    for key, value in argv_fields.items():
        _require(config.get(key) == value, f"config echo {key}={config.get(key)!r}, expected {value!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Op:
    """One CLI invocation with what it should do and how to check it."""

    cell: str
    argv: tuple
    check: object  # callable(stdout, stderr) raising CheckFailed
    expect_codes: frozenset = frozenset({0})
    command: str = ""
    reps: int = 0
    n: int = 0
    csv: bool = False
    n_total: int = 0
    input_bytes: int = 0
    known_defect: bool = False

    @property
    def well_formed(self) -> bool:
        return self.cell != MALFORMED


# ---------------------------------------------------------------------------
# replicate workloads


@dataclass(frozen=True)
class ReplicateCell:
    name: str
    command: str
    model: str
    n: int
    policy: str
    reps: int
    log_scale: bool = False
    fmt: str = "text"

    def argv(self, seed: int, stream: int) -> tuple:
        argv = [self.command, "--model", self.model, "--n", str(self.n),
                "--k-policy", self.policy, "--reps", str(self.reps),
                "--seed", str(seed), "--stream", str(stream)]
        if self.log_scale:
            argv.append("--log-scale")
        if self.fmt != "text":
            argv += ["--format", self.fmt]
        return tuple(argv)


class _ReplicateExpect:
    """a_n, b_n, k and lambda of a cell from direct models.norming/select_k."""

    def __init__(self, cell: ReplicateCell):
        base = get_model(cell.model)
        self.model = transform_log(base) if cell.log_scale else base
        self.k = select_k(KPolicy.parse(cell.policy), cell.n)
        self.nc = norming(self.model, cell.n, self.k)


def _check_replicate(cell: ReplicateCell, exp: _ReplicateExpect, seed: int, stream: int):
    echo = {"command": cell.command, "model": cell.model, "n": cell.n, "reps": cell.reps,
            "seed": seed, "stream": stream, "k_policy": cell.policy}
    nc = exp.nc

    def check_text(out: str, err: str) -> None:
        config, body = _text_summary(out)
        _echo_matches(config, echo)
        _require(body.get("model") == exp.model.name, f"model {body.get('model')!r}")
        _require(body.get("n") == str(cell.n) and body.get("reps") == str(cell.reps), "n/reps echo")
        _require(body.get("k") == str(exp.k), f"k = {body.get('k')}, expected {exp.k}")
        for key, want in (("a_n", nc.a_n), ("b_n", nc.b_n), ("lambda", nc.lam)):
            _require(body.get(key) == str(want), f"{key} = {body.get(key)}, direct call gives {want!r}")
        for key in ("mean_t", "median_t", "mean_normalized"):
            _require_finite(float(body.get(key, "nan")), key)
        if cell.command == "ks":
            ks = _require_finite(float(body.get("ks", "nan")), "ks")
            threshold = 1.36 / math.sqrt(cell.reps)
            _require(0.0 <= ks <= 1.0, f"ks = {ks} outside [0, 1]")
            _require(body.get("ks_threshold") == str(threshold), "ks_threshold")
            _require(body.get("pass") == str(ks <= threshold), "pass verdict")
            _require(body.get("scale_lambda") == str(nc.lam), "scale_lambda")

    def check_csv(out: str, err: str) -> None:
        lines = out.splitlines()
        _require(len(lines) == cell.reps + 2, f"{len(lines)} csv lines for {cell.reps} replicates")
        _require(lines[0].startswith("# config: "), "missing config header")
        _echo_matches(json.loads(lines[0][len("# config: "):]), echo)
        _require(lines[1] == "replicate,t_n,normalized", f"csv header {lines[1]!r}")
        log_k = math.log(exp.k)
        for i, row in enumerate(lines[2:]):
            index, t_text, z_text = row.split(",")
            _require(int(index) == i, f"replicate index {index} at row {i}")
            t = _require_finite(float(t_text), f"t_n[{i}]")
            z = _require_finite(float(z_text), f"normalized[{i}]")
            spacing = t * log_k
            want = (spacing - nc.a_n * nc.b_n) / nc.a_n
            scale = (abs(spacing) + abs(nc.a_n * nc.b_n)) / nc.a_n + 1.0
            _require(abs(z - want) <= 1e-9 * scale, f"normalized[{i}] = {z}, t_n implies {want}")

    return check_csv if cell.fmt == "csv" else check_text


class ReplicateWorkload:
    """Cycles over replicate cells; operation j of cycle c uses streams
    [(c * cells + j) * reps, ... + reps)."""

    def __init__(self, name: str, cells: list, seed: int, trace_cycles: int):
        self.name = name
        self.cells = cells
        self.seed = seed
        self.trace_cycles = trace_cycles
        self._expect = {cell.name: _ReplicateExpect(cell) for cell in cells}

    def _op(self, cell: ReplicateCell, seed: int, stream: int) -> Op:
        return Op(cell=cell.name, argv=cell.argv(seed, stream),
                  check=_check_replicate(cell, self._expect[cell.name], seed, stream),
                  command=cell.command, reps=cell.reps, n=cell.n, csv=cell.fmt == "csv")

    def cycle(self, c: int) -> list:
        width = len(self.cells)
        return [self._op(cell, self.seed, (c * width + j) * cell.reps)
                for j, cell in enumerate(self.cells)]

    def reference_ops(self) -> list:
        """Each cell at the default seed and stream 0, for the digest check."""
        return [(f"{self.name}/{cell.name}", self._op(cell, DEFAULT_SEED, 0)) for cell in self.cells]

    def close(self) -> None:
        pass


LARGE_N_CELLS = [
    ReplicateCell("ks-exp-of-log", "ks", "exp-of-log", 1_000_000, "logpow:2", reps=6),
]

SMALL_N_CELLS = [
    ReplicateCell("simulate-normal", "simulate", "normal", 1000, "sqrt", reps=100),
    ReplicateCell("simulate-iterlog2", "simulate", "iterlog(2)", 1000, "sqrt", reps=100),
    ReplicateCell("simulate-exponential-csv", "simulate", "exponential", 1000, "sqrt",
                  reps=100, fmt="csv"),
    ReplicateCell("ks-normal-log", "ks", "normal", 1000, "sqrt", reps=100, log_scale=True),
]


# ---------------------------------------------------------------------------
# analysis workload

NORMING_MODELS = ["exp-of-log", "normal", "log-normal", "pareto", "exponential", "gamma-tail",
                  "mason", "iterlog(1)", "iterlog(2)", "iterlog(3)"]
NORMING_SIZES = [10_000, 1_000_000]
NORMING_POLICIES = ["sqrt", "logpow:2"]
FILE_PARENTS = ["exponential", "half-normal", "pareto"]
FILE_SIZES = [10_000, 100_000]
TABLE_N_TOTAL = 4000
_PROBE_FACTORS = (1, 10, 100, 1000)


def _draw_parent(parent: str, n: int, seed: int, index: int) -> np.ndarray:
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7919, index])))
    if parent == "exponential":
        return gen.standard_exponential(n)
    if parent == "half-normal":
        return np.abs(gen.standard_normal(n))
    return 1.0 / (1.0 - gen.random(n))  # unit Pareto, finite since 1 - u > 0


def _write_values(path: Path, lines) -> int:
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _check_norming(model_name: str, n: int, policy_spec: str):
    model = get_model(model_name)
    policy = KPolicy.parse(policy_spec)
    k = select_k(policy, n)
    nc = norming(model, n, k)
    probe = {}
    for factor in _PROBE_FACTORS:
        try:
            probe[str(n * factor)] = lambda_ratio(model, policy, n * factor)
        except GumbelTailError:
            probe[str(n * factor)] = None

    def check(out: str, err: str) -> None:
        doc = json.loads(out)
        _all_finite(doc)
        _echo_matches(doc.get("config", {}), {"command": "norming", "model": model_name, "n": n,
                                              "k_policy": policy.spec()})
        _require(doc.get("schema") == 1, "schema")
        _require(doc.get("n") == n and doc.get("k") == k, f"n/k = {doc.get('n')}/{doc.get('k')}")
        for key, want in (("a_n", nc.a_n), ("b_n", nc.b_n), ("lambda", nc.lam)):
            _require(doc.get(key) == want, f"{key} = {doc.get(key)!r}, direct call gives {want!r}")
        _require(doc.get("lambda_probe") == probe, "lambda_probe differs from direct lambda_ratio")
        a_n, b_n = doc["a_n"], doc["b_n"]
        if model_name == "exp-of-log":
            _close(a_n, 1.0 / math.log(n / k), 1e-12, "exp-of-log a_n vs 1/log(n/k)")
        elif model_name in ("exponential", "gamma-tail"):
            _require(a_n == 1.0, f"exponential a_n = {a_n!r}, expected 1")
            _close(b_n, math.log(k), 1e-12, "exponential b_n vs log k")
        elif model_name == "pareto":
            _close(a_n, n / k, 1e-12, "pareto a_n vs n/k")
            _close(b_n, k - 1.0, 1e-12, "pareto b_n vs k - 1")

    return check


def _check_estimate(path: str, values: np.ndarray):
    x = np.sort(values)
    n = x.size
    k = math.isqrt(n)
    t_n = float(x[-1] - x[-1 - k]) / math.log(k)
    h_n = float(np.mean(x[n - k:] - x[n - 1 - k]))

    def check(out: str, err: str) -> None:
        doc = json.loads(out)
        _all_finite(doc)
        _echo_matches(doc.get("config", {}), {"command": "estimate", "path": path})
        _require(doc.get("n") == n and doc.get("k") == k, f"n/k = {doc.get('n')}/{doc.get('k')}")
        _close(_require_finite(doc.get("t_n"), "t_n"), t_n, 1e-12, "T_n vs numpy")
        _close(_require_finite(doc.get("h_n"), "h_n"), h_n, 1e-12, "H_n vs numpy")

    return check


def _check_test(path: str, values: np.ndarray):
    want = classify(SortedSample.from_values(values), KPolicy.sqrt()).to_dict()

    def check(out: str, err: str) -> None:
        doc = json.loads(out)
        _all_finite(doc)
        _echo_matches(doc.get("config", {}), {"command": "test", "path": path})
        _require(doc.get("verdict") == want, f"verdict {doc.get('verdict')} vs direct {want}")

    return check


def _check_table(seed: int, stream: int):
    def check(out: str, err: str) -> None:
        doc = json.loads(out)
        _all_finite(doc)
        _echo_matches(doc.get("config", {}), {"command": "table", "seed": seed, "stream": stream,
                                              "n_total": TABLE_N_TOTAL})
        rows = doc.get("rows", [])
        _require([row.get("n") for row in rows] == list(range(TABLE_N_TOTAL - 9, TABLE_N_TOTAL + 1)),
                 "table rows are not n_total-9 .. n_total")
        # The same seed contract the engine documents: PCG64 on
        # SeedSequence([seed, stream]), lattice (j + 0.5) / 2**53, sorted.
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
        u = np.sort((gen.integers(0, 1 << 53, size=TABLE_N_TOTAL) + 0.5) * 2.0 ** -53)
        for row in rows:
            n = row["n"]
            k = math.isqrt(n)
            t3 = (math.log(1.0 / (1.0 - u[n - 1])) - math.log(1.0 / (1.0 - u[n - 1 - k]))) / math.log(k)
            _require(abs(row["identity_gap"]) <= 1e-12, f"identity gap {row['identity_gap']} at n={n}")
            _close(row["u_gap"], float(1.0 - u[n - 1]), 1e-12, f"u_gap at n={n}")
            _close(row["t3"], t3, 1e-9, f"T3 at n={n}")

    return check


def _check_rejected(out: str, err: str) -> None:
    _require("error" in err, "no error message on stderr")


class AnalysisWorkload:
    """norming on every catalog model, estimate/test on generated files,
    the table, and the malformed-input slice."""

    name = "analysis"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.trace_cycles = 1
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        fixed = []
        for model_name in NORMING_MODELS:
            for n in NORMING_SIZES:
                for policy in NORMING_POLICIES:
                    fixed.append(Op(cell="norming", command="norming",
                                    argv=("norming", "--model", model_name, "--n", str(n),
                                          "--k-policy", policy, "--format", "json"),
                                    check=_check_norming(model_name, n, policy)))
        index = 0
        for parent in FILE_PARENTS:
            for size in FILE_SIZES:
                values = _draw_parent(parent, size, seed, index)
                index += 1
                path = work_dir / f"{parent}-{size}.txt"
                nbytes = _write_values(path, map(repr, values.tolist()))
                rel = str(path)
                fixed.append(Op(cell="estimate", command="estimate", input_bytes=nbytes,
                                argv=("estimate", "--format", "json", rel),
                                check=_check_estimate(rel, values)))
                fixed.append(Op(cell="test", command="test", input_bytes=nbytes,
                                argv=("test", "--format", "json", rel),
                                check=_check_test(rel, values)))
        self._fixed = fixed
        self._malformed = self._malformed_ops()

    def _malformed_ops(self) -> list:
        base = _draw_parent("exponential", 200, self.seed, 99)
        nan_file = self.work_dir / "nan-line.txt"
        _write_values(nan_file, [*map(repr, base.tolist()), "nan"])
        text_file = self.work_dir / "non-numeric.txt"
        _write_values(text_file, [*map(repr, base.tolist()), "twelve"])
        missing = self.work_dir / "no-such-file.txt"
        seed = str(self.seed)
        simulate = ("simulate", "--model", "normal", "--n", "1000", "--reps", "2")
        cases = [
            # known defects at the commit that defined this benchmark
            (True, ("norming", "--model", "iterlog(0)", "--n", "10000")),
            (True, ("norming", "--model", "normal", "--n", "10000", "--k-policy", "logpow:nan")),
            (True, ("norming", "--model", "normal", "--n", "10000", "--k-policy", "logpow:inf")),
            (True, (*simulate, "--seed", "-1")),
            (True, (*simulate, "--seed", seed, "--stream", "-5")),
            (True, ("estimate", str(nan_file))),
            # already rejected with a message
            (False, ("norming", "--model", "no-such-model", "--n", "10000")),
            (False, ("estimate", str(missing))),
            (False, ("estimate", str(text_file))),
            (False, ("simulate", "--model", "normal", "--n", "1000", "--reps", "0", "--seed", seed)),
            (False, ("norming", "--model", "normal", "--n", "1000", "--k", "5000")),
        ]
        return [Op(cell=MALFORMED, argv=argv, check=_check_rejected, expect_codes=frozenset({1, 2}),
                   command=argv[0], known_defect=defect) for defect, argv in cases]

    def _table(self, seed: int, stream: int) -> Op:
        return Op(cell="table", command="table", n_total=TABLE_N_TOTAL,
                  argv=("table", "--n-total", str(TABLE_N_TOTAL), "--seed", str(seed),
                        "--stream", str(stream), "--format", "json"),
                  check=_check_table(seed, stream))

    def cycle(self, c: int) -> list:
        return [*self._fixed, self._table(self.seed, c), *self._malformed]

    def reference_ops(self) -> list:
        return [("analysis/table", self._table(DEFAULT_SEED, 0))]

    def close(self) -> None:
        for path in self.work_dir.iterdir():
            path.unlink()
        self.work_dir.rmdir()


WORKLOADS = ("replicate-large-n", "replicate-small-n", "analysis")


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "replicate-large-n":
        return ReplicateWorkload(name, LARGE_N_CELLS, seed, trace_cycles=4)
    if name == "replicate-small-n":
        return ReplicateWorkload(name, SMALL_N_CELLS, seed, trace_cycles=2)
    if name == "analysis":
        return AnalysisWorkload(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


def expected_counts(ops: list) -> dict:
    """Per-layer counts implied by a list of operations (well-formed only)."""
    ops = [op for op in ops if op.well_formed]
    replicate = [op for op in ops if op.command in ("simulate", "ks")]
    files = [op for op in ops if op.command in ("estimate", "test")]
    tables = [op for op in ops if op.command == "table"]
    norming_ops = [op for op in ops if op.command == "norming"]
    return {
        "cli.build_parser": len(ops),
        "engine.run_replicates": len(replicate),
        "engine.replicates": sum(op.reps for op in replicate),
        "engine.seed": sum(op.reps for op in replicate) + len(tables),
        "engine.uniforms_drawn": sum(op.n * op.reps for op in replicate)
        + sum(op.n_total for op in tables),
        "engine.ks_distance": sum(op.command == "ks" for op in ops),
        "engine.summarize": sum(op.command in ("simulate", "ks") and not op.csv for op in ops),
        "engine.write_replicates_csv": sum(op.csv for op in ops),
        "engine.reproduce_table": len(tables),
        "cli.input_bytes": sum(op.input_bytes for op in files),
        "estimators.SortedSample.from_values": len(files),
        "estimators.de_haan_resnick": len(files),
        "estimators.hill": sum(op.command == "estimate" for op in ops),
        "select.classify": sum(op.command == "test" for op in ops),
        "models.norming": len(norming_ops) + len(replicate),
        "models.lambda_ratio": len(_PROBE_FACTORS) * len(norming_ops),
    }
