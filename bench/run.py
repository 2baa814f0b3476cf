#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the gumbeltail command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload analysis --seed 3 --seconds 20 --trace 0

One client, one process, one thread, closed loop: each operation is a
``gumbeltail`` argv run in process through ``gumbeltail.cli.dispatch``, and
the next starts when it has returned and its output has been checked. The
package is imported from ``src/`` of the checkout this file sits in; without
it the benchmark exits 2 before measuring anything.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs a fixed list of operations alternately untraced and traced (see
tracing.py) and reports per-layer metrics; counts must repeat exactly
between passes and match the operation list. Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5  # set-up samples spread over the run; setup_s is their median
SETUP_PROBES = 3  # fresh interpreters per sample; the sample is the fastest
MIN_TIMED_OPS = 100  # the slot p90s need at least ten operations beyond them in all
HARD_STOP_S = 140.0  # upper limit on one measured loop, whatever --seconds says

_SETUP_CHILD = (
    "import time\n"
    "import gumbeltail.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), cli.__file__)\n"
)


def _fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "gumbeltail" / "cli.py").is_file():
        _fail_setup(f"no gumbeltail sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gumbeltail

    if SRC not in Path(gumbeltail.__file__).resolve().parents:
        _fail_setup(f"imported gumbeltail from {gumbeltail.__file__}, not from {SRC}")
    return gumbeltail


# ---------------------------------------------------------------------------
# environment record


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for index in sorted(base.glob("index*")):
            level, kind = _read(index / "level"), _read(index / "type")
            if level in ("2", "3") and kind in ("Unified", "Data"):
                out[f"L{level}"] = _read(index / "size")
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "gumbeltail").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(gumbeltail, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gumbeltail": gumbeltail.__version__,
        "git_commit": _git_commit(),
        "src_sha256_16": _source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter until gumbeltail.cli is
    imported and build_parser() has returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        _fail_setup(f"set-up probe failed: {done.stderr.strip()}")
    stamp, cli_file = done.stdout.split(maxsplit=1)
    if SRC not in Path(cli_file.strip()).resolve().parents:
        _fail_setup(f"set-up probe imported {cli_file.strip()}, not the checkout")
    return (int(stamp) - t0) / 1e9


# ---------------------------------------------------------------------------
# running operations


class Outcome:
    __slots__ = ("ok", "ns", "reason", "stdout")

    def __init__(self, ok: bool, ns: int, reason: str | None, stdout: str):
        self.ok, self.ns, self.reason, self.stdout = ok, ns, reason, stdout


def run_op(op, dispatch, check_failed) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = dispatch(list(op.argv))
        except Exception as exc:  # a traceback out of the CLI fails the operation
            return Outcome(False, time.perf_counter_ns() - t0,
                           f"raised {type(exc).__name__}: {exc}", out.getvalue())
        ns = time.perf_counter_ns() - t0
    if code not in op.expect_codes:
        return Outcome(False, ns, f"exit {code}, expected {sorted(op.expect_codes)}", out.getvalue())
    try:
        op.check(out.getvalue(), err.getvalue())
    except check_failed as exc:
        return Outcome(False, ns, f"check: {exc}", out.getvalue())
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # unparseable output
        return Outcome(False, ns, f"check: {type(exc).__name__}: {exc}", out.getvalue())
    return Outcome(True, ns, None, out.getvalue())


class Tally:
    """Attempted/failed counts, failure reasons and the latencies of the
    well-formed operations that passed, per slot (position in the cycle).
    ``unexpected_failed`` counts failures of every operation that is not a
    known defect; any such failure makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected_failed = 0
        self.slots = {}  # slot -> [ns, ...]
        self.slot_reps = {}  # slot -> replicates per operation
        self.failures = {}

    def add(self, slot: int, op, outcome: Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            label = "known defect: " if op.known_defect else ""
            self.failures.setdefault(" ".join(op.argv), label + outcome.reason)
            self.unexpected_failed += not op.known_defect
        elif op.well_formed:
            self.slots.setdefault(slot, []).append(outcome.ns)
            self.slot_reps[slot] = op.reps

    def operations(self) -> int:
        return sum(len(v) for v in self.slots.values())

    def floors_ms(self) -> dict:
        """Each slot's fastest repetition in the run, in ms."""
        return {slot: min(v) / 1e6 for slot, v in self.slots.items()}

    def p90s_ms(self) -> dict:
        """Each slot's 90th-percentile repetition in the run, in ms."""
        return {slot: _nearest_rank(v, 0.9) / 1e6 for slot, v in self.slots.items()}


def _nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)) - 1, 0)]


def reference_check(workload, dispatch, check_failed, reference: dict, digest) -> list:
    """Seeded outputs at the default seed against the recorded digests."""
    problems = []
    for key, op in workload.reference_ops():
        outcome = run_op(op, dispatch, check_failed)
        if not outcome.ok:
            problems.append(f"{key}: {outcome.reason}")
        elif reference.get(key) != digest(outcome.stdout):
            problems.append(f"{key}: digest {digest(outcome.stdout)[:16]} != reference "
                            f"{str(reference.get(key))[:16]}")
    return problems


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(workload, dispatch, check_failed, seconds: float):
    """Whole cycles until seconds have passed and MIN_TIMED_OPS well-formed
    operations are done; the set-up probes are spread over the same time so
    that their median sees the same host conditions as the operations."""
    for op in workload.cycle(0):  # warm-up: imports, lazy set-up, caches
        run_op(op, dispatch, check_failed)
    tally = Tally()
    setup, probe_s = [], 0.0
    start = time.perf_counter()
    c = 1
    while True:
        elapsed = time.perf_counter() - start - probe_s
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            t0 = time.perf_counter()
            setup.append(min(setup_probe() for _ in range(SETUP_PROBES)))
            probe_s += time.perf_counter() - t0
        for slot, op in enumerate(workload.cycle(c)):
            tally.add(slot, op, run_op(op, dispatch, check_failed))
        c += 1
        elapsed = time.perf_counter() - start - probe_s
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(setup) == SETUP_SAMPLES
                                      and tally.operations() >= MIN_TIMED_OPS):
            return tally, setup, c - 1, elapsed


def _line(name: str, value, unit: str, note: str) -> None:
    print(f"{name:<16} {value:>14.6g} {unit:<6} {note}")


def report_end_to_end(tally: Tally, setup: list, cycles: int, elapsed: float) -> dict:
    floors = tally.floors_ms()
    if len(floors) == 0 or tally.operations() < 2:
        _fail_setup(f"too few well-formed operations passed to time: {tally.failures}")
    p90s = tally.p90s_ms()
    pooled = sorted(ns / 1e6 for v in tally.slots.values() for ns in v)
    n_ops = len(pooled)
    basis = f"over {len(floors)} slot floors from n={n_ops} well-formed ops, {cycles} cycles"
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of n={len(setup)} samples, each the fastest of {SETUP_PROBES} "
                    "fresh interpreters"),
        "ops_per_s": (len(floors) / sum(floors.values()) * 1e3, "1/s", basis),
        "op_p50_ms": (_nearest_rank(floors.values(), 0.5), "ms", basis),
        "op_p90_ms": (statistics.fmean(p90s.values()), "ms",
                      f"mean over {len(p90s)} slots of each slot's p90, from n={n_ops} well-formed "
                      f"ops, at least {min(len(v) for v in tally.slots.values())} per slot"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
    }
    for name, (value, unit, note) in metrics.items():
        _line(name, value, unit, note)
    reps = sum(tally.slot_reps[s] for s in floors)
    if reps:
        rep_floor_ms = sum(floors[s] for s in floors if tally.slot_reps[s])
        _line("reps_per_s", reps / rep_floor_ms * 1e3, "1/s", f"{reps} replicates per cycle, slot floors")
    _line("pooled.ops_per_s", n_ops / sum(pooled) * 1e3, "1/s",
          f"n={n_ops} ops, {sum(pooled) / 1e3:.3f} s inside dispatch, {elapsed:.2f} s loop wall")
    _line("pooled.op_p50_ms", _nearest_rank(pooled, 0.5), "ms", f"n={n_ops}")
    _line("pooled.op_p90_ms", _nearest_rank(pooled, 0.9), "ms", f"n={n_ops}")
    _line("fail_ratio", tally.failed / tally.attempted, "ratio",
          f"{tally.failed} failed of {tally.attempted} attempted")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


# ---------------------------------------------------------------------------
# traced run

# (metric, unit, span or counter, how)
PER_LAYER = [
    ("cli.dispatch.self_ms", "ms", "cli.dispatch", "self_per_call"),
    ("cli.build_parser.ms", "ms", "cli.build_parser", "incl_per_call"),
    ("cli.input_bytes", "count", "cli.input_bytes", "count"),
    ("engine.run_replicates.self_us_per_rep", "us", "engine.run_replicates", "self_per_rep"),
    ("engine.uniforms_drawn", "count", "engine.uniforms_drawn", "count"),
    ("engine.bytes_drawn_computed", "count", "engine.uniforms_drawn", "bytes"),
    ("engine.useful_ratio", "ratio", "engine.uniforms_drawn", "useful"),
    ("engine.seed.calls", "count", "engine.seed", "calls"),
    ("engine.seed.us_per_call", "us", "engine.seed", "incl_per_call"),
    ("engine.ks_distance.ms", "ms", "engine.ks_distance", "incl_per_call"),
    ("engine.summarize.ms", "ms", "engine.summarize", "incl_per_call"),
    ("engine.write_replicates_csv.ms", "ms", "engine.write_replicates_csv", "incl_per_call"),
    ("engine.reproduce_table.ms", "ms", "engine.reproduce_table", "incl_per_call"),
    ("models.quantile.calls", "count", "models.quantile", "calls"),
    ("models.quantile.us_per_call", "us", "models.quantile", "incl_per_call"),
    ("normal.normal_ppf.calls", "count", "normal.normal_ppf", "calls"),
    ("normal.normal_ppf.us_per_call", "us", "normal.normal_ppf", "incl_per_call"),
    ("models.norming.calls", "count", "models.norming", "calls"),
    ("models.norming.ms", "ms", "models.norming", "incl_per_call"),
    ("models.lambda_ratio.calls", "count", "models.lambda_ratio", "calls"),
    ("models.lambda_ratio.ms", "ms", "models.lambda_ratio", "incl_per_call"),
    ("models.rho_numeric.calls", "count", "models.rho_numeric", "calls"),
    ("models.mean_excess_R.calls", "count", "models.mean_excess_R", "calls"),
    ("models.mean_excess_R.ms", "ms", "models.mean_excess_R", "incl_per_call"),
    ("models.sf.calls", "count", "models.sf", "calls"),
    ("normal.normal_sf.calls", "count", "normal.normal_sf", "calls"),
    ("estimators.SortedSample.from_values.ms", "ms", "estimators.SortedSample.from_values",
     "incl_per_call"),
    ("estimators.de_haan_resnick.calls", "count", "estimators.de_haan_resnick", "calls"),
    ("estimators.hill.us", "us", "estimators.hill", "incl_per_call"),
    ("estimators.select_k.calls", "count", "estimators.select_k", "calls"),
    ("select.classify.us", "us", "select.classify", "incl_per_call"),
]
_SCALE = {"ms": 1e-6, "us": 1e-3}


def _merge(snapshots: list) -> dict:
    spans, counts = {}, {}
    for snap in snapshots:
        for name, st in snap["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(st, 0))
            for key, value in st.items():
                acc[key] += value
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def _layer_values(snap: dict) -> dict:
    """Every PER_LAYER metric of one traced pass."""
    empty = {"calls": 0, "outer_calls": 0, "incl_ns": 0, "self_ns": 0}
    spans, counts = snap["spans"], snap["counts"]
    reps = counts.get("engine.replicates", 0)
    out = {}
    for metric, unit, source, how in PER_LAYER:
        st = spans.get(source, empty)
        if how == "count":
            value = counts.get(source, 0)
        elif how == "calls":
            value = st["calls"]
        elif how == "bytes":
            value = 8 * counts.get(source, 0)
        elif how == "useful":
            drawn = counts.get(source, 0)
            value = 2.0 * reps / drawn if drawn else 0.0
        elif how == "self_per_rep":
            value = st["self_ns"] * _SCALE[unit] / reps if reps else 0.0
        elif how == "self_per_call":
            value = st["self_ns"] * _SCALE[unit] / st["calls"] if st["calls"] else 0.0
        else:
            value = st["incl_ns"] * _SCALE[unit] / st["outer_calls"] if st["outer_calls"] else 0.0
        out[metric] = value
    return out


def per_layer_metrics(snaps: list, overhead: float) -> dict:
    """Counts from the first pass (all passes agree); times as the median
    over passes."""
    per_pass = [_layer_values(snap) for snap in snaps]
    out = {}
    for metric, unit, _, _ in PER_LAYER:
        values = [p[metric] for p in per_pass]
        out[metric] = {"value": values[0] if unit == "count" else statistics.median(values),
                       "unit": unit}
    out["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return out


def _cell_shares(tracers: list, cells: list) -> dict:
    """Per cell: wall ms in dispatch and each span's self-time share, plus
    the inclusive shares the predictions read."""
    out = {}
    for cell in cells:
        snap = _merge([t.snapshot({cell}) for t in tracers])
        wall = snap["spans"].get("cli.dispatch", {}).get("incl_ns", 0)
        if not wall:
            continue
        out[cell] = {
            "wall_ms": wall / 1e6,
            "self_share": {name: st["self_ns"] / wall for name, st in snap["spans"].items()},
            "incl_share": {name: st["incl_ns"] / wall for name, st in snap["spans"].items()},
        }
    return out


# (what is predicted, cell, self or inclusive share, spans whose shares add up)
PREDICTIONS = {
    "replicate-large-n": [
        ("engine.run_replicates self time is the majority of wall time",
         "ks-exp-of-log", "self", ["engine.run_replicates"]),
    ],
    "replicate-small-n": [
        ("models.quantile + engine.seed are the majority on the normal cell",
         "simulate-normal", "incl", ["models.quantile", "engine.seed"]),
        ("models.quantile + engine.seed are the majority on the iterlog cell",
         "simulate-iterlog2", "incl", ["models.quantile", "engine.seed"]),
    ],
    "analysis": [
        ("cli.dispatch self time dominates estimate operations",
         "estimate", "self", ["cli.dispatch"]),
        ("cli.dispatch self time dominates test operations",
         "test", "self", ["cli.dispatch"]),
    ],
}


def traced(workload, dispatch, check_failed, seconds: float, tracing, expected_counts):
    ops = [op for c in range(workload.trace_cycles) for op in workload.cycle(c)]
    cells = sorted({op.cell for op in ops if op.well_formed})
    want = expected_counts(ops)
    for op in ops:  # warm-up
        run_op(op, dispatch, check_failed)
    plain, traced_tally = Tally(), Tally()
    problems = []
    tracers = []
    start = time.perf_counter()
    while True:
        for slot, op in enumerate(ops):
            plain.add(slot, op, run_op(op, dispatch, check_failed))
        tracer = tracing.Tracer()
        traced_dispatch = tracer.wrap("cli.dispatch", dispatch)
        saved = tracing.install(tracer)
        try:
            for slot, op in enumerate(ops):
                tracer.cell = op.cell
                traced_tally.add(slot, op, run_op(op, traced_dispatch, check_failed))
        finally:
            tracing.uninstall(saved)
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(tracers) >= 2):
            break

    snaps = [t.snapshot(set(cells)) for t in tracers]
    first = {name: st["calls"] for name, st in snaps[0]["spans"].items()}, snaps[0]["counts"]
    for i, snap in enumerate(snaps[1:], start=2):
        if ({name: st["calls"] for name, st in snap["spans"].items()}, snap["counts"]) != first:
            problems.append(f"counts of traced pass {i} differ from pass 1")
    got_calls, got_counts = first
    for name, value in want.items():
        got = got_counts[name] if name in got_counts else got_calls.get(name, 0)
        if got != value:
            problems.append(f"{name}: traced {got}, operation list implies {value}")

    plain_ms = sum(plain.floors_ms().values())
    traced_ms = sum(traced_tally.floors_ms().values())
    overhead = traced_ms / plain_ms
    metrics = per_layer_metrics(snaps, overhead)
    shares = _cell_shares(tracers, cells)
    print(f"traced passes {len(tracers)} of {len(ops)} ops each "
          f"({sum(op.well_formed for op in ops)} well-formed); overhead ratio {overhead:.4f} "
          f"= {traced_ms:.3f} ms / {plain_ms:.3f} ms, sums of per-slot floors traced / untraced")
    for name, m in metrics.items():
        _line(name, m["value"], m["unit"], "per pass" if m["unit"] == "count" else "")
    for cell, info in shares.items():
        top = sorted(info["self_share"].items(), key=lambda kv: -kv[1])[:6]
        print(f"cell {cell:<26} wall {info['wall_ms'] / len(tracers):10.3f} ms/pass  self shares: "
              + ", ".join(f"{name} {share:.3f}" for name, share in top))
    for text, cell, kind, names in PREDICTIONS[workload.name]:
        share = sum(shares[cell][f"{kind}_share"].get(name, 0.0) for name in names)
        print(f"prediction {'HIT ' if share > 0.5 else 'MISS'} share {share:.3f}: {text}")
    plain.attempted += traced_tally.attempted
    plain.failed += traced_tally.failed
    plain.unexpected_failed += traced_tally.unexpected_failed
    for argv_text, reason in traced_tally.failures.items():
        plain.failures.setdefault(argv_text, reason)
    return plain, metrics, problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("replicate-large-n", "replicate-small-n", "analysis"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gumbeltail = _import_package()
    from gumbeltail import cli

    import tracing
    import workloads

    env = environment(gumbeltail, args.workload, args.seed)
    print(f"# gumbeltail benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}; closed loop, 1 client, 1 thread")
    print("env " + json.dumps(env, sort_keys=True))

    work_dir = WORK / f"{os.getpid()}"
    workload = workloads.make_workload(args.workload, args.seed, work_dir)
    try:
        if args.trace:
            tally, metrics, problems = traced(workload, cli.dispatch, workloads.CheckFailed,
                                              args.seconds, tracing, workloads.expected_counts)
        else:
            tally, setup, cycles, elapsed = end_to_end(workload, cli.dispatch,
                                                       workloads.CheckFailed, args.seconds)
            metrics = report_end_to_end(tally, setup, cycles, elapsed)
            problems = []
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())
        problems += reference_check(workload, cli.dispatch, workloads.CheckFailed,
                                    reference["digests"], workloads.digest)
    finally:
        workload.close()
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for argv_text, reason in tally.failures.items():
        print(f"failed: {argv_text}  ({reason})")
    for problem in problems:
        print(f"check: {problem}")
    correct = tally.unexpected_failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
