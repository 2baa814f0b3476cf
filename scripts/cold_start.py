#!/usr/bin/env python3
"""Cold-start wall time and peak memory of each gumbeltail command, one
fresh process per run.

Each run starts a new interpreter that imports the package from a source
tree and runs one command line, as the installed ``gumbeltail`` script
does; the time covers interpreter start-up, imports and the command, and
the peak RSS is the child's ru_maxrss, read from os.wait4. One
untimed run per command and tree comes first: it warms the file cache and
records which scipy modules the command loads. The timed repeats alternate:
each round runs every command on every tree, and the order of commands and
of trees reverses from one round to the next, so that drift on a shared host
falls on all of them alike. The medians per command and tree are printed
and written, with every run, to BENCH_<label>.json in the current directory.

Usage:
    python scripts/cold_start.py --label local --repeats 9
    python scripts/cold_start.py --label cmp --src parent=/tmp/parent/src --src change=src
    python scripts/cold_start.py --label smoke --commands table --repeats 1
    python scripts/cold_start.py --label read --commands estimate-large test-large \
        --src parent=/tmp/parent/src --src change=src
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

# stand for the sample files written for estimate and test, by their line
# counts; 1e5 lines is the size of the analysis workload's largest files
SAMPLE, LARGE_SAMPLE = "<sample>", "<large sample>"
SAMPLE_LINES = {SAMPLE: 1000, LARGE_SAMPLE: 100_000}
COMMANDS = {
    "estimate": ["estimate", SAMPLE],
    "estimate-large": ["estimate", LARGE_SAMPLE],
    "test": ["test", SAMPLE],
    "test-large": ["test", LARGE_SAMPLE],
    "table": ["table"],
    "norming": ["norming", "--model", "exp-of-log", "--n", "1000000"],
    "norming-quadrature": ["norming", "--model", "log-normal", "--n", "1000000"],
    "ks": ["ks", "--model", "exp-of-log", "--n", "1000", "--reps", "50"],
    "ks-normal": ["ks", "--model", "normal", "--n", "1000", "--reps", "50"],
    "simulate": ["simulate", "--model", "pareto", "--n", "1000", "--reps", "50"],
    "simulate-large": ["simulate", "--model", "exp-of-log", "--n", "20000000", "--k-policy",
                       "logpow:2", "--reps", "3"],
}

_RUN = "from gumbeltail.cli import main\nmain()\n"
_PROBE = (
    "import atexit, sys\n"
    "import gumbeltail\n"
    "atexit.register(lambda: print(gumbeltail.__file__, *sorted(m for m in sys.modules\n"
    "    if m in ('scipy.integrate', 'scipy.special')), file=sys.stderr))\n"
    "from gumbeltail.cli import main\nmain()\n"
)


def _write_sample(directory: str, n: int) -> str:
    """n exponential quantiles log((n + 1) / i), one repr (up to 17 digits) per line."""
    path = os.path.join(directory, f"sample-{n}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{math.log((n + 1) / i)!r}\n" for i in range(1, n + 1))
    return path


def _run(code: str, argv: list, src: Path) -> tuple:
    """Run one command in a fresh interpreter; return its stderr, its wall
    time in seconds and its peak RSS in MB (the child's ru_maxrss)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *argv], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"cold_start: {' '.join(argv)} on {src} exited {proc.returncode}: "
                 f"{stderr.strip()}")
    return stderr, seconds, usage.ru_maxrss / 1024.0


def _probe(argv: list, src: Path) -> list:
    """Run once untimed; return the scipy modules the command loaded."""
    cli_file, *loaded = _run(_PROBE, argv, src)[0].split()
    if src.resolve() not in Path(cli_file).resolve().parents:
        sys.exit(f"cold_start: imported {cli_file}, not the tree {src}")
    return loaded


def _tree(spec: str) -> tuple:
    side, sep, path = spec.rpartition("=")
    src = Path(path)
    if not (src / "gumbeltail" / "cli.py").is_file():
        raise argparse.ArgumentTypeError(f"no gumbeltail sources under {src}")
    return (side if sep else str(src)), src


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="the output file is BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per command and tree")
    parser.add_argument("--commands", nargs="+", choices=list(COMMANDS), default=list(COMMANDS))
    parser.add_argument("--src", type=_tree, action="append", metavar="[NAME=]DIR",
                        help="a source tree to import gumbeltail from; repeat to compare trees "
                             "(default: src/ of this checkout)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = dict(args.src or [_tree(f"src={ROOT / 'src'}")])

    with tempfile.TemporaryDirectory() as tmp:
        samples = {mark: _write_sample(tmp, n) for mark, n in SAMPLE_LINES.items()
                   if any(mark in COMMANDS[name] for name in args.commands)}
        argvs = {name: [samples.get(a, a) for a in COMMANDS[name]] for name in args.commands}
        loaded = {side: {name: _probe(argvs[name], src) for name in argvs}
                  for side, src in trees.items()}
        runs = {side: {name: [] for name in argvs} for side in trees}
        rss = {side: {name: [] for name in argvs} for side in trees}
        for rnd in range(args.repeats):
            step = 1 if rnd % 2 == 0 else -1
            for name in list(argvs)[::step]:
                for side in list(trees)[::step]:
                    _, seconds, peak_mb = _run(_RUN, argvs[name], trees[side])
                    runs[side][name].append(seconds)
                    rss[side][name].append(peak_mb)

    def median(samples):
        return {side: {name: statistics.median(values) for name, values in by_name.items()}
                for side, by_name in samples.items()}

    medians, rss_medians = median(runs), median(rss)
    print(f"{'command':>20} " + " ".join(f"{side:>21}" for side in trees) + "  scipy loaded")
    for name in argvs:
        cells = " ".join(f"{medians[side][name]:>8.3f}s {rss_medians[side][name]:>8.1f}MB"
                         for side in trees)
        mods = " | ".join(" ".join(loaded[side][name]) or "-" for side in trees)
        print(f"{name:>20} {cells}  {mods}")

    doc = {
        "label": args.label,
        "command": "python scripts/cold_start.py " + " ".join(sys.argv[1:]),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine()},
        "repeats": args.repeats,
        "order": "round r runs commands and trees in listed order for even r, reversed for odd r",
        "commands": {name: " ".join(COMMANDS[name]) for name in argvs},
        "trees": {side: str(src) for side, src in trees.items()},
        "scipy_loaded": loaded,
        "median_s": medians,
        "runs_s": runs,
        "median_peak_rss_mb": rss_medians,
        "runs_peak_rss_mb": rss,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
