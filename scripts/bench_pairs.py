#!/usr/bin/env python3
"""Alternating end-to-end benchmark runs of two checkouts, summarized per
metric.

For each workload in BENCHMARK.json (or each one named by ``--workload``,
which may be repeated) and each of N seeds, a pair of runs
executes ``<tree>/bench/run.py --trace 0`` once on the base checkout and
once on the change checkout, each in a fresh process started in its own
tree, at the same seed and at the benchmark's ``run_seconds``. The base
side runs first in even pairs and the change side in odd pairs, so that
drift on a shared host falls on both alike. The last stdout line of every
run (the benchmark's result line) is kept as it is, and so is its ``env``
line, which names the source digest (``src_sha256_16``), git commit, numpy
and scipy that the run measured.

The summary gives, per workload and end-to-end metric, each side's median
and quartiles over its runs, and how many pairs the change won: a pair is
won when the change's value is better than the base's at the same seed, in
the direction that BENCHMARK.json gives for the metric. It flags, as
``GAIN > BASE IQR``, a metric whose median moved the better way by more
than the base's interquartile range, and, as ``WORSE THAN BOUND``, one
whose median got worse than the base's by more than the metric's bound in
BENCHMARK.json, a relative change. Two more flags state the rules a
claimed gain and a comparison are held to: ``CLAIM MET`` when the change
won at least 9 of every 10 pairs and its gain exceeds the base IQR, and
``UNRESOLVED`` when the base IQR, relative to the base median, is wider
than the metric's bound, unless every change run beats every base run.
Everything is written to BENCH_<label>.json in the current directory. If a
run exits non-zero, no further run starts: the runs finished before it are
summarized and written, with the failed run's workload, pair, seed, side,
exit code and stderr tail under ``failed_run``, and the script exits
non-zero.

Usage:
    python scripts/bench_pairs.py --label cmp --base ../parent --pairs 10 \\
        --first-seed 41 [--workload replicate-small-n ...]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions(benchmark: dict) -> dict:
    """Metric name -> "higher" or "lower", for the end-to-end metrics."""
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def bounds(benchmark: dict) -> dict:
    """Metric name -> the relative worsening of its median that the
    benchmark allows, for the end-to-end metrics that give one."""
    return {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]
            if "bound" in metric}


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _better(change: float, base: float, better: str) -> bool:
    return change > base if better == "higher" else change < base


def summarize(runs: list, better: dict, bound: dict) -> dict:
    """Per workload: run counts, correctness, and per metric each side's
    median and quartiles, the pairs the change won, the change of the
    median relative to the base median, whether the median moved the
    better way by more than the base's interquartile range, whether it
    moved the worse way by more than the metric's bound, whether a claimed
    gain is met (at least 9 of every 10 pairs won and a gain above the base
    IQR), and whether the comparison is unresolved (a relative base IQR
    wider than the bound, with some change run not beating every base run).
    The bound's two flags are None where the metric has no bound or the
    base median is 0.

    runs holds {"workload", "pair", "seed", "side", "line"} records, side
    being "base" or "change" and line a parsed result line.
    """
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        sides = {side: {run["pair"]: run["line"] for run in mine if run["side"] == side}
                 for side in ("base", "change")}
        pairs = sorted(set(sides["base"]) & set(sides["change"]))
        doc = {
            "pairs": len(pairs),
            "correct": {side: all(line["correct"] for line in lines.values())
                        for side, lines in sides.items()},
            "failed": {side: sum(line["failed"] for line in lines.values())
                       for side, lines in sides.items()},
            "metrics": {},
        }
        for name, direction in better.items():
            values = {side: {pair: line["metrics"][name]["value"] for pair, line in lines.items()
                             if name in line["metrics"]}
                      for side, lines in sides.items()}
            if not (values["base"] and values["change"]):
                continue
            stats = {side: _quartiles(list(v.values())) for side, v in values.items()}
            paired = [pair for pair in pairs if pair in values["base"] and pair in values["change"]]
            base_median, change_median = stats["base"]["median"], stats["change"]["median"]
            gain = change_median - base_median if direction == "higher" else base_median - change_median
            base_iqr = stats["base"]["q3"] - stats["base"]["q1"]
            relative = (change_median - base_median) / base_median if base_median else None
            change_won = sum(_better(values["change"][p], values["base"][p], direction)
                             for p in paired)
            separated = all(_better(c, b, direction)
                            for c in values["change"].values() for b in values["base"].values())
            limit = bound.get(name)
            worse = unresolved = None
            if relative is not None and limit is not None:
                worse = (-relative if direction == "higher" else relative) > limit
                unresolved = base_iqr / abs(base_median) > limit and not separated
            doc["metrics"][name] = {
                "better": direction,
                **stats,
                "change_won": change_won,
                "of_pairs": len(paired),
                "median_change": relative,
                "base_iqr": base_iqr,
                "gain_exceeds_base_iqr": gain > base_iqr,
                "worse_than_bound": worse,
                "claim_met": bool(paired) and 10 * change_won >= 9 * len(paired) and gain > base_iqr,
                "unresolved": unresolved,
            }
        out[workload] = doc
    return out


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One benchmark run in a fresh process in tree: its parsed result line
    and its parsed env line (None if it printed none). Raises
    CalledProcessError, carrying the run's stderr, if it exits non-zero."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise subprocess.CalledProcessError(done.returncode, argv, done.stdout, done.stderr)
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(text[len("env "):]) for text in lines if text.startswith("env ")), None)
    return json.loads(lines[-1]), env


def _run_pairs(benchmark: dict, trees: dict, workloads: list, pairs: int,
               first_seed: int) -> tuple:
    """Every run's record, in the alternating order, and the run that failed
    (None if none did), with the last 20 lines of its stderr: the first run
    that exits non-zero ends the loop."""
    runs = []
    for workload in workloads:
        for pair in range(pairs):
            seed = first_seed + pair
            for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                try:
                    line, env = run_bench(trees[side], workload, seed, benchmark["run_seconds"])
                except subprocess.CalledProcessError as exc:
                    return runs, {"workload": workload, "pair": pair, "seed": seed, "side": side,
                                  "exit_code": exc.returncode,
                                  "stderr_tail": "\n".join(exc.stderr.strip().splitlines()[-20:])}
                runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                             "line": line, "env": env})
                print(f"{workload} pair {pair} seed {seed} {side:>6}: correct {line['correct']} "
                      f"failed {line['failed']} " + " ".join(
                          f"{name} {m['value']:.4g}" for name, m in line["metrics"].items()),
                      flush=True)
    return runs, None


def _checkout(path: str) -> Path:
    tree = Path(path)
    if not (tree / "bench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"no bench/run.py under {tree}")
    return tree


def main() -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="the output file is BENCH_<label>.json")
    parser.add_argument("--base", type=_checkout, required=True, help="the checkout to compare against")
    parser.add_argument("--change", type=_checkout, default=ROOT,
                        help="the checkout under test (default: this one)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload")
    parser.add_argument("--first-seed", type=int, default=1, help="pair p runs at seed first + p")
    names = [w["name"] for w in benchmark["workloads"]]
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to pair, in the order given; repeat for more "
                             "(default: every workload of BENCHMARK.json)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    seconds = benchmark["run_seconds"]
    workloads = list(dict.fromkeys(args.workload)) if args.workload else names
    runs, failed_run = _run_pairs(benchmark, trees, workloads, args.pairs, args.first_seed)
    summary = summarize(runs, directions(benchmark), bounds(benchmark))
    for workload, doc in summary.items():
        for name, m in doc["metrics"].items():
            print(f"{workload:>18} {name:>12}: base {m['base']['median']:.4g} "
                  f"[{m['base']['q1']:.4g}, {m['base']['q3']:.4g}]  change "
                  f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, {m['change']['q3']:.4g}]"
                  f"  won {m['change_won']}/{m['of_pairs']}"
                  + ("  GAIN > BASE IQR" if m["gain_exceeds_base_iqr"] else "")
                  + ("  WORSE THAN BOUND" if m["worse_than_bound"] else "")
                  + ("  CLAIM MET" if m["claim_met"] else "")
                  + ("  UNRESOLVED" if m["unresolved"] else ""))
    doc = {
        "label": args.label,
        "command": "python scripts/bench_pairs.py " + " ".join(sys.argv[1:]),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "trees": {"base": str(args.base), "change": str(args.change)},
        "order": "pair p runs the base first for even p and the change first for odd p",
        "seconds": seconds,
        "summary": summary,
        "runs": runs,
        "failed_run": failed_run,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if failed_run is not None:
        sys.exit(f"bench_pairs: the {failed_run['side']} run of {failed_run['workload']} pair "
                 f"{failed_run['pair']} exited {failed_run['exit_code']}:\n"
                 f"{failed_run['stderr_tail']}")


if __name__ == "__main__":
    main()
